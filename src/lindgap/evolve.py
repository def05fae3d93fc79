"""Exact semigroup evolution and numerical verification of decay certificates.

Everything runs in weighted-frame coordinates: the semigroup is a plain
matrix exponential there, norms are Euclidean, and the identity component
is the invariant mean.  Window integrals use composite Simpson on 201
nodes with one halving step; the Richardson-extrapolated value is used and
the disagreement is reported as a resolution flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .certify import c_constants, c_constants_trivial_kernel, check_assumption, \
    structural_constants
from .lindblad import Lindbladian, generator_matrix, hermiticity_defect, \
    kernel_projection
from .operators import KmsFrame, Matrix, QuantumState, as_square_matrix, dag, \
    kms_frame
from .spectral import hamiltonian_superop

QUAD_FLAG_TOL = 1e-8
MEAN_DRIFT_TOL = 1e-10
CONTRACTIVITY_SLACK = 1e-10


def _simpson(vals: np.ndarray, h: float) -> float:
    n = len(vals) - 1
    if n % 2 != 0:
        raise ValueError("Simpson needs an even number of intervals")
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                            + 2.0 * vals[2:-1:2].sum()))


def _simpson_refined(fine_vals: np.ndarray, h: float,
                     floor: float = 0.0) -> tuple[float, float]:
    """Richardson-extrapolated Simpson value and its resolution defect.

    fine_vals must have 4k+1 nodes; the coarse pass uses every other node.
    """
    S2 = _simpson(fine_vals, h)
    S1 = _simpson(fine_vals[::2], 2.0 * h)
    SR = (16.0 * S2 - S1) / 15.0
    defect = abs(S2 - S1) / (15.0 * max(abs(SR), floor, 1e-300))
    return SR, defect


def propagate(L: Lindbladian, state: QuantumState, X0, t: float,
              frame: KmsFrame | None = None) -> Matrix:
    """e^{tL} X0 by exponentiating the full weighted-frame matrix."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if frame is None:
        frame = kms_frame(state)
    X0 = as_square_matrix(X0, state.dim)
    M = generator_matrix(L, frame, restricted=False).matrix
    c0 = frame.coords(X0)
    ct = expm(t * M) @ c0
    drift = abs(ct[0] - c0[0])
    if drift > MEAN_DRIFT_TOL * max(abs(c0[0]), 1.0):
        raise ValueError(f"invariant mean drifted by {drift:.3e}; "
                         "the state is not invariant for this generator")
    return frame.from_coords(ct)


@dataclass
class DecayCurve:
    """Squared weighted distance to equilibrium along the evolution."""

    times: np.ndarray
    values: np.ndarray
    window_T: float | None = None
    window_values: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        series = [self.values] if self.window_values is None \
            else [self.values, self.window_values]
        for vals in series:
            if np.any(vals < -1e-300):
                raise ValueError("squared norms must be nonnegative")
            slack = CONTRACTIVITY_SLACK * max(vals[0], 1e-300)
            if np.any(np.diff(vals) > slack):
                raise ValueError("decay curve is not nonincreasing; "
                                 "the generator does not contract this norm")


def _restricted_data(L: Lindbladian, state: QuantumState,
                     frame: KmsFrame | None):
    if frame is None:
        frame = kms_frame(state)
    Mr = generator_matrix(L, frame, restricted=True).matrix
    return frame, Mr


def decay_curve(L: Lindbladian, state: QuantumState, X0, ts,
                window_T: float | None = None,
                frame: KmsFrame | None = None) -> DecayCurve:
    frame, Mr = _restricted_data(L, state, frame)
    ts = np.asarray(ts, dtype=float)
    c0 = frame.coords(as_square_matrix(X0, state.dim))[1:]
    vals = np.empty(len(ts))
    windows = np.empty(len(ts)) if window_T else None
    for i, t in enumerate(ts):
        x = expm(t * Mr) @ c0
        vals[i] = float(np.vdot(x, x).real)
        if window_T:
            windows[i], _ = _window_integral(Mr, x, window_T)
    return DecayCurve(times=ts, values=vals, window_T=window_T,
                      window_values=windows)


def _window_integral(Mr: Matrix, x_start: np.ndarray, T: float,
                     floor: float = 0.0) -> tuple[float, float]:
    """(1/T) * integral of the squared norm over a window of length T."""
    h = T / 400.0
    Eh = expm(h * Mr)
    vals = np.empty(401)
    x = x_start
    vals[0] = np.vdot(x, x).real
    for i in range(1, 401):
        x = Eh @ x
        vals[i] = np.vdot(x, x).real
    SR, defect = _simpson_refined(vals, h, floor=floor)
    return SR / T, defect


@dataclass
class TimeAvgReport:
    passed: bool
    window_ok: bool
    pointwise_ok: bool
    worst_window_ratio: float
    worst_pointwise_ratio: float
    quadrature_ok: bool
    max_quadrature_defect: float
    nu: float
    T: float
    prefactor: float
    times: np.ndarray = field(repr=False, default=None)
    window_values: np.ndarray = field(repr=False, default=None)
    pointwise_values: np.ndarray = field(repr=False, default=None)

    def as_dict(self) -> dict:
        return {"passed": bool(self.passed), "window_ok": bool(self.window_ok),
                "pointwise_ok": bool(self.pointwise_ok),
                "worst_window_ratio": self.worst_window_ratio,
                "worst_pointwise_ratio": self.worst_pointwise_ratio,
                "quadrature_ok": bool(self.quadrature_ok),
                "max_quadrature_defect": self.max_quadrature_defect,
                "nu": self.nu, "T": self.T, "prefactor": self.prefactor}


CERT_SLACK = 1e-6


def time_avg_check(L: Lindbladian, state: QuantumState, X0, T: float,
                   nu: float, t_samples, prefactor: float,
                   frame: KmsFrame | None = None,
                   slack: float = CERT_SLACK,
                   quad_flag_tol: float = QUAD_FLAG_TOL) -> TimeAvgReport:
    """Check a decay certificate (nu, T, C_T) against the exact evolution.

    Windowed: avg_{[t,t+T]} ||X_s - <X>||^2  <=  e^{-nu t} * (t=0 window).
    Pointwise: ||X_t - <X>||^2 <= C_T e^{-nu t} ||X_0 - <X>||^2.
    Both with multiplicative slack.  Window integrals carry a Richardson
    resolution flag; certificate comparisons use the refined values.
    """
    if T <= 0 or nu <= 0 or prefactor < 1.0:
        raise ValueError("need T > 0, nu > 0, prefactor >= 1")
    frame, Mr = _restricted_data(L, state, frame)
    c0 = frame.coords(as_square_matrix(X0, state.dim))[1:]
    norm0 = float(np.vdot(c0, c0).real)
    ts = np.asarray(t_samples, dtype=float)
    if np.any(ts < 0):
        raise ValueError("sample times must be nonnegative")
    w0, defect0 = _window_integral(Mr, c0, T)
    floor = 1e-12 * max(w0, 1e-300)
    defects = [defect0]
    windows = np.empty(len(ts))
    points = np.empty(len(ts))
    worst_w = 0.0
    worst_p = 0.0
    for i, t in enumerate(ts):
        x = c0 if t == 0 else expm(t * Mr) @ c0
        points[i] = float(np.vdot(x, x).real)
        w, d = _window_integral(Mr, x, T, floor=floor)
        windows[i] = w
        defects.append(d)
        # exp(-nu*t) can underflow to 0; the bound is then vacuous unless
        # the measured value stayed positive.
        decay = math.exp(-nu * t)
        if w0 > 0:
            denom = decay * w0
            if denom > 0:
                worst_w = max(worst_w, w / denom)
            elif w > floor:
                worst_w = math.inf
        if norm0 > 0:
            denom = prefactor * decay * norm0
            if denom > 0:
                worst_p = max(worst_p, points[i] / denom)
            elif points[i] > 1e-12 * norm0:
                worst_p = math.inf
    window_ok = worst_w <= 1.0 + slack
    pointwise_ok = worst_p <= 1.0 + slack
    max_defect = float(max(defects))
    return TimeAvgReport(passed=window_ok and pointwise_ok,
                         window_ok=window_ok, pointwise_ok=pointwise_ok,
                         worst_window_ratio=float(worst_w),
                         worst_pointwise_ratio=float(worst_p),
                         quadrature_ok=max_defect <= quad_flag_tol,
                         max_quadrature_defect=max_defect,
                         nu=float(nu), T=float(T), prefactor=float(prefactor),
                         times=ts, window_values=windows,
                         pointwise_values=points)


@dataclass
class NormCurve:
    times: np.ndarray
    norms: np.ndarray
    empirical_rate: float
    fit_start: int
    range_warning: str | None = None


def semigroup_norm_curve(L: Lindbladian, state: QuantumState, ts,
                         frame: KmsFrame | None = None) -> NormCurve:
    """Operator norm of e^{tL} on the mean-zero subspace, with a rate fit.

    The empirical rate is minus the least-squares slope of log ||e^{tL}||
    over the last half of the samples, where the leading eigenvalue
    dominates.
    """
    frame, Mr = _restricted_data(L, state, frame)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("ts must be nonnegative and strictly increasing")
    norms = np.array([np.linalg.norm(expm(t * Mr), 2) for t in ts])
    start = len(ts) // 2
    if len(ts) - start < 2:
        raise ValueError("need at least two points in the fit window")
    # norms that underflowed to 0 carry no rate information
    usable = norms[start:] > 1e-280
    warning = None
    if usable.sum() >= 2:
        slope = np.polyfit(ts[start:][usable], np.log(norms[start:][usable]),
                           1)[0]
        rate = float(-slope)
        if not usable.all():
            warning = "norms underflowed inside the fit window"
        elif rate > 0 and rate * ts[-1] < 5.0:
            warning = ("time range shorter than five decay times; "
                       "the empirical rate may not be asymptotic")
    else:
        rate = math.nan
        warning = "norms underflowed before the fit window"
    return NormCurve(times=ts, norms=norms, empirical_rate=rate,
                     fit_start=start, range_warning=warning)


# ---------------------------------------------------------------------------
# space-time Poincare verification


@dataclass
class StpReport:
    passed: bool
    worst_ratio: float
    n_samples: int
    poly_degree: int
    T: float
    beta: float
    seed: int
    C1: float
    C2: float
    trivial_kernel: bool
    quadrature_ok: bool
    max_quadrature_defect: float

    def as_dict(self) -> dict:
        return {"passed": bool(self.passed), "worst_ratio": self.worst_ratio,
                "n_samples": self.n_samples, "poly_degree": self.poly_degree,
                "T": self.T, "beta": self.beta, "seed": self.seed,
                "C1": self.C1, "C2": self.C2,
                "trivial_kernel": bool(self.trivial_kernel),
                "quadrature_ok": bool(self.quadrature_ok),
                "max_quadrature_defect": self.max_quadrature_defect}


def _random_mean_zero(rng: np.random.Generator, state: QuantumState) -> Matrix:
    N = state.dim
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A = (B + dag(B)) / 2.0
    return A - np.trace(state.matrix @ A).real * np.eye(N)


def stp_verify(H, LD: Lindbladian, state: QuantumState, T: float, beta: float,
               n_samples: int = 100, poly_degree: int = 3, seed: int = 0,
               frame: KmsFrame | None = None,
               slack: float = CERT_SLACK, quad_flag_tol: float = QUAD_FLAG_TOL) -> StpReport:
    """Sample the space-time variance inequality on random polynomial paths.

    For X_t = sum_k t^k A_k with mean-zero Hermitian A_k, checks

        ||X - <X>||_{time x state}  <=  C1 ||(1 - Pi0) X||
                                        + C2 ||(beta - L^D)^{-1/2} (-d_t + L^H) X||

    where Pi0 projects onto the full dissipator kernel (constants included)
    and all norms average the weighted norm over [0, T].  The constants are
    the certificate constants at (T, beta); a trivial restricted kernel uses
    their large-coupling limit.
    """
    if beta <= 0:
        raise ValueError("beta must be positive so that (beta - L^D) is invertible")
    if T <= 0:
        raise ValueError("T must be positive")
    if n_samples < 1 or poly_degree < 0:
        raise ValueError("need n_samples >= 1 and poly_degree >= 0")
    if frame is None:
        frame = kms_frame(state)
    MD = generator_matrix(LD, frame, restricted=False).matrix
    if hermiticity_defect(MD) > 1e-8:
        raise ValueError("dissipator is not symmetric in the weighted frame")
    MD = (MD + dag(MD)) / 2.0
    MH = hamiltonian_superop(H, frame, restricted=False).matrix

    w, V = np.linalg.eigh(-MD)
    wmax = max(w[-1], 1e-30)
    zero = np.abs(w) < 1e-9 * wmax
    P0 = V[:, zero] @ dag(V[:, zero])
    W = V @ np.diag((beta + np.clip(w, 0.0, None)) ** -0.5) @ dag(V)

    split = kernel_projection(LD, state, frame)
    if split.dim0 == 0:
        Mr = generator_matrix(LD, frame, restricted=True).matrix
        MHr = hamiltonian_superop(H, frame, restricted=True).matrix
        C1, C2 = c_constants_trivial_kernel(float(np.linalg.norm(Mr, 2)),
                                            float(np.linalg.norm(MHr, 2)),
                                            T, beta)
        trivial = True
    else:
        ok, defect = check_assumption(H, split)
        if not ok:
            raise ValueError(f"Hamiltonian mixes the dissipator kernel into "
                             f"itself (defect {defect:.3e})")
        sc = structural_constants(H, LD, state, frame=frame, split=split)
        C1, C2 = c_constants(sc, T, beta)
        trivial = False

    rng = np.random.default_rng(seed)
    nodes = np.linspace(0.0, T, 401)
    h = T / 400.0
    powers = nodes[:, None] ** np.arange(poly_degree + 1)[None, :]
    dpowers = np.zeros_like(powers)
    for k in range(1, poly_degree + 1):
        dpowers[:, k] = k * nodes ** (k - 1)

    worst = 0.0
    max_defect = 0.0
    passed = True
    for _ in range(n_samples):
        coeffs = np.stack([frame.coords(_random_mean_zero(rng, state))
                           for _ in range(poly_degree + 1)])
        X = powers @ coeffs
        Xdot = dpowers @ coeffs
        mean = _simpson(X[:, 0].real, h) / T
        Xc = X.copy()
        Xc[:, 0] -= mean
        lhs_vals = np.einsum("ij,ij->i", Xc.conj(), Xc).real
        Xp = X @ (np.eye(P0.shape[0]) - P0).T
        r1_vals = np.einsum("ij,ij->i", Xp.conj(), Xp).real
        Z = (-Xdot + X @ MH.T) @ W.T
        r2_vals = np.einsum("ij,ij->i", Z.conj(), Z).real
        lhs2, d1 = _simpson_refined(lhs_vals, h)
        r12, d2 = _simpson_refined(r1_vals, h)
        r22, d3 = _simpson_refined(r2_vals, h)
        max_defect = max(max_defect, d1, d2, d3)
        lhs = math.sqrt(max(lhs2, 0.0) / T)
        rhs = C1 * math.sqrt(max(r12, 0.0) / T) + C2 * math.sqrt(max(r22, 0.0) / T)
        ratio = lhs / max(rhs, 1e-300)
        worst = max(worst, ratio)
        if ratio > 1.0 + slack:
            passed = False
    return StpReport(passed=passed, worst_ratio=float(worst),
                     n_samples=n_samples, poly_degree=poly_degree,
                     T=float(T), beta=float(beta), seed=seed,
                     C1=float(C1), C2=float(C2), trivial_kernel=trivial,
                     quadrature_ok=max_defect <= quad_flag_tol,
                     max_quadrature_defect=float(max_defect))
