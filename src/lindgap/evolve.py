"""Exact semigroup evolution and numerical verification of decay certificates.

Everything runs in weighted-frame coordinates: the semigroup is a plain
matrix exponential there, norms are Euclidean, and the identity component
is the invariant mean.  Every time average is exact up to rounding: the
window average of ||e^{sM} x||^2 over [0, T] is x^dag G_T x with the window
Gramian G_T (Van Loan 1978, by doubling), and the space-time integrands are
polynomials in t, integrated by Gauss-Legendre on enough nodes to be exact.
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

MEAN_DRIFT_TOL = 1e-10
CONTRACTIVITY_SLACK = 1e-10


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
    G = window_gramian(Mr, window_T) if window_T else None
    for i, t in enumerate(ts):
        x = expm(t * Mr) @ c0
        vals[i] = float(np.vdot(x, x).real)
        if window_T:
            windows[i] = float(np.vdot(x, G @ x).real)
    return DecayCurve(times=ts, values=vals, window_T=window_T,
                      window_values=windows)


def window_gramian(M: Matrix, T: float) -> Matrix:
    """G_T = (1/T) * integral_0^T e^{sM^dag} e^{sM} ds, so that the window
    average of ||e^{sM} x||^2 over [0, T] is x^dag G_T x.

    One Van Loan block exponential on the step h = T / 2^k with h ||M||_1 <= 1
    gives G_h = E^dag F, E = e^{hM}; each doubling G <- G + E^dag G E, E <- E^2
    extends the window.  No block entry grows past e^{h ||M||}, and M needs
    no gap, unlike a Lyapunov solve.
    """
    n = M.shape[0]
    k = max(0, math.ceil(math.log2(max(T * np.linalg.norm(M, 1), 1.0))))
    h = T / 2.0**k
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = -dag(M)
    block[:n, n:] = np.eye(n)
    block[n:, n:] = M
    F = expm(h * block)
    E = F[n:, n:]
    G = dag(E) @ F[:n, n:]
    for _ in range(k):
        G = G + dag(E) @ G @ E
        E = E @ E
    return (G + dag(G)) / (2.0 * T)


@dataclass
class TimeAvgReport:
    passed: bool
    window_ok: bool
    pointwise_ok: bool
    worst_window_ratio: float
    worst_pointwise_ratio: float
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
                "nu": self.nu, "T": self.T, "prefactor": self.prefactor}


CERT_SLACK = 1e-6


def time_avg_check(L: Lindbladian, state: QuantumState, X0, T: float,
                   nu: float, t_samples, prefactor: float,
                   frame: KmsFrame | None = None,
                   slack: float = CERT_SLACK) -> TimeAvgReport:
    """Check a decay certificate (nu, T, C_T) against the exact evolution.

    Windowed: avg_{[t,t+T]} ||X_s - <X>||^2  <=  e^{-nu t} * (t=0 window).
    Pointwise: ||X_t - <X>||^2 <= C_T e^{-nu t} ||X_0 - <X>||^2.
    Both with multiplicative slack; window averages come from the exact
    window Gramian.
    """
    if T <= 0 or nu <= 0 or prefactor < 1.0:
        raise ValueError("need T > 0, nu > 0, prefactor >= 1")
    frame, Mr = _restricted_data(L, state, frame)
    c0 = frame.coords(as_square_matrix(X0, state.dim))[1:]
    norm0 = float(np.vdot(c0, c0).real)
    ts = np.asarray(t_samples, dtype=float)
    if np.any(ts < 0):
        raise ValueError("sample times must be nonnegative")
    G = window_gramian(Mr, T)
    w0 = float(np.vdot(c0, G @ c0).real)
    windows = np.empty(len(ts))
    points = np.empty(len(ts))
    worst_w = 0.0
    worst_p = 0.0
    for i, t in enumerate(ts):
        x = c0 if t == 0 else expm(t * Mr) @ c0
        points[i] = float(np.vdot(x, x).real)
        w = float(np.vdot(x, G @ x).real)
        windows[i] = w
        # exp(-nu*t) can underflow to 0; the bound is then vacuous unless
        # the measured value stayed positive.
        decay = math.exp(-nu * t)
        if w0 > 0:
            denom = decay * w0
            if denom > 0:
                worst_w = max(worst_w, w / denom)
            elif w > 1e-12 * w0:
                worst_w = math.inf
        if norm0 > 0:
            denom = prefactor * decay * norm0
            if denom > 0:
                worst_p = max(worst_p, points[i] / denom)
            elif points[i] > 1e-12 * norm0:
                worst_p = math.inf
    window_ok = worst_w <= 1.0 + slack
    pointwise_ok = worst_p <= 1.0 + slack
    return TimeAvgReport(passed=window_ok and pointwise_ok,
                         window_ok=window_ok, pointwise_ok=pointwise_ok,
                         worst_window_ratio=float(worst_w),
                         worst_pointwise_ratio=float(worst_p),
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

    def as_dict(self) -> dict:
        return {"passed": bool(self.passed), "worst_ratio": self.worst_ratio,
                "n_samples": self.n_samples, "poly_degree": self.poly_degree,
                "T": self.T, "beta": self.beta, "seed": self.seed,
                "C1": self.C1, "C2": self.C2,
                "trivial_kernel": bool(self.trivial_kernel)}


def _random_mean_zero(rng: np.random.Generator, state: QuantumState) -> Matrix:
    N = state.dim
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A = (B + dag(B)) / 2.0
    return A - np.trace(state.matrix @ A).real * np.eye(N)


def stp_verify(H, LD: Lindbladian, state: QuantumState, T: float, beta: float,
               n_samples: int = 100, poly_degree: int = 3, seed: int = 0,
               frame: KmsFrame | None = None,
               slack: float = CERT_SLACK) -> StpReport:
    """Sample the space-time variance inequality on random polynomial paths.

    For X_t = sum_k t^k A_k with mean-zero Hermitian A_k, checks

        ||X - <X>||_{time x state}  <=  C1 ||(1 - Pi0) X||
                                        + C2 ||(beta - L^D)^{-1/2} (-d_t + L^H) X||

    where Pi0 projects onto the full dissipator kernel (constants included)
    and all norms average the weighted norm over [0, T].  The constants are
    the certificate constants at (T, beta); a trivial restricted kernel uses
    their large-coupling limit.  The integrands have degree 2 * poly_degree
    in t, so Gauss-Legendre on poly_degree + 1 nodes averages them exactly.
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
    x, wts = np.polynomial.legendre.leggauss(poly_degree + 1)
    nodes = T * (x + 1.0) / 2.0
    wts = wts / 2.0  # average over [0, T]: the weights sum to 1
    powers = nodes[:, None] ** np.arange(poly_degree + 1)[None, :]
    dpowers = np.zeros_like(powers)
    for k in range(1, poly_degree + 1):
        dpowers[:, k] = k * nodes ** (k - 1)

    worst = 0.0
    passed = True
    for _ in range(n_samples):
        coeffs = np.stack([frame.coords(_random_mean_zero(rng, state))
                           for _ in range(poly_degree + 1)])
        X = powers @ coeffs
        Xdot = dpowers @ coeffs
        mean = wts @ X[:, 0].real
        Xc = X.copy()
        Xc[:, 0] -= mean
        lhs_vals = np.einsum("ij,ij->i", Xc.conj(), Xc).real
        Xp = X @ (np.eye(P0.shape[0]) - P0).T
        r1_vals = np.einsum("ij,ij->i", Xp.conj(), Xp).real
        Z = (-Xdot + X @ MH.T) @ W.T
        r2_vals = np.einsum("ij,ij->i", Z.conj(), Z).real
        lhs = math.sqrt(max(wts @ lhs_vals, 0.0))
        rhs = C1 * math.sqrt(max(wts @ r1_vals, 0.0)) \
            + C2 * math.sqrt(max(wts @ r2_vals, 0.0))
        ratio = lhs / max(rhs, 1e-300)
        worst = max(worst, ratio)
        if ratio > 1.0 + slack:
            passed = False
    return StpReport(passed=passed, worst_ratio=float(worst),
                     n_samples=n_samples, poly_degree=poly_degree,
                     T=float(T), beta=float(beta), seed=seed,
                     C1=float(C1), C2=float(C2), trivial_kernel=trivial)
