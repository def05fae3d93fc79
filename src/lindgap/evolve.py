"""Exact semigroup evolution and numerical verification of decay certificates.

Everything runs in weighted-frame coordinates: the semigroup is a plain
matrix exponential there, norms are Euclidean, and the identity component
is the invariant mean.  The generator is block-diagonal on the analysis's
sectors, and so are its propagators and window Gramian: each is computed
per sector, same-size sectors stacked.  The certificate check and the
operator-norm curve sample the times t_k = k h of one fixed step h, so each
takes one exponential e^{hM} per stack of sectors.  Every time average is
exact up to rounding: the window average of ||e^{sM} x||^2 over [0, T] is
x^dag G_T x with the window Gramian G_T (Van Loan 1978, by doubling), and
the space-time integrands are polynomials in t, integrated by
Gauss-Legendre on enough nodes to be exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from itertools import islice

import numpy as np

from .certify import _require_finite_positive, c_constants
from .lindblad import Analysis, real_norm2, sector_blocks
from .operators import Matrix, QuantumState, as_square_matrix, dag


def _expm(A: Matrix) -> Matrix:
    """scipy.linalg.expm, imported on the first call: importing scipy.linalg
    is about half of a command's start-up, and of the commands only
    validate exponentiates."""
    from scipy.linalg import expm
    return expm(A)


def _flow(M: Matrix, h: float, X: Matrix):
    """Yield e^{k h M} X for k = 0, 1, 2, ...; M and X may be stacks
    (..., n, n) and (..., n, k).

    One exponential e^{hM}, taken on the first step, advances every sample
    (Moler & Van Loan, SIAM Rev. 2003).
    """
    yield X
    E = _expm(h * M)
    while True:
        X = E @ X
        yield X


def window_gramian(M: Matrix, T: float) -> Matrix:
    """G_T = (1/T) * integral_0^T e^{sM^dag} e^{sM} ds, so that the window
    average of ||e^{sM} x||^2 over [0, T] is x^dag G_T x; for a stack
    (..., n, n) of matrices, the stack of their Gramians.

    One Van Loan block exponential on the step h = T / 2^k with h ||M||_1 <= 1
    gives G_h = E^dag F, E = e^{hM}; each doubling G <- G + E^dag G E, E <- E^2
    extends the window.  No block entry grows past e^{h ||M||}, and M needs
    no gap, unlike a Lyapunov solve.
    """
    n = M.shape[-1]
    k = max(0, math.ceil(math.log2(max(T * np.abs(M).sum(axis=-2).max(), 1.0))))
    h = T / 2.0**k
    block = np.zeros(M.shape[:-2] + (2 * n, 2 * n), dtype=M.dtype)
    block[..., :n, :n] = -dag(M)
    block[..., :n, n:] = np.eye(n)
    block[..., n:, n:] = M
    F = _expm(h * block)
    E = F[..., n:, n:]
    G = dag(E) @ F[..., :n, n:]
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
        """Every field but the three curves."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("times", "window_values", "pointwise_values")}


CERT_SLACK = 1e-6


def _require_samples(samples: int, least: int = 1, name: str = "samples") -> None:
    if not (isinstance(samples, (int, np.integer)) and not isinstance(samples, bool)
            and samples >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {samples!r}")


def time_avg_check(an: Analysis, X0, T: float, nu: float, h: float, samples: int,
                   prefactor: float) -> TimeAvgReport:
    """Check a decay certificate (nu, T, C_T) against the exact evolution at
    the times t_k = k h, k = 0 ... samples - 1.

    Windowed: avg_{[t,t+T]} ||X_s - <X>||^2  <=  e^{-nu t} * (t=0 window).
    Pointwise: ||X_t - <X>||^2 <= C_T e^{-nu t} ||X_0 - <X>||^2.
    Both with multiplicative slack CERT_SLACK; window averages come from
    the exact window Gramian.  The evolution, the Gramian and both norms are
    taken per sector and summed.
    """
    _require_finite_positive(T=T, nu=nu, h=h)
    _require_samples(samples)
    if not (math.isfinite(prefactor) and prefactor >= 1.0):
        raise ValueError(f"prefactor must be finite and >= 1, got {prefactor!r}")
    c0 = an.frame.coords(as_square_matrix(X0, an.state.dim))[1:]
    norm0 = float(np.vdot(c0, c0).real)
    ts = h * np.arange(samples)
    blocks = sector_blocks(an.Mr, an.sectors)
    Gs = [window_gramian(B, T) for B in blocks]
    # per stack of sectors, the coordinates as (count, size, 1) columns
    xs = [c0[S][..., None] for S in an.sectors]
    w0 = sum(float(np.vdot(x, G @ x).real) for x, G in zip(xs, Gs))
    windows, points = np.empty((2, samples))
    worst_w = worst_p = 0.0
    flows = zip(*(_flow(B, h, x) for B, x in zip(blocks, xs)))
    for i, (t, x) in enumerate(zip(ts, flows)):
        points[i] = sum(float(np.vdot(y, y).real) for y in x)
        windows[i] = w = sum(float(np.vdot(y, G @ y).real) for y, G in zip(x, Gs))
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
    window_ok = bool(worst_w <= 1.0 + CERT_SLACK)
    pointwise_ok = bool(worst_p <= 1.0 + CERT_SLACK)
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
    range_warning: str | None = None


def semigroup_norm_curve(an: Analysis, h: float, samples: int) -> NormCurve:
    """Operator norm of e^{tL} on the mean-zero subspace at the times
    t_k = k h, k = 1 ... samples, with a rate fit.

    The empirical rate is minus the least-squares slope of log ||e^{tL}||
    over the last half of the samples, where the leading eigenvalue
    dominates.  e^{tL} is block-diagonal on the sectors, so its norm is the
    largest over the stacks of sector propagators.
    """
    _require_finite_positive(h=h)
    _require_samples(samples, 3)  # two points in the fit window
    start = samples // 2
    ts = h * np.arange(1, samples + 1)
    blocks = sector_blocks(an.Mr, an.sectors)
    flows = [islice(_flow(B, h, np.broadcast_to(np.eye(B.shape[-1]), B.shape)),
                    1, samples + 1) for B in blocks]
    norms = np.array([max(real_norm2(E) for E in Es) for Es in zip(*flows)])
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
    return NormCurve(times=ts, norms=norms, empirical_rate=rate, range_warning=warning)


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
        return asdict(self)


def _random_mean_zero(rng: np.random.Generator, state: QuantumState,
                      shape: tuple[int, ...] = ()) -> Matrix:
    """Exactly Hermitian operators with tr(sigma A) = 0, of shape `shape` + (N, N).

    A stack draws the same numbers as one call per operator, in order.
    """
    N = state.dim
    Z = rng.standard_normal(shape + (2, N, N))
    re, im = Z[..., 0, :, :], Z[..., 1, :, :]
    # (B + B^dag) / 2 for B = re + i im, written in place
    A = np.empty(shape + (N, N), dtype=complex)
    np.add(re, np.swapaxes(re, -1, -2), out=A.real)
    np.subtract(im, np.swapaxes(im, -1, -2), out=A.imag)
    A /= 2.0
    idx = np.arange(N)
    A[..., idx, idx] -= np.einsum("ij,...ji->...", state.matrix, A).real[..., None]
    return A


def stp_verify(an: Analysis, T: float, beta: float, n_samples: int = 100,
               poly_degree: int = 3, seed: int = 0) -> StpReport:
    """Sample the space-time variance inequality on random polynomial paths.

    For X_t = sum_k t^k A_k with mean-zero Hermitian A_k, checks

        ||X - <X>||_{time x state}  <=  C1 ||(1 - Pi0) X||
                                        + C2 ||(beta - L^D)^{-1/2} (-d_t + L^H) X||

    where Pi0 projects onto the full dissipator kernel (constants included)
    and all norms average the weighted norm over [0, T]; the right side is
    read in the kernel split's eigenbasis V = [V0, Vp] with rates r_k.  The
    constants are the certificate constants of an.constants at (T, beta); a
    trivial restricted kernel uses their large-coupling limit.  The products
    with M_H and V run per sector of the split.  The integrands have
    degree 2 * poly_degree in t, so Gauss-Legendre on poly_degree + 1 nodes
    averages them exactly.  Refuses what an.constants refuses.
    """
    # beta > 0 makes (beta - L^D) invertible
    _require_finite_positive(T=T, beta=beta)
    _require_samples(n_samples, name="n_samples")
    _require_samples(poly_degree, 0, name="poly_degree")
    sc = an.constants
    C1, C2 = c_constants(sc, T, beta)
    split = an.split
    x, wts = np.polynomial.legendre.leggauss(poly_degree + 1)
    nodes = T * (x + 1.0) / 2.0
    wts = wts / 2.0  # average over [0, T]: the weights sum to 1
    powers = nodes[:, None] ** np.arange(poly_degree + 1)[None, :]
    dpowers = np.zeros_like(powers)
    for k in range(1, poly_degree + 1):
        dpowers[:, k] = k * nodes ** (k - 1)

    def root_avg(sq):
        """Per sample: sqrt of the node average of the squared norms `sq`."""
        return np.sqrt(np.maximum(sq.reshape(n_samples, len(wts)) @ wts, 0.0))

    # all samples at once: the draws are Hermitian, so their coordinates are
    # real; axes (sample, node, coordinate)
    rng = np.random.default_rng(seed)
    coeffs = an.frame.coords(
        _random_mean_zero(rng, an.state, (n_samples, poly_degree + 1)))
    X = powers @ coeffs
    Xdot = dpowers @ coeffs
    Xc = X.copy()
    Xc[:, :, 0] -= (X[:, :, 0] @ wts)[:, None]
    X = X.reshape(-1, X.shape[-1])
    Xdot = Xdot.reshape(X.shape)
    lhs = root_avg(np.einsum("sqi,sqi->sq", Xc, Xc))
    # the constants lie in ker(L^D): ||(1 - Pi0) x|| = ||Vp^T x[1:]|| and
    # ||(beta - L^D)^{-1/2} y||^2 = y_0^2 / beta + sum_k (V^T y[1:])_k^2 / (beta + r_k)
    # for y = L^H x - dx/dt; the traceless sums run sector by sector
    y0 = X @ an.M_H[0] - Xdot[:, 0]
    plus = np.zeros(len(X))
    dual = y0 * y0 / beta
    for S, V, w, ker, B in zip(split.sectors, split.vectors, split.values,
                               split.kernel(), sector_blocks(an.M_Hr, split.sectors)):
        # axes (sector, sample x node, coordinate)
        xs = X[:, 1 + S].transpose(1, 0, 2)
        ys = xs @ np.swapaxes(B, -1, -2) - Xdot[:, 1 + S].transpose(1, 0, 2)
        px, py = xs @ V, ys @ V
        plus += np.einsum("srk,sk->r", px * px, (~ker).astype(float))
        dual += np.einsum("srk,sk->r", py * py, 1.0 / (beta + np.clip(w, 0.0, None)))
    rhs = C1 * root_avg(plus) + C2 * root_avg(dual)
    ratio = lhs / np.maximum(rhs, 1e-300)
    # a NaN ratio fails
    return StpReport(passed=bool(np.all(ratio <= 1.0 + CERT_SLACK)),
                     worst_ratio=float(ratio.max()),
                     n_samples=n_samples, poly_degree=poly_degree,
                     T=float(T), beta=float(beta), seed=seed,
                     C1=float(C1), C2=float(C2), trivial_kernel=math.isinf(sc.s_H))
