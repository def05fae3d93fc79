"""Explicit hypocoercive decay certificates.

For a generator alpha * i[H,.] + L^D whose dissipator kernel is nontrivial
and not mixed into itself by the Hamiltonian, the certified rate is

    nu = lambda_D / (C1^2 + lambda_D C2^2),      C_T = e^{nu T},

with C1, C2 fully explicit functions of four structural constants: the
dissipation gap lambda_D on the complement of the kernel, the coupling
strength s_H of the Hamiltonian between kernel and complement, and the two
norms ||L^D|| and ||L^H Pi_+||.  The time-window length T is a free knob;
T = 3/s_H gives a closed form, and a scan plus golden-section refinement
locates the best T.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .lindblad import (Analysis, dag, max_column_norm, real_norm2, require_invariant,
                       sector_blocks)

ASSUMPTION_DEFECT_FACTOR = 1e-9
INJECTIVITY_TOL = 1e-10


def _require_finite_positive(**values: float) -> None:
    """Raise a ValueError naming the first value that is not finite and positive."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


@dataclass
class StructuralConstants:
    lambda_D: float
    s_H: float
    norm_LD: float
    norm_LH_plus: float

    @property
    def default_window(self) -> float:
        """3/s_H; for a trivial kernel (s_H = inf) 1/(2 lambda_D): nu T = 1/2."""
        return 1.0 / (2.0 * self.lambda_D) if math.isinf(self.s_H) else 3.0 / self.s_H


def _require_nontrivial_kernel(sc: StructuralConstants) -> None:
    """Refuse a trivial kernel, where the hypocoercive formulas mean nothing."""
    if math.isinf(sc.s_H):
        raise ValueError("dissipator kernel is trivial (coercive model): the spectral "
                         "gap itself is the rate; use certify_coercive")


@dataclass
class RateCertificate:
    T: float
    beta: float
    C1: float
    C2: float
    nu: float
    prefactor: float
    constants: StructuralConstants
    assumption_ok: bool
    assumption_defect: float
    simplified_nu: float | None = None

    def as_dict(self) -> dict:
        out = {
            "method": "hypocoercive",
            "T": self.T,
            "beta": self.beta,
            "C1": self.C1,
            "C2": self.C2,
            "nu": self.nu,
            "C_T": self.prefactor,
            "constants": asdict(self.constants),
            "assumption_ok": self.assumption_ok,
            "assumption_defect": self.assumption_defect,
        }
        if self.simplified_nu is not None:
            out["simplified_nu"] = self.simplified_nu
        return out


@dataclass
class CoerciveCertificate:
    """Decay guarantee for a generator that is already coercive.

    The dissipator alone has a positive gap on the whole traceless subspace,
    so the semigroup contracts at rate nu = lambda with prefactor 1; C_T is
    still reported so the same window checks apply.
    """

    nu: float
    T: float
    prefactor: float

    def as_dict(self) -> dict:
        return {
            "method": "coercive",
            "T": self.T,
            "nu": self.nu,
            "C_T": self.prefactor,
        }


def _kernel_blocks(an: Analysis):
    """(V0, Vp, B) for each stack of sectors with k >= 1 kernel vectors: the
    kernel split's eigenvectors on those sectors, kernel (count, size, k) and
    complement (count, size, size - k), and the blocks of M_H there.

    M_H is block-diagonal on the sectors, so V0^T M_H V0 and Vp^T M_H V0 on
    the whole space are block-diagonal with the blocks of these stacks.
    """
    split = an.split
    for S, V, ker in zip(split.sectors, split.vectors, split.kernel()):
        ks = ker.sum(axis=1)
        for k in np.unique(ks[ks > 0]):
            sel = ks == k
            yield V[sel][:, :, :k], V[sel][:, :, k:], sector_blocks(an.M_Hr, [S[sel]])[0]


def check_assumption(an: Analysis) -> tuple[bool, float]:
    """Nontrivial kernel and no coherent mixing inside it.

    defect = ||Pi0 M_H Pi0||, the largest over the sectors; ok iff dim h0 >= 1
    and the defect is below 1e-9 * ||M_H||.  The largest column norm of M_H
    is at most ||M_H||, so a defect below 1e-9 times it passes without the
    spectral norm.
    """
    MH = an.M_Hr
    if an.split.dim0 == 0:
        return False, 0.0
    defect = max(float(np.linalg.norm(dag(V0) @ B @ V0, 2, axis=(1, 2)).max())
                 for V0, _, B in _kernel_blocks(an))
    if defect < ASSUMPTION_DEFECT_FACTOR * max_column_norm(MH):
        return True, defect
    scale = max(max(real_norm2(B) for B in sector_blocks(MH, an.sectors)), 1e-30)
    return defect < ASSUMPTION_DEFECT_FACTOR * scale, defect


def structural_constants(an: Analysis) -> StructuralConstants:
    """(lambda_D, s_H, ||L^D||, ||L^H Pi_+||) for the certificate formulas.

    Read once per analysis as `an.constants`, which owns the certificate's
    preconditions, in this order: L^D is KMS-symmetric (an.split), sigma is
    invariant, L^D does not vanish on the traceless subspace and the
    Hamiltonian does not mix a nontrivial kernel into itself (an.assumption).
    A trivial kernel gives s_H = inf, lambda_D = rates[0], ||L^H Pi_+|| = ||M_H||.
    Otherwise s_H is the smallest singular value over the blocks of Vp^T M_H V0
    (0 from a sector with more kernel than complement, whose block cannot be
    injective) and ||L^H Pi_+|| the largest block norm of M_H Vp.
    """
    split = an.split  # first: it refuses an L^D that is not KMS-symmetric
    require_invariant(an)
    if split.dim_plus == 0:
        raise ValueError("dissipator vanishes on the traceless subspace")
    norm_LD = float(np.abs(split.rates).max())
    blocks = sector_blocks(an.M_Hr, split.sectors)
    if split.dim0 == 0:
        return StructuralConstants(lambda_D=float(split.rates[0]), s_H=math.inf,
                                   norm_LD=norm_LD,
                                   norm_LH_plus=max(real_norm2(B) for B in blocks))
    ok, defect = an.assumption
    if not ok:
        raise ValueError(f"Hamiltonian mixes the dissipator kernel into "
                         f"itself (defect {defect:.3e})")
    lambda_D = float(split.rates[split.dim0])
    s_H = min(0.0 if V0.shape[-1] > Vp.shape[-1] else
              float(np.linalg.svd(dag(Vp) @ (B @ V0), compute_uv=False)[:, -1].min())
              for V0, Vp, B in _kernel_blocks(an))
    if s_H < INJECTIVITY_TOL:
        raise ValueError(
            "coherent coupling does not move the dissipator kernel "
            f"(s_H = {s_H:.3e}); the model is not primitive under this split")
    # Vp^dag is a co-isometry onto the complement: ||MH Vp|| = ||MH Pi_+||;
    # zeroing the kernel columns of MH V leaves the norm of MH Vp
    norm_LH_plus = max(real_norm2((B @ V) * ~ker[:, None, :]) for B, V, ker in
                       zip(blocks, split.vectors, split.kernel()))
    return StructuralConstants(lambda_D=lambda_D, s_H=s_H,
                               norm_LD=norm_LD, norm_LH_plus=norm_LH_plus)


def c_constants(sc: StructuralConstants, T: float,
                beta: float = 0.0) -> tuple[float, float]:
    """The two explicit certificate constants at window length T.

    C1 = sqrt2 + 14 + 12 sqrt5/(s_H T) + 24/(s_H T)^2
         + sqrt2 * max{6/(s_H^2 T) + 3/s_H, T/pi} * ||L^H Pi_+||
    C2 = sqrt2 * sqrt(beta + ||L^D||)
         * (max{6/(s_H^2 T) + 3/s_H, T/pi} + max{1/s_H, T/pi})

    s_H = inf gives the constants for a trivial dissipator kernel: with
    nothing to couple out of, every 1/s_H term drops and only the
    time-Poincare branch T/pi survives.  C1 >= 1 still covers the state
    variance and C2 >= sqrt(beta) T/pi the time variance of the mean.
    """
    _require_finite_positive(T=T)
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    sH = sc.s_H
    m1 = max(6.0 / (sH**2 * T) + 3.0 / sH, T / math.pi)
    m2 = max(1.0 / sH, T / math.pi)
    C1 = (math.sqrt(2.0) + 14.0 + 12.0 * math.sqrt(5.0) / (sH * T)
          + 24.0 / (sH * T) ** 2 + math.sqrt(2.0) * m1 * sc.norm_LH_plus)
    C2 = math.sqrt(2.0) * math.sqrt(beta + sc.norm_LD) * (m1 + m2)
    return float(C1), float(C2)


def rate_from_constants(sc: StructuralConstants, T: float) -> float:
    C1, C2 = c_constants(sc, T, 0.0)
    return sc.lambda_D / (C1**2 + sc.lambda_D * C2**2)


def simplified_rate(sc: StructuralConstants) -> float:
    """Closed form at T = 3/s_H using the slightly loosened C1 <= 28 + ..."""
    _require_nontrivial_kernel(sc)
    num = sc.lambda_D * sc.s_H**2
    den = (28.0 * sc.s_H + 5.0 * math.sqrt(2.0) * sc.norm_LH_plus) ** 2 \
        + 72.0 * sc.lambda_D * sc.norm_LD
    return num / den


def certify(an: Analysis, T: float | None = None) -> RateCertificate:
    """Emit a decay certificate (nu, T, C_T) for the generator of `an`.

    Refuses what an.constants refuses and coercive models.
    """
    sc = an.constants
    _require_nontrivial_kernel(sc)
    T = sc.default_window if T is None else float(T)
    C1, C2 = c_constants(sc, T, 0.0)
    nu = sc.lambda_D / (C1**2 + sc.lambda_D * C2**2)
    simplified = None
    if abs(T - sc.default_window) <= 1e-12 * T:
        simplified = simplified_rate(sc)
    return RateCertificate(T=T, beta=0.0, C1=C1, C2=C2, nu=float(nu),
                           prefactor=float(math.exp(nu * T)), constants=sc,
                           assumption_ok=True, assumption_defect=an.assumption[1],
                           simplified_nu=simplified)


def certify_coercive(an: Analysis) -> CoerciveCertificate:
    """Decay certificate for a KMS-symmetric dissipator with trivial kernel.

    nu equals the dissipator's gap on the traceless subspace (its smallest
    rate); any window length T works, and the default T = 1/(2 nu) keeps
    nu * T = 1/2.  Refuses what an.constants refuses and a nontrivial kernel.
    """
    sc = an.constants
    if not math.isinf(sc.s_H):
        raise ValueError("generator has a nontrivial kernel; it is not coercive")
    T = sc.default_window
    return CoerciveCertificate(sc.lambda_D, T, float(math.exp(sc.lambda_D * T)))


def optimize_T(sc: StructuralConstants) -> tuple[float, float]:
    """Best window length: a 60-point log-grid scan of [1e-2, 1e2] / s_H
    plus 40 golden-section steps.

    The returned rate is never below the T = 3/s_H value.
    """
    _require_nontrivial_kernel(sc)
    grid = np.logspace(math.log10(1e-2 / sc.s_H), math.log10(1e2 / sc.s_H), 60)
    vals = np.array([rate_from_constants(sc, T) for T in grid])
    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = rate_from_constants(sc, x1)
    f2 = rate_from_constants(sc, x2)
    for _ in range(40):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = rate_from_constants(sc, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = rate_from_constants(sc, x1)
    candidates = [(float(grid[i]), float(vals[i])),
                  (float(x1), float(f1)), (float(x2), float(f2))]
    t_ref = sc.default_window
    candidates.append((t_ref, rate_from_constants(sc, t_ref)))
    T_star, nu_star = max(candidates, key=lambda p: p[1])
    return T_star, nu_star


@dataclass
class ScalingReport:
    gamma_star: float
    nu_gamma_star: float
    alpha_limit: float
    alphas: list[float]
    alpha_bounds: list[float]
    gammas: list[float]
    gamma_bounds: list[float]


def alpha_gamma_scaling(sc: StructuralConstants) -> ScalingReport:
    """Rate bounds under coupling rescaling, with the constants at T = 3/s_H.

    Scaling the dissipator by gamma gives nu >= gamma lambda_D /
    (C1^2 + gamma^2 lambda_D C2^2), maximized at gamma* = C1/(sqrt(lambda_D) C2).
    Scaling the Hamiltonian by alpha gives nu >= lambda_D /
    (C1^2 + lambda_D C2^2 / alpha^2), increasing to lambda_D/C1^2.  Both
    are tabulated on 20 log-spaced points: alpha from 0.1 to 1e4, gamma over
    two decades either side of gamma*.
    """
    _require_nontrivial_kernel(sc)
    C1, C2 = c_constants(sc, sc.default_window, 0.0)
    lam = sc.lambda_D
    gamma_star = C1 / (math.sqrt(lam) * C2)

    def nu_gamma(g: float) -> float:
        return g * lam / (C1**2 + g**2 * lam * C2**2)

    def nu_alpha(a: float) -> float:
        return lam / (C1**2 + lam * C2**2 / a**2)

    alphas = np.logspace(-1, 4, 20).tolist()
    gammas = np.logspace(math.log10(gamma_star) - 2,
                         math.log10(gamma_star) + 2, 20).tolist()
    return ScalingReport(
        gamma_star=float(gamma_star),
        nu_gamma_star=float(nu_gamma(gamma_star)),
        alpha_limit=float(lam / C1**2),
        alphas=alphas,
        alpha_bounds=[float(nu_alpha(a)) for a in alphas],
        gammas=gammas,
        gamma_bounds=[float(nu_gamma(g)) for g in gammas],
    )


@dataclass
class DmsReport:
    eta: float
    C_M: float
    epsilon: float
    nu_dms: float
    C_dms: float


def dms_compare(sc: StructuralConstants) -> DmsReport:
    """Rate and prefactor of the auxiliary-functional comparison method.

    Uses the bounded-modification constant C_M(eta) <= (||L^H Pi_+|| +
    ||L^D||)/(2 sqrt(eta)) at eta = s_H^2, which balances the two terms.
    """
    _require_nontrivial_kernel(sc)
    eta = sc.s_H**2
    C_M = (sc.norm_LH_plus + sc.norm_LD) / (2.0 * math.sqrt(eta))
    eps = 0.5 * min(sc.lambda_D * sc.s_H**2 / ((eta + sc.s_H**2) * (1.0 + C_M) ** 2),
                    1.0)
    nu_dms = min(sc.lambda_D / (4.0 * (1.0 + eps)),
                 eps * sc.s_H**2 / (3.0 * (1.0 + eps) * (eta + sc.s_H**2)))
    C_dms = math.sqrt((1.0 + eps) / (1.0 - eps))
    return DmsReport(eta=float(eta), C_M=float(C_M), epsilon=float(eps),
                     nu_dms=float(nu_dms), C_dms=float(C_dms))
