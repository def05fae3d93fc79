"""Mixing diagnostics: gaps, Bohr decomposition, large-coupling limits.

The spectral gap of a generator is read off the restricted matrix in the
weighted frame.  For a commuting Hamiltonian the traceless subspace splits
into Bohr-frequency blocks; the minimal dissipation energy per block gives
the exact strong-coupling limit of the gap, and the blockwise data also
yields the finite-rank commutator condition (hypocoercivity index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import Analysis, real_norm2, require_invariant
from .operators import Matrix, dag

BOHR_CLUSTER_FACTOR = 1e-7
INDEX_POSITIVITY_FACTOR = 1e-9
GAP_ATTAIN_RTOL = 1e-9


@dataclass
class GapReport:
    spectral_gap: float
    attaining: list[complex]
    singular_gap: float
    symmetrized_gap: float

    def relax_lower(self, eps: float) -> float:
        """Lower bound log(1/eps)/gap on the eps-relaxation time."""
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.spectral_gap <= 0:
            return float("inf")
        return float(np.log(1.0 / eps) / self.spectral_gap)


def gap_from_matrix(M: Matrix) -> tuple[float, list[complex]]:
    """(gap, attaining eigenvalues) of a restricted matrix."""
    eigs = np.linalg.eigvals(M)
    real_decay = -eigs.real
    lam = float(real_decay.min())
    scale = max(np.abs(eigs).max(), 1.0)
    attaining = [complex(z) for z in eigs[real_decay < lam + GAP_ATTAIN_RTOL * scale]]
    return lam, attaining


def spectral_gap(an: Analysis) -> GapReport:
    """Gap diagnostics of L restricted to the traceless subspace."""
    require_invariant(an.L, an.state)
    lam, attaining = gap_from_matrix(an.Mr)
    sym = float(np.linalg.eigvalsh(-(an.Mr + dag(an.Mr)) / 2.0)[0])
    return GapReport(spectral_gap=lam, attaining=attaining,
                     singular_gap=an.singular_gap, symmetrized_gap=sym)


@dataclass
class BohrBlock:
    """One Bohr-frequency block of the traceless subspace.

    basis columns are restricted-frame coordinates; lambda_nu is filled in by
    lambda_nu_table.
    """

    frequency: float
    basis: Matrix
    lambda_nu: float | None = None

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def bohr_decompose(an: Analysis) -> list[BohrBlock]:
    """Frequency blocks of X -> [H, X] on the traceless subspace.

    Requires [H, sigma] = 0 so that the commutator map is KMS anti-Hermitian
    after multiplication by i.  Frequencies within 1e-7 * ||H|| are merged.
    """
    H = an.H
    sigma = an.state.matrix
    hnorm = np.linalg.norm(H, 2)
    if np.linalg.norm(H @ sigma - sigma @ H) > 1e-10 * max(hnorm, 1.0):
        raise ValueError("H does not commute with sigma")
    MH = an.M_Hr
    # MH is real: ||MH + MH^T|| / ||MH|| is the Hermiticity defect of -i MH
    scale = real_norm2(MH)
    defect = real_norm2(MH + MH.T) / scale if scale >= 1e-30 else 0.0
    if defect > 1e-8:
        raise ValueError(f"commutator matrix is not anti-Hermitian (defect {defect:.3e})")
    S = -1j * MH
    w, V = np.linalg.eigh((S + dag(S)) / 2.0)
    tol = max(BOHR_CLUSTER_FACTOR * hnorm, 1e-14)
    blocks: list[BohrBlock] = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > tol:
            freq = float(w[start:k].mean())
            if abs(freq) < tol:
                freq = 0.0
            blocks.append(BohrBlock(frequency=freq, basis=V[:, start:k].copy()))
            start = k
    total = sum(b.dim for b in blocks)
    if total != MH.shape[0]:
        raise ValueError("Bohr blocks do not partition the traceless subspace")
    return blocks


def lambda_nu_table(an: Analysis, blocks: list[BohrBlock]) -> list[BohrBlock]:
    """Fill each block's minimal dissipation energy."""
    if not blocks:
        raise ValueError("no blocks given")
    # the block bases are complex: cast -M_D once, not once per block
    negMD = (-an.M_D_sym[1:, 1:]).astype(complex)
    for b in blocks:
        B = b.basis
        ortho = np.linalg.norm(dag(B) @ B - np.eye(B.shape[1]))
        if ortho > 1e-10:
            raise ValueError("block basis is not orthonormal")
        comp = dag(B) @ negMD @ B
        b.lambda_nu = float(np.linalg.eigvalsh((comp + dag(comp)) / 2.0)[0])
    return blocks


def large_alpha_limit(an: Analysis) -> float:
    """Strong-coherent-coupling limit of the gap: the smallest blockwise energy."""
    blocks = lambda_nu_table(an, bohr_decompose(an))
    return min(b.lambda_nu for b in blocks)


@dataclass
class GapCurve:
    alphas: list[float]
    gaps: list[float]
    singular_gaps: list[float]
    limit: float | None
    final_deviation: float | None


def gap_curve(an: Analysis, alphas) -> GapCurve:
    """Gap of alpha * i[H,.] + L^D per coupling value, with the limit if available."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("empty coupling grid")
    try:  # no limit unless [H, sigma] = 0: bohr_decompose raises
        limit = large_alpha_limit(an)
    except ValueError:
        limit = None
    gaps, sgaps = [], []
    for a in alphas:
        Ma = a * an.M_Hr + an.M_Dr
        gaps.append(gap_from_matrix(Ma)[0])
        sgaps.append(float(np.linalg.svd(Ma, compute_uv=False)[-1]))
    dev = None if limit is None else float(abs(gaps[-1] - limit))
    return GapCurve(alphas=alphas, gaps=gaps, singular_gaps=sgaps,
                    limit=limit, final_deviation=dev)


def hypoco_index(an: Analysis, J_max: int = 8) -> int | None:
    """Smallest J with sum_{j<=J} (iM_H)^j (-M_D) (iM_H)^j positive definite.

    Each term is PSD because iM_H is Hermitian for commuting H, so the sum
    only grows; returns None if no J <= J_max works.  M_H is real
    antisymmetric, iM_H = iA with A = (M_H - M_H^T)/2, and each step
    P term P = -A term A stays real.
    """
    MD = an.M_Dr
    negD = -(MD + MD.T) / 2.0
    A = (an.M_Hr - an.M_Hr.T) / 2.0
    term = negD.copy()
    total = np.zeros_like(negD)
    for J in range(J_max + 1):
        total = total + term
        w = np.linalg.eigvalsh((total + total.T) / 2.0)
        scale = max(abs(w).max(), 1e-30)
        if w[0] > INDEX_POSITIVITY_FACTOR * scale:
            return J
        term = -(A @ term @ A)
    return None


def singular_relaxation_check(an: Analysis, nu: float,
                              T: float) -> tuple[bool, float, float]:
    """Check 1/nu + T >= 1/s - 1e-9 for a certified average-decay pair.

    Returns (ok, lhs, singular_gap).
    """
    s = an.singular_gap
    if nu <= 0:
        return True, float("inf"), s
    lhs = 1.0 / nu + T
    if s <= 0:
        return True, lhs, s
    return bool(lhs >= 1.0 / s - 1e-9), lhs, s
