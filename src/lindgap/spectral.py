"""Mixing diagnostics: gaps, Bohr decomposition, large-coupling limits.

The spectral gap of a generator is read off the restricted matrix in the
weighted frame.  For a commuting Hamiltonian the traceless subspace splits
into Bohr-frequency blocks; the minimal dissipation energy per block gives
the exact strong-coupling limit of the gap, and the blockwise data also
yields the finite-rank commutator condition (hypocoercivity index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lindblad import Lindbladian, generator_matrix, hermiticity_defect, require_invariant
from .operators import (
    KmsFrame,
    Matrix,
    QuantumState,
    SuperOperator,
    dag,
    kms_frame,
    require_hermitian,
)

BOHR_CLUSTER_FACTOR = 1e-7
INDEX_POSITIVITY_FACTOR = 1e-9
GAP_ATTAIN_RTOL = 1e-9


def hamiltonian_superop(H, frame: KmsFrame, restricted: bool = True) -> SuperOperator:
    """Matrix of X -> i[H, X] in the given frame."""
    H = require_hermitian(H, what="H")
    G = Lindbladian(H.shape[0], H, []).unit_matrix(frame.state.eigenvectors)
    return frame.superop(G, restricted=restricted)


@dataclass
class GapReport:
    spectral_gap: float
    attaining: list[complex]
    singular_gap: float
    symmetrized_gap: float
    hypoco_index: int | None = None

    def relax_lower(self, eps: float) -> float:
        """Lower bound log(1/eps)/gap on the eps-relaxation time."""
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.spectral_gap <= 0:
            return float("inf")
        return float(np.log(1.0 / eps) / self.spectral_gap)


def gap_from_matrix(M: Matrix) -> tuple[float, list[complex], float, float]:
    """(gap, attaining eigenvalues, singular gap, symmetrized gap) of a restricted matrix."""
    eigs = np.linalg.eigvals(M)
    real_decay = -eigs.real
    lam = float(real_decay.min())
    scale = max(np.abs(eigs).max(), 1.0)
    attaining = [complex(z) for z in eigs[real_decay < lam + GAP_ATTAIN_RTOL * scale]]
    sv = np.linalg.svd(M, compute_uv=False)
    s = float(sv[-1])
    sym = float(np.linalg.eigvalsh(-(M + dag(M)) / 2.0)[0])
    return lam, attaining, s, sym


def spectral_gap(L: Lindbladian, state: QuantumState,
                 frame: KmsFrame | None = None) -> GapReport:
    """Gap diagnostics of L restricted to the traceless subspace."""
    require_invariant(L, state)
    if frame is None:
        frame = kms_frame(state)
    M = generator_matrix(L, frame, restricted=True).matrix
    lam, attaining, s, sym = gap_from_matrix(M)
    return GapReport(spectral_gap=lam, attaining=attaining,
                     singular_gap=s, symmetrized_gap=sym)


@dataclass
class BohrBlock:
    """One Bohr-frequency block of the traceless subspace.

    basis columns are restricted-frame coordinates; lambda_nu and the
    minimizer basis are filled in by lambda_nu_table.
    """

    frequency: float
    basis: Matrix
    frame: KmsFrame
    lambda_nu: float | None = None
    minimizers: Matrix | None = None

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def bohr_decompose(H, frame: KmsFrame) -> list[BohrBlock]:
    """Frequency blocks of X -> [H, X] on the traceless subspace.

    Requires [H, sigma] = 0 so that the commutator map is KMS anti-Hermitian
    after multiplication by i.  Frequencies within 1e-7 * ||H|| are merged.
    """
    H = require_hermitian(H, what="H")
    sigma = frame.state.matrix
    hnorm = np.linalg.norm(H, 2)
    if np.linalg.norm(H @ sigma - sigma @ H) > 1e-10 * max(hnorm, 1.0):
        raise ValueError("H does not commute with sigma")
    MH = hamiltonian_superop(H, frame, restricted=True).matrix
    S = -1j * MH
    defect = hermiticity_defect(S)
    if defect > 1e-8:
        raise ValueError(f"commutator matrix is not anti-Hermitian (defect {defect:.3e})")
    w, V = np.linalg.eigh((S + dag(S)) / 2.0)
    tol = max(BOHR_CLUSTER_FACTOR * hnorm, 1e-14)
    blocks: list[BohrBlock] = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > tol:
            freq = float(w[start:k].mean())
            if abs(freq) < tol:
                freq = 0.0
            blocks.append(BohrBlock(frequency=freq, basis=V[:, start:k].copy(),
                                    frame=frame))
            start = k
    total = sum(b.dim for b in blocks)
    if total != MH.shape[0]:
        raise ValueError("Bohr blocks do not partition the traceless subspace")
    return blocks


def lambda_nu_table(LD: Lindbladian, blocks: list[BohrBlock]) -> list[BohrBlock]:
    """Fill each block's minimal dissipation energy and its minimizers."""
    if not blocks:
        raise ValueError("no blocks given")
    frame = blocks[0].frame
    M = generator_matrix(LD, frame, restricted=True).matrix
    defect = hermiticity_defect(M)
    if defect > 1e-8:
        raise ValueError(f"dissipator is not Hermitian in the frame (defect {defect:.3e})")
    MD = (M + dag(M)) / 2.0
    for b in blocks:
        B = b.basis
        ortho = np.linalg.norm(dag(B) @ B - np.eye(B.shape[1]))
        if ortho > 1e-10:
            raise ValueError("block basis is not orthonormal")
        comp = dag(B) @ (-MD) @ B
        w, V = np.linalg.eigh((comp + dag(comp)) / 2.0)
        b.lambda_nu = float(w[0])
        scale = max(abs(w[-1]), 1.0)
        take = w < w[0] + 1e-9 * scale
        b.minimizers = B @ V[:, take]
    return blocks


def large_alpha_limit(H, LD: Lindbladian, state: QuantumState,
                      frame: KmsFrame | None = None) -> float:
    """Strong-coherent-coupling limit of the gap: the smallest blockwise energy."""
    if frame is None:
        frame = kms_frame(state)
    blocks = lambda_nu_table(LD, bohr_decompose(H, frame))
    return min(b.lambda_nu for b in blocks)


@dataclass
class GapCurve:
    alphas: list[float]
    gaps: list[float]
    singular_gaps: list[float]
    limit: float | None
    final_deviation: float | None


def gap_curve(H, LD: Lindbladian, state: QuantumState, alphas,
              frame: KmsFrame | None = None, limit: float | None = None) -> GapCurve:
    """Gap of alpha * i[H,.] + L^D per coupling value, with the limit if available."""
    if frame is None:
        frame = kms_frame(state)
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("empty coupling grid")
    H = require_hermitian(H, what="H")
    MD = generator_matrix(LD, frame, restricted=True).matrix
    MH = hamiltonian_superop(H, frame, restricted=True).matrix
    if limit is None:
        sigma = state.matrix
        if np.linalg.norm(H @ sigma - sigma @ H) <= 1e-10 * max(np.linalg.norm(H, 2), 1.0):
            try:
                limit = large_alpha_limit(H, LD, state, frame)
            except ValueError:
                limit = None
    gaps, sgaps = [], []
    for a in alphas:
        lam, _, s, _ = gap_from_matrix(a * MH + MD)
        gaps.append(lam)
        sgaps.append(s)
    dev = None if limit is None else float(abs(gaps[-1] - limit))
    return GapCurve(alphas=alphas, gaps=gaps, singular_gaps=sgaps,
                    limit=limit, final_deviation=dev)


def hypoco_index(H, LD: Lindbladian, state: QuantumState, J_max: int = 8,
                 frame: KmsFrame | None = None) -> int | None:
    """Smallest J with sum_{j<=J} (iM_H)^j (-M_D) (iM_H)^j positive definite.

    Each term is PSD because iM_H is Hermitian for commuting H, so the sum
    only grows; returns None if no J <= J_max works.
    """
    if frame is None:
        frame = kms_frame(state)
    MH = hamiltonian_superop(H, frame, restricted=True).matrix
    MD = generator_matrix(LD, frame, restricted=True).matrix
    negD = -(MD + dag(MD)) / 2.0
    P = 1j * MH
    P = (P + dag(P)) / 2.0
    term = negD.copy()
    total = np.zeros_like(negD)
    for J in range(J_max + 1):
        total = total + term
        w = np.linalg.eigvalsh((total + dag(total)) / 2.0)
        scale = max(abs(w).max(), 1e-30)
        if w[0] > INDEX_POSITIVITY_FACTOR * scale:
            return J
        term = P @ term @ P
    return None


def singular_relaxation_check(nu: float, T: float, L: Lindbladian,
                              state: QuantumState,
                              frame: KmsFrame | None = None) -> tuple[bool, float, float]:
    """Check 1/nu + T >= 1/s - 1e-9 for a certified average-decay pair.

    Returns (ok, lhs, singular_gap).
    """
    if frame is None:
        frame = kms_frame(state)
    M = generator_matrix(L, frame, restricted=True).matrix
    s = float(np.linalg.svd(M, compute_uv=False)[-1])
    if nu <= 0:
        return True, float("inf"), s
    lhs = 1.0 / nu + T
    if s <= 0:
        return True, lhs, s
    return bool(lhs >= 1.0 / s - 1e-9), lhs, s
