"""Mixing diagnostics: gaps, Bohr decomposition, large-coupling limits.

The spectral gap of a generator is read off the restricted matrix in the
weighted frame, solved on each of the analysis's sectors (the diagonal
blocks on which the matrix splits exactly) and combined.  For a commuting
Hamiltonian the frame is a joint eigenbasis of sigma and H, so the
traceless subspace splits into Bohr-frequency blocks read off the frame's
coordinates with no eigensolve; the minimal dissipation energy per block
gives the exact strong-coupling limit of the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import _require_finite_positive
from .lindblad import (Analysis, require_invariant, require_kms_symmetric,
                       sector_singular_gap)
from .operators import Matrix

BOHR_CLUSTER_FACTOR = 1e-7


def gap_from_matrix(blocks: list[Matrix]) -> float:
    """Gap of a block-diagonal restricted matrix, -max Re(eigenvalue), from
    its sector stacks, as Analysis.blocks gives them ([M[None]]: all of M)."""
    return float(-max(np.linalg.eigvals(B).real.max() for B in blocks))


def spectral_gap(an: Analysis) -> float:
    """Spectral gap of L restricted to the traceless subspace; the singular
    gap is an.singular_gap."""
    require_invariant(an)
    return gap_from_matrix(an.blocks())


@dataclass
class BohrBlock:
    """One Bohr-frequency block of the traceless subspace: its frequency, its
    dimension and lambda_nu, the least energy of -L^D compressed to it."""

    frequency: float
    dim: int
    lambda_nu: float


def bohr_decompose(an: Analysis) -> list[BohrBlock]:
    """Frequency blocks of X -> [H, X] on the traceless subspace, by formula,
    in ascending frequency, each with its lambda_nu.

    Requires [H, sigma] = 0, so that the analysis's frame sits on a joint
    eigenbasis with energies E: the diagonal coordinates have frequency 0,
    and frame pair (a, b), a < b, with coordinates s and t gives the unit
    (s - i t)/sqrt2 = |a><b| at E_a - E_b and (s + i t)/sqrt2 at E_b - E_a.
    Frequencies merge within 1e-7 (E.max() - E.min()), and within
    1e-12 max|E|, the rounding of a difference of energies; with no
    absolute floor, so a model in small units keeps its blocks.

    lambda_nu compresses A, the negated symmetric part of M_Dr, taken per
    block from the view M_Dr: A[r, c] = -(M_Dr[r, c] + M_Dr[c, r]^T) / 2.
    L^D must be KMS-symmetric.  The frequencies and the cuts are mirrored
    about 0, so only the zero block holds both units of a pair:
    it compresses to A on its diagonal, s and t coordinates.  A block at
    w != 0 holds one unit (s - i g t)/sqrt2 per pair, g = +-1, and
    compresses to (A_ss + g g^T o A_tt + i (g o A_ts - g^T o A_st)) / 2.
    """
    E = an.energies
    if E is None:
        raise ValueError("H does not commute with sigma")
    N = an.frame.dim
    r, c = an.frame._pairs
    m = len(r)
    # entries: the N - 1 diagonal coordinates, then pair p at +om[p] (entry
    # N - 1 + p) and at -om[p] (entry N - 1 + m + p); entry k is also the
    # restricted position of the coordinate it reads: diagonal k, s_p, t_p
    om = E[r] - E[c]
    freqs = np.concatenate([np.zeros(N - 1), om, -om])
    order = np.argsort(freqs, kind="stable")
    tol = max(BOHR_CLUSTER_FACTOR * np.ptp(E), 1e-12 * np.abs(E).max())
    cuts = np.flatnonzero(np.diff(freqs[order]) > tol) + 1
    require_kms_symmetric(an)
    D = an.M_Dr
    idxs = np.split(order, cuts)
    means = np.array([freqs[idx].mean() for idx in idxs])
    zero = np.abs(means) <= tol  # tol = 0 when H = 0: all of it one block at 0
    sizes = np.array([len(idx) for idx in idxs])
    lam = np.empty(len(idxs))

    def sub(rows, cols):  # A[rows[k]][:, cols[k]] for each k of a stack
        return -(D[rows[:, :, None], cols[:, None, :]]
                 + D[cols[:, None, :], rows[:, :, None]]) / 2.0

    # one stacked eigvalsh per kind of block (zero frequency or not) and size
    for at_zero in (True, False):
        for size in np.unique(sizes[zero == at_zero]):
            which = np.flatnonzero((zero == at_zero) & (sizes == size))
            idx = np.array([idxs[k] for k in which])
            if at_zero:
                C = sub(idx, idx)
            else:
                s = N - 1 + (idx - (N - 1)) % m
                t = s + m
                g = np.where(idx < N - 1 + m, 1.0, -1.0)
                C = 0.5 * (sub(s, s) + g[:, :, None] * g[:, None, :] * sub(t, t)
                           + 1j * (g[:, :, None] * sub(t, s) - g[:, None, :] * sub(s, t)))
            lam[which] = np.linalg.eigvalsh(C)[:, 0]
    return [BohrBlock(frequency=0.0 if z else float(f), dim=int(d), lambda_nu=float(v))
            for f, z, d, v in zip(means, zero, sizes, lam)]


def large_alpha_limit(an: Analysis) -> float:
    """Strong-coherent-coupling limit of the gap: the smallest blockwise energy."""
    return min(b.lambda_nu for b in bohr_decompose(an))


@dataclass
class GapCurve:
    alphas: list[float]
    gaps: list[float]
    singular_gaps: list[float]
    limit: float | None
    final_deviation: float | None


def gap_curve(an: Analysis, alphas) -> GapCurve:
    """Gap of alpha * i[H,.] + L^D per coupling value, with the limit if available.

    H is an.H, so each value multiplies the generator's own alpha; each
    value's solves read the sector stacks an.blocks(alpha).  Refuses a sigma
    that L does not leave invariant."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("empty coupling grid")
    # no limit unless [H, sigma] = 0 and L^D is KMS-symmetric: each raises a
    # ValueError; a failed eigensolve is a numerical failure, not a missing limit
    try:
        limit = large_alpha_limit(an)
    except np.linalg.LinAlgError:
        raise
    except ValueError:
        limit = None
    require_invariant(an)
    gaps, sgaps = [], []
    for a in alphas:
        blocks = an.blocks(a)
        gaps.append(gap_from_matrix(blocks))
        sgaps.append(sector_singular_gap(blocks))
    dev = None if limit is None else float(abs(gaps[-1] - limit))
    return GapCurve(alphas=alphas, gaps=gaps, singular_gaps=sgaps,
                    limit=limit, final_deviation=dev)


def singular_relaxation_check(an: Analysis, nu: float,
                              T: float) -> tuple[bool, float, float]:
    """Check 1/nu + T >= (1 - 1e-9)/s for a certified average-decay pair.

    Returns (ok, lhs, singular_gap).  nu must be finite and positive and T
    finite and nonnegative; a singular gap s = 0 fails, as 1/s is infinite.
    """
    _require_finite_positive(nu=nu)
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and nonnegative, got {T!r}")
    s = an.singular_gap
    lhs = 1.0 / nu + T
    return bool(s > 0 and lhs >= (1.0 - 1e-9) / s), lhs, s
