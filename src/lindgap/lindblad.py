"""Lindblad generators, detailed-balance diagnostics, and kernel splittings.

Generators are kept in Heisenberg form

    L(X) = i alpha [H, X] + sum_j w_j (L_j^dag X L_j - 1/2 {L_j^dag L_j, X})

and analyzed through their real matrices in the KMS frame: KMS detailed
balance with respect to sigma is symmetry of that matrix, kernels are zero
eigenspaces, and the generator is primitive when its matrix has a
one-dimensional kernel.

When H commutes with sigma, an Analysis lays its frame on a joint
eigenbasis of the two, so that i[H, .] is diagonal on the matrix units
(frequency E_a - E_b on |a><b|) and its frame matrix is a formula: a 2 x 2
rotation on the coordinates of each pair.  The weak symmetries of the model
then leave the matrices block-diagonal up to a permutation (Buca & Prosen,
New J. Phys. 14, 073007, 2012); `sector_partition` finds those blocks from
the support of the matrices, and every dense eigen- and singular-value
solve of the generator, its dissipator and the kernel split runs sector by
sector, same-size sectors stacked into one call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .operators import (
    KmsFrame,
    Matrix,
    QuantumState,
    as_square_matrix,
    dag,
    require_hermitian,
    vec,
)

DB_DEFECT_TOL = 1e-8
KERNEL_TOL_FACTOR = 1e-9
COMMUTANT_SV_FACTOR = 1e-9
INVARIANCE_FLAG_FACTOR = 1e-9
INVARIANCE_REFUSE_FACTOR = 1e-6
COMMUTE_TOL = 1e-10
JOINT_BASIS_TOL = 1e-12
SECTOR_TOL = 1e-12


@dataclass
class Lindbladian:
    """Heisenberg-picture generator with a tunable coherent coupling alpha."""

    dim: int
    hamiltonian: Matrix
    jumps: list[tuple[float, Matrix]]
    alpha: float = 1.0

    def apply(self, X) -> Matrix:
        X = as_square_matrix(X, self.dim)
        H = self.hamiltonian
        out = 1j * self.alpha * (H @ X - X @ H)
        for w, L in self.jumps:
            Ld = dag(L)
            LdL = Ld @ L
            out += w * (Ld @ X @ L - 0.5 * (LdL @ X + X @ LdL))
        return out

    def unit_matrix(self, basis: Matrix | None = None) -> Matrix:
        """Row-major G with vec(L(X)) = G vec(X) on the units of `basis` (default: standard):

        G = i alpha (H x 1 - 1 x H^T) + sum_j w_j (L_j^dag x L_j^T - 1/2 L_j^dag L_j x 1
                                                   - 1/2 1 x (L_j^dag L_j)^T),  x = kron.
        """
        N = self.dim
        H = self.hamiltonian
        w = np.array([w for w, _ in self.jumps], dtype=float)
        Ls = np.array([L for _, L in self.jumps], dtype=complex).reshape(-1, N, N)
        m = len(Ls)
        if basis is not None:
            H = dag(basis) @ H @ basis
            # (B^dag L_m) B: one stacked product, then one over the stacked rows
            Ls = ((dag(basis) @ Ls).reshape(m * N, N) @ basis).reshape(m, N, N)
        Lw = w[:, None, None] * Ls.conj()  # [m, j, i] = w_m conj(L_m[j, i])
        # sum_m w_m L_m^dag L_m, one product over the stacked rows (m, j)
        damping = Lw.reshape(m * N, N).T @ Ls.reshape(m * N, N)
        # the jump sum, entry [(i, k), (j, l)] = sum_m w_m conj(L_m[j, i]) L_m[l, k]:
        # per i, one product over the jump axis with rows j and columns (k, l),
        # so that no N^2 x N^2 temporary is held beside G
        G = np.empty((N * N, N * N), dtype=complex)
        G4 = G.reshape(N, N, N, N)
        rows = Lw.transpose(2, 1, 0)  # [i, j, m]
        cols = Ls.transpose(0, 2, 1).reshape(m, N * N)  # [m, (k, l)] = L_m[l, k]
        for i in range(N):
            G4[i].transpose(1, 0, 2)[...] = (rows[i] @ cols).reshape(N, N, N)
        coherent = 1j * self.alpha * H
        left = coherent - 0.5 * damping
        right = (coherent + 0.5 * damping).T
        # the two Kronecker terms in place: kron(A, 1) puts A on G4[:, k, :, k]
        # and kron(1, B) puts B on G4[k, :, k, :], for every k
        for k in range(N):
            G4[:, k, :, k] += left
            G4[k, :, k, :] -= right
        return G

    def dissipator(self) -> "Lindbladian":
        """The jump part alone (alpha = 0)."""
        return Lindbladian(self.dim, np.zeros((self.dim, self.dim)), self.jumps, alpha=0.0)


def build_gksl(H, jumps, alpha: float = 1.0) -> Lindbladian:
    """Generator from a Hamiltonian and a list of (weight, jump) pairs."""
    H = require_hermitian(H, what="H")
    N = H.shape[0]
    clean = []
    for w, L in jumps:
        w = float(w)
        if not (np.isfinite(w) and w > 0):
            raise ValueError(f"jump weights must be finite and positive, got {w}")
        clean.append((w, as_square_matrix(L, N)))
    return Lindbladian(N, H, clean, alpha=float(alpha))


def require_invariant(an: Analysis) -> float:
    """an.invariance_residual; raises if it exceeds INVARIANCE_REFUSE_FACTOR
    times the generator's scale, an.magnitude."""
    residual = an.invariance_residual
    if residual > INVARIANCE_REFUSE_FACTOR * an.magnitude:
        raise ValueError(
            f"sigma is not invariant for this generator (residual {residual:.3e})")
    return residual


def require_kms_symmetric(an: Analysis) -> None:
    """Raises unless an.M_D is symmetric to DB_DEFECT_TOL (L^D KMS-symmetric).

    ||D||_F >= ||D||_2 for D = M_D - M_D^T and the largest column norm of M_D
    is at most ||M_D||_2, so their ratio bounds the defect from above; the
    spectral norms are taken only when that bound does not decide.  ||D||_F
    is summed over N rows at a time, with no whole temporary.
    """
    MD = an.M_D
    N = an.frame.dim
    sq = sum(np.linalg.norm(MD[i:i + N] - MD[:, i:i + N].T) ** 2
             for i in range(0, len(MD), N))
    if np.sqrt(sq) > DB_DEFECT_TOL * max_column_norm(MD):
        defect = hermiticity_defect(MD)
        if defect > DB_DEFECT_TOL:
            raise ValueError("dissipator is not KMS-symmetric: its matrix is not "
                             f"Hermitian in the KMS frame (defect {defect:.3e})")


def generator_matrix(L: Lindbladian, frame: KmsFrame) -> Matrix:
    """Full-space matrix of the generator in the given frame."""
    return frame.superop(L.unit_matrix(frame.state.eigenvectors))


def hamiltonian_superop(H, frame: KmsFrame) -> Matrix:
    """Full-space matrix of X -> i[H, X] in the given frame."""
    H = require_hermitian(H, what="H")
    G = Lindbladian(H.shape[0], H, []).unit_matrix(frame.state.eigenvectors)
    return frame.superop(G)


def real_norm2(A: Matrix) -> float:
    """Spectral norm of a real matrix, the largest over a stack (..., m, n), by
    an eigensolve of A^T A, not an SVD.

    A is first scaled by a power of two, which is exact, so that A^T A
    neither underflows nor overflows.
    """
    top = np.abs(A).max(initial=0.0)
    if top == 0.0:
        return 0.0
    e = int(np.frexp(top)[1])
    A = np.ldexp(A, -e)
    w = np.linalg.eigvalsh(np.swapaxes(A, -1, -2) @ A)[..., -1].max()
    return float(np.ldexp(np.sqrt(max(w, 0.0)), e))


def max_column_norm(*blocks: Matrix) -> float:
    """Largest Euclidean column norm of a real matrix, or of the block-diagonal
    one with the sector stacks `blocks` (..., m, n): a lower bound on ||.||_2."""
    return float(np.sqrt(max(np.einsum("...ij,...ij->...j", A, A).max()
                             for A in blocks)))


def hermiticity_defect(*blocks: Matrix) -> float:
    """Relative deviation from its conjugate transpose, in spectral norm, of one
    matrix or of the block-diagonal matrix with the sector stacks `blocks`
    (..., n, n): the scale and the numerator are each the largest over them."""
    if all(np.isrealobj(B) for B in blocks):
        scale = max(real_norm2(B) for B in blocks)
        if scale < 1e-30:
            return 0.0
        return max(real_norm2(B - np.swapaxes(B, -1, -2)) for B in blocks) / scale
    scale = max(np.linalg.svd(B, compute_uv=False)[..., 0].max() for B in blocks)
    if scale < 1e-30:
        return 0.0
    # each B - B^dag is exactly anti-Hermitian in floating point, so i(B - B^dag)
    # is Hermitian and its largest |eigenvalue| is the norm
    return float(max(np.abs(np.linalg.eigvalsh(1j * (B - dag(B)))).max()
                     for B in blocks) / scale)


def joint_eigenbasis(state: QuantumState, H: Matrix) -> tuple[QuantumState,
                                                              np.ndarray | None]:
    """(state, E): the state carrying a joint eigenbasis W of sigma and H, with
    the energies E_a = (W^dag H W)_aa; (state, None) unless [H, sigma] = 0.

    W = U V for sigma's eigenvectors U and V the eigenvectors of U^dag H U,
    taken run by run over equal eigenvalues of sigma; V = I, and the state is
    returned as it is, when U^dag H U is already diagonal.  W is used only if
    it diagonalizes H to rounding.
    """
    sigma = state.matrix
    hnorm = np.linalg.norm(H, 2)
    if np.linalg.norm(H @ sigma - sigma @ H) > COMMUTE_TOL * hnorm:
        return state, None
    U = state.eigenvectors
    Hu = dag(U) @ H @ U
    E = np.diag(Hu).real.copy()
    if not np.any(Hu - np.diag(np.diag(Hu))):
        return state, E
    mu = state.eigenvalues
    V = np.zeros_like(Hu)
    # mu is descending: a run ends where it drops by more than rounding
    cuts = np.flatnonzero(mu[:-1] - mu[1:] > JOINT_BASIS_TOL * mu[0]) + 1
    for run in np.split(np.arange(state.dim), cuts):
        V[np.ix_(run, run)] = np.linalg.eigh(Hu[np.ix_(run, run)])[1]
    W = U @ V
    Hw = dag(W) @ H @ W
    E = np.diag(Hw).real.copy()
    if np.linalg.norm(Hw - np.diag(E)) > JOINT_BASIS_TOL * hnorm:
        return state, None
    return state.in_basis(W), E


def sector_partition(mats: list[Matrix]) -> list[np.ndarray]:
    """Index sets on which every matrix of `mats` (same square shape) splits.

    A sector is a connected component of the union of their supports, each
    matrix's entries above SECTOR_TOL times its largest; the sectors are
    grouped by size, one (count, size) array per size, ascending.
    """
    A = np.zeros(mats[0].shape, dtype=bool)
    for M in mats:
        B = np.abs(M)
        A |= B > SECTOR_TOL * B.max()
    rows, cols = np.nonzero(A | A.T)
    # label propagation over the edges: every index takes the smallest label
    # among its neighbours, then jumps to its label's label, until nothing moves
    labels = np.arange(A.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    counts = np.unique(labels, return_counts=True)[1]
    comps = np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])
    return [np.array([c for c in comps if len(c) == size])
            for size in np.unique(counts)]


def sector_blocks(M: Matrix, sectors: list[np.ndarray]) -> list[Matrix]:
    """The diagonal blocks of M on each group of sectors, one stack per group."""
    return [M[S[:, :, None], S[:, None, :]] for S in sectors]


def sector_singular_gap(blocks: list[Matrix]) -> float:
    """Smallest singular value of the block-diagonal matrix with the sector
    stacks `blocks`, as Analysis.blocks gives them."""
    return float(min(np.linalg.svd(B, compute_uv=False).min() for B in blocks))


class Analysis:
    """One generator at one state in the KMS frame: what every analysis takes.

    Holds the frame, the effective Hamiltonian H = alpha * hamiltonian, the
    dissipator LD = L^D and the energies E.  When [H, sigma] = 0 the frame is
    laid on a joint eigenbasis of sigma and H (see joint_eigenbasis) and E
    holds the eigenvalues of H in it; otherwise E is None.  Everything else
    is built on first use and kept: the two whole real matrices M_D and M_H
    of L^D and i[H, .] (when E is set, M_H by formula), the frame matrix of L
    being M_D + M_H; the views M_Dr, M_Hr of their traceless blocks [1:, 1:];
    the sectors on which those blocks split, with their blocks, which every
    solve of a M_Hr + M_Dr reads; the kernel split, the one
    eigendecomposition of the symmetric part of M_D per sector that every
    later use of its spectrum reads; the kernel-mixing check; the structural
    constants; the smallest singular value of M_Dr + M_Hr; and the invariance
    residual ||L^dag(sigma)||_F with its scale, the magnitude of L.
    """

    def __init__(self, L: Lindbladian, state: QuantumState):
        self.L = L
        self.H = L.alpha * L.hamiltonian
        self.state, self.energies = joint_eigenbasis(state, self.H)
        self.frame = KmsFrame(self.state)
        self.LD = L.dissipator()

    @cached_property
    def M_D(self) -> Matrix:
        return generator_matrix(self.LD, self.frame)

    @cached_property
    def M_H(self) -> Matrix:
        """Frame matrix of i[H, .], by formula in the joint frame: there i[H,
        (e_ab + e_ba)/sqrt2] = w i(e_ab - e_ba)/sqrt2 and i[H, i(e_ab -
        e_ba)/sqrt2] = -w (e_ab + e_ba)/sqrt2 with w = E_a - E_b, so on each
        pair's coordinates (s, t) M_H is the rotation [[0, -w], [w, 0]], else
        zero."""
        if self.energies is None:
            return hamiltonian_superop(self.H, self.frame)
        M = np.zeros((self.frame.size, self.frame.size))
        r, c = self.frame._pairs
        s = self.frame.dim + np.arange(len(r))
        om = self.energies[r] - self.energies[c]
        M[s + len(r), s] += om
        M[s, s + len(r)] -= om
        return M

    @cached_property
    def M_Dr(self) -> Matrix:
        return self.M_D[1:, 1:]

    @cached_property
    def M_Hr(self) -> Matrix:
        return self.M_H[1:, 1:]

    def unit_matrix(self) -> Matrix:
        """L.unit_matrix on the frame's units, from one assembly: that of L^D,
        whose frame matrix is kept as M_D, plus the coherent term, which is
        diagonal in the joint frame (i(E_a - E_b) on |a><b|)."""
        U = self.state.eigenvectors
        G = self.LD.unit_matrix(U)
        if "M_D" not in self.__dict__:
            self.M_D = self.frame.superop(G)
        if not self.H.any():
            return G
        if self.energies is None:
            GH = Lindbladian(self.L.dim, self.H, []).unit_matrix(U)
            if "M_H" not in self.__dict__:
                self.M_H = self.frame.superop(GH)
            G += GH
        else:
            E = self.energies
            G.flat[::G.shape[0] + 1] += 1j * (E[:, None] - E[None, :]).ravel()
        return G

    @cached_property
    def sectors(self) -> list[np.ndarray]:
        """Index sets of the traceless coordinates on which Mr splits exactly:
        sector_partition of M_Dr and M_Hr.  A matrix a M_Hr + M_Dr is
        block-diagonal on them for every a."""
        return sector_partition([self.M_Dr, self.M_Hr] if self.H.any()
                                else [self.M_Dr])

    @cached_property
    def stacks(self) -> list[tuple[Matrix, Matrix]]:
        """(D, H) per group of sectors: the stacks of M_Dr's and M_Hr's
        blocks, gathered once."""
        return list(zip(sector_blocks(self.M_Dr, self.sectors),
                        sector_blocks(self.M_Hr, self.sectors)))

    def blocks(self, a: float = 1.0) -> list[Matrix]:
        """The blocks of a M_Hr + M_Dr, one stack per group of sectors; at
        a = 1 those of L's traceless frame matrix."""
        return [a * H + D for D, H in self.stacks]

    @cached_property
    def split(self) -> SpaceSplit:
        return kernel_projection(self)

    @cached_property
    def invariance_residual(self) -> float:
        """||L^dag(sigma)||_F, read off row 0 of L's frame matrix M = M_D + M_H.
        As M^T = L* and E_0 = 1, the row holds the coordinates c of L*(1) =
        sigma^-1/2 L^dag(sigma) sigma^-1/2; the square is sum_a mu_a (Q c_D)_a^2 +
        sum_pairs sqrt(mu_r mu_c)(c_s^2 + c_t^2).  M_H's row is 0 in the joint
        frame, where M_H is not built for it."""
        c = self.M_D[0] if self.energies is not None else self.M_D[0] + self.M_H[0]
        D, P, I = self.frame._blocks
        r, k = self.frame._pairs
        mu = self.state.eigenvalues
        sq = mu @ (self.frame._Q @ c[D]) ** 2 \
            + np.sqrt(mu[r] * mu[k]) @ (c[P] ** 2 + c[I] ** 2)
        return float(np.sqrt(sq))

    @cached_property
    def magnitude(self) -> float:
        """Rough scale of L that normalizes the invariance tolerances:
        2 ||H||_2 + 2 sum_j w_j ||L_j||_2^2, floored at 1e-30."""
        w = np.array([w for w, _ in self.L.jumps], dtype=float)
        Ls = np.array([J for _, J in self.L.jumps]).reshape(-1, self.L.dim, self.L.dim)
        m = np.linalg.norm(self.H, 2) + w @ np.linalg.norm(Ls, 2, axis=(1, 2)) ** 2
        return max(2.0 * float(m), 1e-30)

    @cached_property
    def assumption(self) -> tuple[bool, float]:
        """certify.check_assumption of this analysis."""
        from .certify import check_assumption  # certify imports this module
        return check_assumption(self)

    @cached_property
    def constants(self):
        """certify.structural_constants of this analysis."""
        from .certify import structural_constants
        return structural_constants(self)

    @cached_property
    def singular_gap(self) -> float:
        """Smallest singular value of M_Dr + M_Hr, taken sector by sector."""
        return sector_singular_gap(self.blocks())


def standard_dbc_solve(G: Matrix, frame: KmsFrame) -> tuple[Matrix, float]:
    """Best Hermitian traceless K with L - L* = 2i[K, .]; returns (K, defect).

    G is L.unit_matrix(frame.state.eigenvectors) and L* the KMS adjoint.
    The defect is the residual norm relative to ||L - L*||; 0/0 counts as a
    perfect fit with K = 0.  The identity component of K is unobservable in a
    commutator and is pinned to zero by the traceless constraint.

    The frame change is unitary, so the fit is ||S C S^-1 - Y|| on the units of
    sigma's eigenbasis, with S = diag(vec(_scale)), Y = S G S^-1 - (S G S^-1)^dag
    and S C S^-1 = 2i(a o K' x 1 - 1 x (a^T o K')^T) for K' = U^dag K U.  For
    traceless K the cross term of the two Kronecker factors vanishes, so the
    squared residual is diagonal in the entries of K' (weights 4N(a^2 + (a^T)^2))
    and reads Y only through two partial traces; the minimizer is entrywise.
    """
    N = frame.dim
    U = frame.state.eigenvectors
    s = vec(frame._scale)
    Y = G * (s[:, None] / s[None, :])  # S G S^-1, then in place Y
    sgs_norm = np.linalg.norm(Y)
    Y -= dag(Y)
    ynorm = np.linalg.norm(Y)
    if ynorm <= 1e-12 * sgs_norm:
        return np.zeros((N, N), dtype=complex), 0.0
    # _scale = outer(x, x): a[i, j] = x_i / x_j
    x = frame._scale[:, 0]
    a = x[:, None] / x[None, :]
    Y4 = Y.reshape(N, N, N, N)
    b = -2j * (a * np.einsum("rcsc->rs", Y4) - a.T * np.einsum("rcrd->cd", Y4).T)
    w = a**2 + a.T**2
    # tr b = tr Y - tr Y = 0, so Kb already meets the traceless constraint;
    # w is exactly symmetric, so w + w^T = 2w
    Kb = (b + dag(b)) / (8 * N * w)
    # the fit S C S^-1 - Y in the place of Y, no Kronecker product: -Y plus
    # 2i a o K' on the blocks [:, k, :, k], minus 2i (a^T o K')^T on [k, :, k, :]
    fit = np.negative(Y4, out=Y4)
    left = 2j * (a * Kb)
    right = 2j * (a.T * Kb).T
    for k in range(N):
        fit[:, k, :, k] += left
        fit[k, :, k, :] -= right
    defect = float(np.linalg.norm(fit) / ynorm)
    return U @ Kb @ dag(U), defect


@dataclass
class StructureReport:
    """Detailed-balance, primitivity and kernel diagnostics at one state.

    commutant_dim is dim ker L, counted from the singular values of its frame
    matrix; with a faithful invariant state, which structure_report requires,
    it is the dimension of the commutant of {H, L_j, L_j^dag}.
    """

    invariant_state_ok: bool
    invariance_residual: float
    kms_db: bool
    kms_defect: float
    gns_db: bool
    gns_defect: float
    standard_dbc: bool
    standard_dbc_defect: float
    standard_dbc_K: Matrix | None
    primitive: bool
    commutant_dim: int
    kernel_dim_LD: int
    classification: str

    def as_dict(self) -> dict:
        """Every field but standard_dbc_K, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "standard_dbc_K"}


def _kernel_counts(an: Analysis) -> tuple[int, float, int]:
    """(dim ker L, KMS defect, dim ker L^D) from the full-space M_D and M_H,
    solved per sector of the two (sector_partition, index 0 included): the
    identity is a sector of its own unless sigma's invariance residual puts
    its row above SECTOR_TOL.  The frame matrix of L is M_D + M_H, and so is
    each of its blocks."""
    coherent = bool(an.H.any())
    sectors = sector_partition([an.M_D, an.M_H] if coherent else [an.M_D])
    dblocks = sector_blocks(an.M_D, sectors)
    blocks = ([D + H for D, H in zip(dblocks, sector_blocks(an.M_H, sectors))]
              if coherent else dblocks)
    # sigma is faithful and invariant, so ker L is the commutant of
    # {H, L_j, L_j^dag} (Frigerio 1978); singular values, not eigvalsh(M^T M),
    # whose zeros sit near sqrt(eps) * sigma_max, above the cutoff
    sv = np.concatenate([np.linalg.svd(B, compute_uv=False).ravel() for B in blocks])
    top = sv.max()
    if top < 1e-30:
        kms_defect, cdim = 0.0, an.frame.size
    else:
        # hermiticity_defect of L's frame matrix with ||.||_2 = top, per block
        kms_defect = max(real_norm2(B - np.swapaxes(B, -1, -2)) for B in blocks) / top
        cdim = int(np.sum(sv < COMMUTANT_SV_FACTOR * top))
    # zero eigenvalues of the Hermitian part of M_D
    w = np.concatenate([np.linalg.eigvalsh((B + np.swapaxes(B, -1, -2)) / 2.0).ravel()
                        for B in dblocks])
    kdim = int(np.sum(np.abs(w) < KERNEL_TOL_FACTOR * max(np.abs(w).max(), 1e-30)))
    return cdim, kms_defect, kdim


def _gns_defect(G: Matrix, mu: np.ndarray) -> float:
    """hermiticity_defect of the GNS frame matrix, solved per sector.

    That matrix is a unitary change of Mg = S G S^-1 on the units, S =
    diag(vec(outer(1, sqrt(mu)))), and the defect is unitarily invariant;
    Mg and Mg - Mg^dag split on the sectors of Mg.
    """
    g = vec(np.outer(np.ones_like(mu), np.sqrt(mu)))
    Mg = G * (g[:, None] / g[None, :])
    return hermiticity_defect(*sector_blocks(Mg, sector_partition([Mg])))


def structure_report(an: Analysis) -> StructureReport:
    """Full detailed-balance / primitivity / kernel diagnostic for a generator."""
    # one G for the GNS defect and the fit; its assembly also gives M_D (and
    # M_H off the joint frame), whose row 0 the residual reads
    G = an.unit_matrix()
    residual = require_invariant(an)
    mu = an.state.eigenvalues
    uniform = mu[0] == mu[-1]  # then the GNS and KMS products coincide
    if not uniform:
        gns_defect = _gns_defect(G, mu)
    K, dbc_defect = standard_dbc_solve(G, an.frame)
    del G  # before the kernel counts build M_H, so the two are never held together
    cdim, kms_defect, kdim = _kernel_counts(an)
    primitive = cdim == 1
    if uniform:
        gns_defect = kms_defect

    if not primitive:
        classification = "non-primitive"
    elif kdim == 1:
        classification = "coercive"
    else:
        classification = "hypocoercive"

    return StructureReport(
        invariant_state_ok=residual <= INVARIANCE_FLAG_FACTOR * an.magnitude,
        invariance_residual=residual,
        kms_db=kms_defect < DB_DEFECT_TOL,
        kms_defect=kms_defect,
        gns_db=gns_defect < DB_DEFECT_TOL,
        gns_defect=gns_defect,
        standard_dbc=dbc_defect < DB_DEFECT_TOL,
        standard_dbc_defect=dbc_defect,
        standard_dbc_K=K,
        primitive=primitive,
        commutant_dim=cdim,
        kernel_dim_LD=kdim,
        classification=classification,
    )


@dataclass
class SpaceSplit:
    """Eigendecomposition of -L^D on the traceless subspace, one per sector,
    split at its kernel.

    Analysis.sectors regrouped by (size, kernel dimension k = dims[g]): per
    group g of sectors[g] (count, size), values[g] holds the ascending
    eigenvalues of the KMS-symmetric -M_D on each sector, vectors[g] their
    unit eigenvectors in the sector's coordinates and hamiltonian[g] the
    blocks of M_Hr, sliced from Analysis.stacks.  The first k eigenvalues,
    below `cutoff` in absolute value, span ker(L^D): vectors[g][..., :k] is
    the kernel and vectors[g][..., k:] its KMS-orthogonal complement.
    `rates` holds every eigenvalue, ascending.
    """

    rates: np.ndarray
    sectors: list[np.ndarray]
    values: list[np.ndarray]
    vectors: list[np.ndarray]
    dims: list[int]
    hamiltonian: list[np.ndarray]
    cutoff: float

    @property
    def dim0(self) -> int:
        return int(np.sum(np.abs(self.rates) < self.cutoff))

    @property
    def dim_plus(self) -> int:
        return len(self.rates) - self.dim0


def kernel_projection(an: Analysis) -> SpaceSplit:
    """Split of the traceless subspace by the zero eigenspace of a KMS-DB
    dissipator: one eigh of -(D + D^T)/2 per stack D of M_Dr's blocks."""
    require_kms_symmetric(an)
    eighs = [np.linalg.eigh(-(D + np.swapaxes(D, -1, -2)) / 2.0) for D, _ in an.stacks]
    rates = np.sort(np.concatenate([w.ravel() for w, _ in eighs]))
    # w >= 0 up to rounding, so each sector's kernel leads its ascending w
    cutoff = KERNEL_TOL_FACTOR * max(np.abs(rates).max(), 1e-30)
    groups = []
    for S, (w, V), (_, H) in zip(an.sectors, eighs, an.stacks):
        ks = np.sum(np.abs(w) < cutoff, axis=1)
        for k in np.unique(ks):
            # a view, not a copy, of a stack whose sectors share one k
            sel = slice(None) if np.all(ks == k) else ks == k
            groups.append((S[sel], w[sel], V[sel], int(k), H[sel]))
    sectors, values, vectors, dims, hamiltonian = (list(x) for x in zip(*groups))
    return SpaceSplit(rates, sectors, values, vectors, dims, hamiltonian, cutoff)
