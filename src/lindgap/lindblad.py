"""Lindblad generators, detailed-balance diagnostics, and kernel splittings.

Generators are kept in Heisenberg form

    L(X) = i alpha [H, X] + sum_j w_j (L_j^dag X L_j - 1/2 {L_j^dag L_j, X})

and analyzed through their matrices in a weighted frame: detailed balance
with respect to sigma is Hermiticity of that matrix, kernels are zero
eigenspaces, and primitivity is a commutant null-space computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    KmsFrame,
    Matrix,
    QuantumState,
    SuperOperator,
    as_square_matrix,
    dag,
    gns_frame,
    kms_frame,
    require_hermitian,
    vec,
)

DB_DEFECT_TOL = 1e-8
KERNEL_TOL_FACTOR = 1e-9
COMMUTANT_SV_FACTOR = 1e-9
MODULAR_RTOL = 1e-8
INVARIANCE_FLAG_FACTOR = 1e-9


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
        def rot(A):
            return A if basis is None else dag(basis) @ A @ basis

        eye = np.eye(self.dim)
        H = rot(self.hamiltonian)
        G = 1j * self.alpha * (np.kron(H, eye) - np.kron(eye, H.T))
        damping = np.zeros((self.dim, self.dim), dtype=complex)
        for w, L in self.jumps:
            L = rot(L)
            G += w * np.kron(dag(L), L.T)
            damping += w * (dag(L) @ L)
        G -= 0.5 * (np.kron(damping, eye) + np.kron(eye, damping.T))
        return G

    def apply_adjoint(self, rho) -> Matrix:
        """Schrodinger-picture action (trace-pairing adjoint)."""
        rho = as_square_matrix(rho, self.dim)
        H = self.hamiltonian
        out = -1j * self.alpha * (H @ rho - rho @ H)
        for w, L in self.jumps:
            Ld = dag(L)
            LdL = Ld @ L
            out += w * (L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL))
        return out

    def dissipator(self) -> "Lindbladian":
        """The jump part alone (alpha = 0)."""
        return Lindbladian(self.dim, np.zeros((self.dim, self.dim)), self.jumps, alpha=0.0)

    def magnitude(self) -> float:
        """Rough generator scale used to normalize residual tolerances."""
        m = 2.0 * abs(self.alpha) * np.linalg.norm(self.hamiltonian, 2)
        for w, L in self.jumps:
            m += 2.0 * w * np.linalg.norm(L, 2) ** 2
        return float(m)


def build_gksl(H, jumps, alpha: float = 1.0) -> Lindbladian:
    """Generator from a Hamiltonian and a list of (weight, jump) pairs."""
    H = require_hermitian(H, what="H")
    N = H.shape[0]
    clean = []
    for w, L in jumps:
        w = float(w)
        if w <= 0:
            raise ValueError(f"jump weights must be positive, got {w}")
        clean.append((w, as_square_matrix(L, N)))
    return Lindbladian(N, H, clean, alpha=float(alpha))


def build_gns_canonical(state: QuantumState, pairs) -> Lindbladian:
    """Generator sum_j (e^{-w_j/2} L_j^dag [X, L_j] + e^{w_j/2} [L_j, X] L_j^dag).

    Each L_j must be a traceless eigenvector of the modular map
    X -> sigma X sigma^{-1} with eigenvalue e^{-omega_j}, the family must be
    pairwise orthogonal, and the adjoint of each member must appear in the
    list with the opposite frequency.  Under those conditions the action
    equals the GKSL form with jump list [(2 e^{-omega_j/2}, L_j)], which is
    what gets stored.
    """
    N = state.dim
    sig = state.matrix
    sig_inv = state.power(-1.0)
    ops = [(float(om), as_square_matrix(L, N)) for om, L in pairs]
    if not ops:
        raise ValueError("need at least one (omega, L) pair")
    for om, L in ops:
        nrm = np.linalg.norm(L)
        if nrm == 0:
            raise ValueError("zero jump operator")
        if abs(np.trace(L)) > 1e-10 * nrm:
            raise ValueError(f"jump operator has nonzero trace {np.trace(L):.3e}")
        defect = np.linalg.norm(sig @ L @ sig_inv - np.exp(-om) * L) / nrm
        if defect > MODULAR_RTOL:
            raise ValueError(
                f"L is not a modular eigenvector for omega={om:.6g} "
                f"(relative defect {defect:.3e})")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            Li, Lj = ops[i][1], ops[j][1]
            ov = abs(np.trace(dag(Li) @ Lj))
            if ov > 1e-10 * np.linalg.norm(Li) * np.linalg.norm(Lj):
                raise ValueError(f"jump operators {i} and {j} are not orthogonal")
    matched = [False] * len(ops)
    for i, (om, L) in enumerate(ops):
        if matched[i]:
            continue
        found = None
        for j, (om2, L2) in enumerate(ops):
            if matched[j] and j != i:
                continue
            if (np.linalg.norm(dag(L) - L2) <= 1e-8 * np.linalg.norm(L)
                    and abs(om + om2) <= 1e-8 * max(1.0, abs(om))):
                found = j
                break
        if found is None:
            raise ValueError(f"adjoint of jump operator {i} is missing from the list")
        matched[i] = matched[found] = True
    jumps = [(2.0 * np.exp(-om / 2.0), L) for om, L in ops]
    return Lindbladian(N, np.zeros((N, N)), jumps, alpha=0.0)


def check_invariance(L: Lindbladian, state: QuantumState) -> float:
    """Frobenius norm of the Schrodinger-picture action on sigma."""
    return float(np.linalg.norm(L.apply_adjoint(state.matrix)))


def require_invariant(L: Lindbladian, state: QuantumState) -> float:
    """The invariance residual of sigma; raises if sigma is far from invariant."""
    residual = check_invariance(L, state)
    if residual > 1e-6 * max(L.magnitude(), 1e-30):
        raise ValueError(
            f"sigma is not invariant for this generator (residual {residual:.3e})")
    return residual


def generator_matrix(L: Lindbladian, frame: KmsFrame,
                     restricted: bool = True) -> SuperOperator:
    """Matrix of the generator in the given frame."""
    return frame.superop(L.unit_matrix(frame.state.eigenvectors), restricted)


def hermiticity_defect(M: Matrix) -> float:
    """Relative deviation of M from its conjugate transpose."""
    scale = np.linalg.norm(M, 2)
    if scale < 1e-30:
        return 0.0
    return float(np.linalg.norm(M - dag(M), 2) / scale)


def _hermitian_traceless_basis(N: int) -> list[Matrix]:
    """A real basis of the N^2 - 1 dimensional space of Hermitian traceless matrices."""
    basis = []
    for j in range(N):
        for k in range(j + 1, N):
            S = np.zeros((N, N), dtype=complex)
            S[j, k] = S[k, j] = 1.0
            A = np.zeros((N, N), dtype=complex)
            A[j, k] = 1j
            A[k, j] = -1j
            basis.extend([S, A])
    for r in range(N - 1):
        D = np.zeros((N, N), dtype=complex)
        D[r, r] = 1.0
        D[N - 1, N - 1] = -1.0
        basis.append(D)
    return basis


def standard_dbc_solve(L: Lindbladian, frame: KmsFrame) -> tuple[Matrix, float]:
    """Best Hermitian traceless K with L - L* = 2i[K, .]; returns (K, defect).

    The defect is the residual norm relative to ||L - L*||; 0/0 counts as a
    perfect fit with K = 0.  The identity component of K is unobservable in a
    commutator and is pinned to zero by the traceless parameterization.
    """
    M = generator_matrix(L, frame, restricted=False).matrix
    D = M - dag(M)
    dnorm = np.linalg.norm(D)
    scale = max(np.linalg.norm(M), 1.0)
    if dnorm <= 1e-12 * scale:
        return np.zeros((L.dim, L.dim), dtype=complex), 0.0
    basis = _hermitian_traceless_basis(L.dim)
    # column k: the frame matrix of 2i[G_k, .], the coherent generator of 2 G_k
    A = np.empty((M.size, len(basis)), dtype=complex)
    for k, G in enumerate(basis):
        Gk = Lindbladian(L.dim, 2.0 * G, []).unit_matrix(frame.state.eigenvectors)
        A[:, k] = vec(frame.superop(Gk).matrix)
    rhs = vec(D)
    A_real = np.vstack([A.real, A.imag])
    rhs_real = np.concatenate([rhs.real, rhs.imag])
    x, *_ = np.linalg.lstsq(A_real, rhs_real, rcond=None)
    K = sum(c * G for c, G in zip(x, basis))
    defect = float(np.linalg.norm(A @ x - rhs) / dnorm)
    return K, defect


def commutant_dimension(L: Lindbladian) -> int:
    """dim of the joint commutant {H, L_j, L_j^dag}' via a stacked null space."""
    N = L.dim
    gens: list[Matrix] = []
    if L.alpha != 0.0 and np.linalg.norm(L.hamiltonian) > 0:
        gens.append(L.hamiltonian)
    for _, Lj in L.jumps:
        gens.append(Lj)
        gens.append(dag(Lj))
    if not gens:
        return N * N
    # block of A: the unit-basis matrix of X -> i[A, X]
    stacked = np.vstack([Lindbladian(N, A, []).unit_matrix() for A in gens])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv[0] < 1e-30:
        return N * N
    return int(np.sum(sv < COMMUTANT_SV_FACTOR * sv[0]))


def kernel_dimension(M_full: Matrix) -> int:
    """Zero eigenvalues of a (Hermitian) generator matrix on the full space."""
    Hm = (M_full + dag(M_full)) / 2.0
    w = np.linalg.eigvalsh(Hm)
    scale = max(np.abs(w).max(), 1e-30)
    return int(np.sum(np.abs(w) < KERNEL_TOL_FACTOR * scale))


@dataclass
class StructureReport:
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
        return {
            "invariant_state_ok": self.invariant_state_ok,
            "invariance_residual": self.invariance_residual,
            "kms_db": self.kms_db,
            "kms_defect": self.kms_defect,
            "gns_db": self.gns_db,
            "gns_defect": self.gns_defect,
            "standard_dbc": self.standard_dbc,
            "standard_dbc_defect": self.standard_dbc_defect,
            "primitive": self.primitive,
            "commutant_dim": self.commutant_dim,
            "kernel_dim_LD": self.kernel_dim_LD,
            "classification": self.classification,
        }


def structure_report(L: Lindbladian, state: QuantumState,
                     db_tol: float = DB_DEFECT_TOL) -> StructureReport:
    """Full detailed-balance / primitivity / kernel diagnostic for a generator."""
    residual = require_invariant(L, state)
    invariant_ok = residual <= INVARIANCE_FLAG_FACTOR * max(L.magnitude(), 1e-30)

    frame = kms_frame(state)
    M = generator_matrix(L, frame, restricted=False).matrix
    kms_defect = hermiticity_defect(M)

    gframe = gns_frame(state)
    Mg = generator_matrix(L, gframe, restricted=False).matrix
    gns_defect = hermiticity_defect(Mg)

    K, dbc_defect = standard_dbc_solve(L, frame)

    cdim = commutant_dimension(L)
    primitive = cdim == 1

    MD = generator_matrix(L.dissipator(), frame, restricted=False).matrix
    kdim = kernel_dimension(MD)

    if not primitive:
        classification = "non-primitive"
    elif kdim == 1:
        classification = "coercive"
    else:
        classification = "hypocoercive"

    return StructureReport(
        invariant_state_ok=invariant_ok,
        invariance_residual=residual,
        kms_db=kms_defect < db_tol,
        kms_defect=kms_defect,
        gns_db=gns_defect < db_tol,
        gns_defect=gns_defect,
        standard_dbc=dbc_defect < db_tol,
        standard_dbc_defect=dbc_defect,
        standard_dbc_K=K,
        primitive=primitive,
        commutant_dim=cdim,
        kernel_dim_LD=kdim,
        classification=classification,
    )


@dataclass
class SpaceSplit:
    """KMS-orthogonal split of the traceless subspace into ker(L^D) and its complement.

    Bases are stored as coordinate columns in the restricted frame; the
    projections act on restricted coordinates.
    """

    frame: KmsFrame
    basis0: Matrix
    basis_plus: Matrix
    pi0: SuperOperator
    pi_plus: SuperOperator

    @property
    def dim0(self) -> int:
        return self.basis0.shape[1]

    @property
    def dim_plus(self) -> int:
        return self.basis_plus.shape[1]


def kernel_projection(LD: Lindbladian, state: QuantumState,
                      frame: KmsFrame | None = None) -> SpaceSplit:
    """Split of the traceless subspace by the zero eigenspace of a KMS-DB dissipator."""
    if frame is None:
        frame = kms_frame(state)
    M = generator_matrix(LD, frame, restricted=True).matrix
    defect = hermiticity_defect(M)
    if defect > DB_DEFECT_TOL:
        raise ValueError(
            f"dissipator is not Hermitian in the KMS frame (defect {defect:.3e})")
    Hm = -(M + dag(M)) / 2.0
    w, V = np.linalg.eigh(Hm)
    scale = max(np.abs(w).max(), 1e-30)
    zero = np.abs(w) < KERNEL_TOL_FACTOR * scale
    V0 = V[:, zero]
    Vp = V[:, ~zero]
    n = M.shape[0]
    P0 = V0 @ dag(V0)
    return SpaceSplit(
        frame=frame,
        basis0=V0,
        basis_plus=Vp,
        pi0=SuperOperator(frame, P0, True),
        pi_plus=SuperOperator(frame, np.eye(n) - P0, True),
    )
