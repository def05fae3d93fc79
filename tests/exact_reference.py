"""Independent references for lindgap's closed forms.

These recompute the same quantities as the library by other routes: the
powers sigma^p from sigma's eigendecomposition, the sigma-weighted inner
products tr(sigma^s X^dag sigma^(1-s) Y) by their trace formula, against
which the KMS frame (s = 1/2) is checked, Gram-Schmidt for the frame's
closed-form diagonal basis, the frame inverse (the operator
with given coordinates, KmsFrame.coords undone), the probed frame matrix
of an arbitrary linear map (from the frame's basis operators) for every
assembled superoperator, the GNS matrix of a generator probed on the GNS
basis for the GNS defect, the Kronecker form summed one jump at a time for
the batched unit matrix, the Schrodinger-picture action L^dag summed one
jump at a time for the invariance residual read off the frame matrix, polynomial moments for the space-time variance
check, a Lyapunov solve for the window Gramian, a least-squares fit over a
Hermitian traceless basis for the standard detailed-balance solve, the
stacked complex commutators of every generator for the commutant, the
complex eigensolve of -i M_H in the frame on sigma's own eigenvectors for
the Bohr blocks, and whole-space solves (one SVD, eigh or exponential of
the whole matrix) for the structure counts, the kernel split and the
validate curves that the library takes sector by sector, and for the
symmetrized gap, which the library does not compute.  They are test
helpers, not part of the package.
"""

import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from lindgap import KmsFrame, Lindbladian
from lindgap.evolve import _random_mean_zero
from lindgap.lindblad import COMMUTANT_SV_FACTOR, KERNEL_TOL_FACTOR
from lindgap.operators import SQRT2, as_square_matrix, dag, vec

LINEARITY_RTOL = 1e-8
# fixed probe generator: the linearity check must be deterministic
_PROBE_SEED = 7541


def state_power(state, p: float) -> np.ndarray:
    """sigma^p through the state's eigendecomposition."""
    U = state.eigenvectors
    return (U * state.eigenvalues**p) @ dag(U)


def weighted_inner(state, s: float, X, Y) -> complex:
    """<X, Y>_{sigma,s} = tr(sigma^s X^dag sigma^(1-s) Y), for any s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    X = as_square_matrix(X, state.dim)
    Y = as_square_matrix(Y, state.dim)
    return complex(np.trace(state_power(state, s) @ dag(X)
                            @ state_power(state, 1.0 - s) @ Y))


def weighted_norm(state, s: float, X) -> float:
    return float(np.sqrt(max(weighted_inner(state, s, X, X).real, 0.0)))


def gram_schmidt_q(mu) -> np.ndarray:
    """KmsFrame._Q by Gram-Schmidt: sqrt(mu), then each unit vector e_r
    orthogonalized twice against the columns so far, the one dependent
    candidate dropped."""
    mu = np.asarray(mu, dtype=float)
    N = len(mu)
    Q = np.zeros((N, N))
    Q[:, 0] = np.sqrt(mu)
    j = 1
    for r in range(N):
        v = np.zeros(N)
        v[r] = 1.0
        for _ in range(2):
            for k in range(j):
                v -= Q[:, k] * (Q[:, k] @ v)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            continue
        v /= nrm
        Q[:, j] = v / np.linalg.norm(v)
        j += 1
    assert j == N, "expected exactly one dependent candidate"
    return Q


def from_coords(frame, c) -> np.ndarray:
    """The operator with frame coordinates c (length N^2): KmsFrame.coords
    undone step by step."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (frame.size,):
        raise ValueError(f"expected {frame.size} coordinates")
    D, P, I = frame._blocks
    r, cols = frame._pairs
    Y = np.diag(frame._Q @ c[D])
    Y[r, cols] = (c[P] + 1j * c[I]) / SQRT2
    Y[cols, r] = (c[P] - 1j * c[I]) / SQRT2
    U = frame.state.eigenvectors
    return U @ (Y / frame._scale) @ dag(U)


def frame_basis(frame) -> list[np.ndarray]:
    """The frame operators E_k as matrices (E_0 = identity)."""
    eye = np.eye(frame.size)
    return [from_coords(frame, eye[:, k]) for k in range(frame.size)]


def superop_matrix(map_fn, frame, restrict_traceless: bool = False) -> np.ndarray:
    """Matrix [ <E_j, map(E_k)> ]_{jk} of a linear operator map.

    The map is probed for linearity on fixed pseudo-random operators before
    the matrix is assembled.
    """
    N = frame.dim
    rng = np.random.default_rng(_PROBE_SEED)
    X1 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    X2 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    a = 0.8 - 0.6j
    lhs = map_fn(a * X1 + X2)
    rhs = a * map_fn(X1) + map_fn(X2)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    if np.linalg.norm(lhs - rhs) > LINEARITY_RTOL * scale:
        raise ValueError("map is not linear on random probes")
    cols = [frame.coords(map_fn(E)) for E in frame_basis(frame)]
    M = np.stack(cols, axis=1)
    return M[1:, 1:].copy() if restrict_traceless else M


def gns_matrix(L, state) -> np.ndarray:
    """Matrix [ <E_j, L(E_k)> ]_{jk} for the GNS product <X, Y> = tr(sigma X^dag Y),
    probed through L.apply on its orthonormal basis E_k = Y_k sigma^(-1/2), Y_k
    the matrix units (Hilbert-Schmidt orthonormal)."""
    N = state.dim
    units = np.eye(N * N).reshape(N * N, N, N)
    basis = units @ state_power(state, -0.5)
    images = [L.apply(E) for E in basis]
    return np.array([[np.trace(state.matrix @ dag(Ej) @ LEk) for LEk in images]
                     for Ej in basis])


def apply_adjoint(L, rho) -> np.ndarray:
    """Schrodinger-picture action of L (the trace-pairing adjoint), one jump
    at a time."""
    rho = as_square_matrix(rho, L.dim)
    H = L.hamiltonian
    out = -1j * (H @ rho - rho @ H)
    for w, J in L.jumps:
        JdJ = dag(J) @ J
        out += w * (J @ rho @ dag(J) - 0.5 * (JdJ @ rho + rho @ JdJ))
    return out


def unit_matrix_per_jump(L, basis=None) -> np.ndarray:
    """Lindbladian.unit_matrix with one Kronecker product per jump."""
    def rot(A):
        return A if basis is None else dag(basis) @ A @ basis

    eye = np.eye(L.dim)
    H = rot(L.hamiltonian)
    G = 1j * (np.kron(H, eye) - np.kron(eye, H.T))
    damping = np.zeros((L.dim, L.dim), dtype=complex)
    for w, J in L.jumps:
        J = rot(J)
        G += w * np.kron(dag(J), J.T)
        damping += w * (dag(J) @ J)
    G -= 0.5 * (np.kron(damping, eye) + np.kron(eye, damping.T))
    return G


def kernel_dimension(M_full: np.ndarray) -> int:
    """dim ker of a generator matrix: its singular values at most
    COMMUTANT_SV_FACTOR times the largest, from one SVD of the whole
    full-space matrix (structure_report counts them per sector); a zero
    matrix is all kernel."""
    sv = np.linalg.svd(M_full, compute_uv=False)
    return int(np.sum(sv <= COMMUTANT_SV_FACTOR * sv[0]))


def split_bases(split) -> tuple[np.ndarray, np.ndarray]:
    """(basis0, basis_plus): the kernel split's eigenvectors as dense columns
    on the traceless coordinates, kernel and complement, sector by sector."""
    n = len(split.rates)
    cols0, cols_plus = [], []
    for S, V, k in zip(split.sectors, split.vectors, split.dims):
        for s, v in zip(S, V):
            D = np.zeros((n, len(s)))
            D[s] = v
            cols0.append(D[:, :k])
            cols_plus.append(D[:, k:])
    return np.hstack(cols0), np.hstack(cols_plus)


def whole_structure(an) -> tuple[int, float, int]:
    """(commutant_dim, kms_defect, kernel_dim_LD) of structure_report, from
    whole-space solves of the full frame matrices of L and L^D."""
    M = an.frame.superop(an.L.unit_matrix(an.state.eigenvectors))
    sv = np.linalg.svd(M, compute_uv=False)
    cdim = int(np.sum(sv < COMMUTANT_SV_FACTOR * sv[0]))
    kms = float(np.linalg.norm(M - M.T, 2) / sv[0])
    return cdim, kms, kernel_dimension(an.M_D)


def symmetrized_gap(an) -> float:
    """Least eigenvalue of -(Mr + Mr^T)/2, the slowest instantaneous decay
    rate of the frame norm, from one eigvalsh of the whole traceless matrix."""
    Mr = an.M_Dr + an.M_Hr
    return float(np.linalg.eigvalsh(-(Mr + Mr.T) / 2.0)[0])


def whole_split(an) -> tuple[np.ndarray, float | None, float]:
    """(rates, s_H, ||L^H Pi_+||) from one eigh of the whole traceless -M_D;
    s_H is None for a trivial kernel and 0 when the kernel outnumbers its
    complement."""
    MD = (an.M_D + an.M_D.T) / 2.0
    w, V = np.linalg.eigh(-MD[1:, 1:])
    zero = np.abs(w) < KERNEL_TOL_FACTOR * max(np.abs(w).max(), 1e-30)
    V0, Vp = V[:, zero], V[:, ~zero]
    MH = np.array(an.M_Hr)
    s_H = None
    if V0.shape[1]:
        s_H = 0.0 if V0.shape[1] > Vp.shape[1] else \
            float(np.linalg.svd(Vp.T @ MH @ V0, compute_uv=False)[-1])
    return w, s_H, float(np.linalg.norm(MH @ Vp, 2))


def whole_curves(an, X0, T: float, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||x_t||^2, x_t^dag G_T x_t, ||e^{t Mr}||_2) for x_t = e^{t Mr} x_0 at
    each t, from one exponential of the whole traceless matrix per time and
    the Lyapunov window Gramian."""
    Mr = an.M_Dr + an.M_Hr
    x0 = an.frame.coords(X0)[1:]
    G = lyapunov_window_gramian(Mr, T)
    Es = [expm(t * Mr) for t in ts]
    xs = [E @ x0 for E in Es]
    return (np.array([np.vdot(x, x).real for x in xs]),
            np.array([np.vdot(x, G @ x).real for x in xs]),
            np.array([np.linalg.norm(E, 2) for E in Es]))


def _moment_average(A: np.ndarray, moments: np.ndarray) -> float:
    """(1/T) int_0^T ||sum_k t^k a_k||^2 dt for the rows a_k of A."""
    p = A.shape[0]
    idx = np.arange(p)
    Mo = moments[idx[:, None] + idx[None, :]]
    return float(np.sum(Mo * (A.conj() @ A.T)).real)


def stp_worst_ratio(H, LD, state, rep) -> float:
    """stp_verify's worst ratio for report `rep`, from the exact moments
    (1/T) int_0^T t^n dt = T^n / (n + 1) and the same seeded draws."""
    frame = KmsFrame(state)
    U = state.eigenvectors
    MD = frame.superop(LD.unit_matrix(U))
    MD = (MD + MD.conj().T) / 2.0
    MH = frame.superop(Lindbladian(state.dim, H, []).unit_matrix(U))
    w, V = np.linalg.eigh(-MD)
    zero = np.abs(w) < 1e-9 * max(w[-1], 1e-30)
    P0 = V[:, zero] @ V[:, zero].conj().T
    W = V @ np.diag((rep.beta + np.clip(w, 0.0, None)) ** -0.5) @ V.conj().T

    p = rep.poly_degree
    T = rep.T
    moments = T ** np.arange(2 * p + 1) / np.arange(1, 2 * p + 2)
    rng = np.random.default_rng(rep.seed)
    worst = 0.0
    for _ in range(rep.n_samples):
        A = np.stack([frame.coords(_random_mean_zero(rng, state))
                      for _ in range(p + 1)])
        mean = float(moments[:p + 1] @ A[:, 0].real)
        lhs2 = _moment_average(A, moments) - mean**2
        r1 = _moment_average(A @ (np.eye(A.shape[1]) - P0).T, moments)
        dA = np.zeros_like(A)  # coefficients of d/dt X
        dA[:-1] = np.arange(1, p + 1)[:, None] * A[1:]
        r2 = _moment_average((-dA + A @ MH.T) @ W.T, moments)
        rhs = rep.C1 * math.sqrt(max(r1, 0.0)) + rep.C2 * math.sqrt(max(r2, 0.0))
        worst = max(worst, math.sqrt(max(lhs2, 0.0)) / max(rhs, 1e-300))
    return worst


def lyapunov_window_gramian(M: np.ndarray, T: float) -> np.ndarray:
    """(1/T) int_0^T e^{sM^dag} e^{sM} ds from M^dag X + X M = e^{TM^dag} e^{TM} - I.

    Solvable only when no two eigenvalues of M sum to zero after conjugating
    one of them, e.g. for a generator with a gap."""
    E = expm(T * M)
    X = solve_continuous_lyapunov(M.conj().T, E.conj().T @ E - np.eye(len(M)))
    return X / T


def _hermitian_traceless_basis(N: int) -> list[np.ndarray]:
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


def lstsq_dbc_solve(L, frame):
    """standard_dbc_solve by brute force: the frame matrices of the N^2 - 1
    commutators 2i[G_k, .] as columns of a real least squares against
    M - M^dag.  O(N^8) time and O(N^6) memory; returns (K, defect)."""
    M = frame.superop(L.unit_matrix(frame.state.eigenvectors))
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
        A[:, k] = vec(frame.superop(Gk))
    rhs = vec(D)
    A_real = np.vstack([A.real, A.imag])
    rhs_real = np.concatenate([rhs.real, rhs.imag])
    x, *_ = np.linalg.lstsq(A_real, rhs_real, rcond=None)
    K = sum(c * G for c, G in zip(x, basis))
    defect = float(np.linalg.norm(A @ x - rhs) / dnorm)
    return K, defect


def stacked_commutant_sv(L):
    """Singular values of the unit-basis matrices of X -> i[A, X] for
    A in {H, L_j, L_j^dag}, stacked; all zero when there is no generator.
    A (2 #jumps + 1) N^2 x N^2 complex SVD."""
    N = L.dim
    gens = []
    if np.linalg.norm(L.hamiltonian) > 0:
        gens.append(L.hamiltonian)
    for _, Lj in L.jumps:
        gens.append(Lj)
        gens.append(dag(Lj))
    if not gens:
        return np.zeros(N * N)
    stacked = np.vstack([Lindbladian(N, A, []).unit_matrix() for A in gens])
    return np.linalg.svd(stacked, compute_uv=False)


def bohr_table_by_eigh(L, state) -> list[tuple[float, int, float]]:
    """(frequency, dimension, lambda_nu) per Bohr block of L = i[H, .] + L^D,
    from the complex eigensolve of the Hermitian -i M_H on the traceless block
    of the KMS frame on sigma's own eigenvectors.

    Eigenvalues within 1e-7 of the largest Bohr frequency E_max - E_min (and
    within 1e-12 max|E|, the rounding of a difference of energies) are merged
    into one block; lambda_nu is the smallest eigenvalue of -M_D compressed
    to the block's eigenvectors.
    """
    H = L.hamiltonian
    frame = KmsFrame(state)
    U = state.eigenvectors
    MH = frame.superop(Lindbladian(L.dim, H, []).unit_matrix(U))[1:, 1:]
    MD = frame.superop(L.dissipator().unit_matrix(U))[1:, 1:]
    S = -1j * MH
    w, V = np.linalg.eigh((S + dag(S)) / 2.0)
    negMD = -(MD + MD.T) / 2.0
    E = np.linalg.eigvalsh(H)
    tol = max(1e-7 * (E[-1] - E[0]), 1e-12 * np.abs(E).max(), 1e-14)
    table = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > tol:
            freq = float(w[start:k].mean())
            B = V[:, start:k]
            comp = dag(B) @ negMD @ B
            lam = float(np.linalg.eigvalsh((comp + dag(comp)) / 2.0)[0])
            table.append((0.0 if abs(freq) < tol else freq, k - start, lam))
            start = k
    return table
