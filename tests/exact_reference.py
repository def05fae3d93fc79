"""Independent references for lindgap's closed forms.

These recompute the same quantities as the library by other routes:
polynomial moments for the space-time variance check, a Lyapunov solve for the
window Gramian, a least-squares fit over a Hermitian traceless basis for
the standard detailed-balance solve, and the stacked complex commutators of
every generator for the commutant.  They are test helpers, not part of the
package.
"""

import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from lindgap import Lindbladian, generator_matrix, hamiltonian_superop, kms_frame
from lindgap.evolve import _random_mean_zero
from lindgap.operators import dag, vec


def _moment_average(A: np.ndarray, moments: np.ndarray) -> float:
    """(1/T) int_0^T ||sum_k t^k a_k||^2 dt for the rows a_k of A."""
    p = A.shape[0]
    idx = np.arange(p)
    Mo = moments[idx[:, None] + idx[None, :]]
    return float(np.sum(Mo * (A.conj() @ A.T)).real)


def stp_worst_ratio(H, LD, state, rep) -> float:
    """stp_verify's worst ratio for report `rep`, from the exact moments
    (1/T) int_0^T t^n dt = T^n / (n + 1) and the same seeded draws."""
    frame = kms_frame(state)
    MD = generator_matrix(LD, frame, restricted=False).matrix
    MD = (MD + MD.conj().T) / 2.0
    MH = hamiltonian_superop(H, frame, restricted=False).matrix
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


def stacked_commutant_sv(L):
    """Singular values of the unit-basis matrices of X -> i[A, X] for
    A in {H, L_j, L_j^dag}, stacked; all zero when there is no generator.
    A (2 #jumps + 1) N^2 x N^2 complex SVD."""
    N = L.dim
    gens = []
    if L.alpha != 0.0 and np.linalg.norm(L.hamiltonian) > 0:
        gens.append(L.hamiltonian)
    for _, Lj in L.jumps:
        gens.append(Lj)
        gens.append(dag(Lj))
    if not gens:
        return np.zeros(N * N)
    stacked = np.vstack([Lindbladian(N, A, []).unit_matrix() for A in gens])
    return np.linalg.svd(stacked, compute_uv=False)
