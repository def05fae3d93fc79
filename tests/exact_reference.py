"""Closed-form references for the time averages in lindgap.evolve.

These recompute the same quantities as the library from independent formulas:
polynomial moments for the space-time variance check, a Lyapunov solve for the
window Gramian.  They are test helpers, not part of the package.
"""

import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from lindgap import generator_matrix, hamiltonian_superop, kms_frame
from lindgap.evolve import _random_mean_zero


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
