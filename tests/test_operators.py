"""Weighted inner products, KMS frames, and superoperator matrices."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from lindgap import (
    QuantumState,
    kms_adjoint,
    kms_frame,
    op_norm_2to2,
    superop_matrix,
    weighted_inner,
    weighted_norm,
)
from lindgap.models import PAULI_X, PAULI_Z

E01 = np.array([[0.0, 1.0], [0.0, 0.0]])


def random_state(rng, N: int) -> QuantumState:
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    sigma = A @ A.conj().T + 0.1 * np.eye(N)
    return QuantumState(sigma / np.trace(sigma).real)


def random_op(rng, N: int) -> np.ndarray:
    return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


# ---------------------------------------------------------------------------
# weighted_inner


def test_inner_unital_qubit_is_normalized_hs():
    st = QuantumState(np.eye(2) / 2)
    assert weighted_inner(st, 0.5, PAULI_Z, PAULI_Z) == pytest.approx(1.0)


def test_inner_kms_offdiagonal_unit():
    # <e01, e01> at s=1/2 is sqrt(mu_0 mu_1)
    st = QuantumState(np.diag([0.75, 0.25]))
    v = weighted_inner(st, 0.5, E01, E01)
    assert v == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-12)


def test_inner_gns_offdiagonal_unit():
    # s=1 weight sits entirely on the right: tr(sigma e10 e01) = mu_1
    st = QuantumState(np.diag([0.75, 0.25]))
    v = weighted_inner(st, 1.0, E01, E01)
    assert v == pytest.approx(0.25, abs=1e-12)


def test_inner_conjugate_symmetric_and_positive():
    rng = np.random.default_rng(7)
    for _ in range(10):
        N = int(rng.integers(2, 6))
        st = random_state(rng, N)
        s = float(rng.uniform(0.0, 1.0))
        X, Y = random_op(rng, N), random_op(rng, N)
        lhs = weighted_inner(st, s, X, Y)
        rhs = weighted_inner(st, s, Y, X)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-10)
        assert weighted_inner(st, s, X, X).real > 0


def test_inner_rejects_dim_mismatch():
    st = QuantumState(np.eye(2) / 2)
    with pytest.raises(ValueError):
        weighted_inner(st, 0.5, np.eye(3), np.eye(3))


def test_state_rejects_rank_deficient():
    with pytest.raises(ValueError):
        QuantumState(np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# kms_frame


def test_frame_unital_qubit_gram():
    fr = kms_frame(QuantumState(np.eye(2) / 2))
    G = np.array([[weighted_inner(fr.state, 0.5, Ej, Ek)
                   for Ek in fr.basis] for Ej in fr.basis])
    assert np.abs(G - np.eye(4)).max() < 1e-10


def test_frame_identity_first_and_traceless_rest():
    st = QuantumState(np.diag([0.75, 0.25]))
    fr = kms_frame(st)
    assert np.abs(fr.basis[0] - np.eye(2)).max() < 1e-12
    assert weighted_inner(st, 0.5, fr.basis[0], fr.basis[0]) == pytest.approx(1.0)
    for E in fr.basis[1:]:
        assert abs(np.trace(st.matrix @ E)) < 1e-10


def test_frame_gram_identity_random_states():
    rng = np.random.default_rng(42)
    for case in range(50):
        N = int(rng.integers(2, 9))
        st = random_state(rng, N)
        fr = kms_frame(st)
        C = np.stack([fr.coords(E) for E in fr.basis], axis=1)
        # coords are KMS coordinates, so the Gram matrix is C^dag C
        G = C.conj().T @ C
        assert np.abs(G - np.eye(N * N)).max() < 1e-10, f"case {case}, N={N}"


def test_frame_coords_isometry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        N = int(rng.integers(2, 7))
        st = random_state(rng, N)
        fr = kms_frame(st)
        X = random_op(rng, N)
        c = fr.coords(X)
        assert np.linalg.norm(c) == pytest.approx(weighted_norm(st, 0.5, X),
                                                  rel=1e-10)
        assert np.abs(fr.from_coords(c) - X).max() < 1e-9


def test_frame_keeps_no_superoperator_sized_array():
    fr = kms_frame(random_state(np.random.default_rng(5), 6))
    sizes = [np.size(v) for v in vars(fr).values() if isinstance(v, np.ndarray)]
    assert sizes and max(sizes) <= fr.size


# ---------------------------------------------------------------------------
# superop_matrix


def test_superop_identity_map():
    fr = kms_frame(QuantumState(np.diag([0.6, 0.4])))
    S = superop_matrix(lambda X: X, fr)
    assert np.abs(S.matrix - np.eye(4)).max() < 1e-10


def test_superop_commutator_spectrum():
    fr = kms_frame(QuantumState(np.eye(2) / 2))
    S = superop_matrix(lambda X: 1j * (PAULI_Z @ X - X @ PAULI_Z), fr,
                       restrict_traceless=True)
    w = np.sort_complex(np.linalg.eigvals(S.matrix))
    expect = np.sort_complex(np.array([0.0, 2.0j, -2.0j]))
    assert np.abs(w - expect).max() < 1e-10


def test_superop_double_commutator_spectrum():
    Z = PAULI_Z
    fr = kms_frame(QuantumState(np.eye(2) / 2))
    S = superop_matrix(lambda X: -(Z @ (Z @ X - X @ Z) - (Z @ X - X @ Z) @ Z),
                       fr, restrict_traceless=True)
    assert np.abs(S.matrix - S.matrix.conj().T).max() < 1e-10
    w = np.sort(np.linalg.eigvalsh(S.matrix))
    assert np.abs(w - np.array([-4.0, -4.0, 0.0])).max() < 1e-10


def test_superop_rejects_nonlinear_map():
    fr = kms_frame(QuantumState(np.eye(2) / 2))
    with pytest.raises(ValueError, match="linear"):
        superop_matrix(lambda X: X @ X, fr)


def test_superop_apply_matches_map():
    rng = np.random.default_rng(5)
    st = random_state(rng, 3)
    fr = kms_frame(st)
    A = random_op(rng, 3)

    def phi(X):
        return A @ X + X @ A.conj().T

    S = superop_matrix(phi, fr)
    for _ in range(5):
        X = random_op(rng, 3)
        assert np.abs(S.apply(X) - phi(X)).max() < 1e-9


# ---------------------------------------------------------------------------
# kms_adjoint


def test_adjoint_hermitian_fixed_point():
    fr = kms_frame(QuantumState(np.diag([0.7, 0.3])))
    Z = PAULI_Z

    def dbl(X):
        return -(Z @ (Z @ X - X @ Z) - (Z @ X - X @ Z) @ Z)

    S = superop_matrix(dbl, fr, restrict_traceless=True)
    assert np.abs(kms_adjoint(S).matrix - S.matrix).max() < 1e-10


def test_adjoint_commutator_antihermitian():
    # [H, sigma] = 0 makes i[H, .] anti-selfadjoint for the KMS product
    st = QuantumState(np.diag([0.7, 0.3]))
    fr = kms_frame(st)
    H = np.diag([1.0, -2.0])
    S = superop_matrix(lambda X: 1j * (H @ X - X @ H), fr)
    assert np.abs(kms_adjoint(S).matrix + S.matrix).max() < 1e-10


def test_adjoint_probe_identity():
    rng = np.random.default_rng(11)
    st = random_state(rng, 3)
    fr = kms_frame(st)
    A = random_op(rng, 3)
    B = random_op(rng, 3)

    def phi(X):
        return A @ X @ B + B.conj().T @ X

    S = superop_matrix(phi, fr)
    Sstar = kms_adjoint(S)
    assert np.abs(kms_adjoint(Sstar).matrix - S.matrix).max() == 0.0
    for _ in range(20):
        X, Y = random_op(rng, 3), random_op(rng, 3)
        lhs = weighted_inner(st, 0.5, Sstar.apply(X), Y)
        rhs = weighted_inner(st, 0.5, X, S.apply(Y))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# op_norm_2to2


def test_norm_identity_map():
    fr = kms_frame(QuantumState(np.diag([0.6, 0.4])))
    assert op_norm_2to2(superop_matrix(lambda X: X, fr)) == pytest.approx(1.0)


def test_norm_double_commutator():
    Z = PAULI_Z
    fr = kms_frame(QuantumState(np.eye(2) / 2))
    S = superop_matrix(lambda X: -(Z @ (Z @ X - X @ Z) - (Z @ X - X @ Z) @ Z),
                       fr, restrict_traceless=True)
    assert op_norm_2to2(S) == pytest.approx(4.0, abs=1e-10)


def test_norm_commutator_bounded_by_spread():
    # [H, sigma] = 0 makes i[H, .] normal in the KMS frame, so its norm is
    # the largest Bohr frequency lambda_max - lambda_min
    rng = np.random.default_rng(13)
    for _ in range(10):
        N = int(rng.integers(2, 6))
        st = random_state(rng, N)
        fr = kms_frame(st)
        hdiag = rng.standard_normal(N)
        V = st.eigenvectors
        H = V @ np.diag(hdiag) @ V.conj().T
        S = superop_matrix(lambda X: 1j * (H @ X - X @ H), fr,
                           restrict_traceless=True)
        spread = hdiag.max() - hdiag.min()
        assert op_norm_2to2(S) <= spread + 1e-9
        assert op_norm_2to2(S) == pytest.approx(spread, rel=1e-9)


def test_norm_is_supremum_on_probes():
    rng = np.random.default_rng(17)
    st = random_state(rng, 3)
    fr = kms_frame(st)
    A = random_op(rng, 3)
    S = superop_matrix(lambda X: A @ X - X @ A, fr)
    nrm = op_norm_2to2(S)
    best = 0.0
    for _ in range(50):
        X = random_op(rng, 3)
        best = max(best, weighted_norm(st, 0.5, S.apply(X))
                   / weighted_norm(st, 0.5, X))
    assert best <= nrm + 1e-9
    assert best > 0.5 * nrm


# ---------------------------------------------------------------------------
# restriction


def test_restriction_drops_identity_eigenvalue():
    # when span{1} is invariant the full spectrum is the restricted one
    # plus the eigenvalue on the identity direction
    rng = np.random.default_rng(19)
    st = random_state(rng, 3)
    fr = kms_frame(st)
    A = random_op(rng, 3)

    def phi(X):
        # annihilates the identity, so span{1} is invariant
        return A @ X @ A.conj().T - np.trace(st.matrix @ X) * A @ A.conj().T

    full = superop_matrix(phi, fr)
    restricted = superop_matrix(phi, fr, restrict_traceless=True)
    wf = np.linalg.eigvals(full.matrix)
    wr = np.append(np.linalg.eigvals(restricted.matrix), 0.0)
    # pair by distance: sorting splits conjugate pairs on rounding noise
    dist = np.abs(wf[:, None] - wr[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() < 1e-8
