"""Weighted inner products, KMS frames, and superoperator matrices."""

import numpy as np
import pytest
from exact_reference import (frame_basis, from_coords, gram_schmidt_q, superop_matrix,
                             weighted_inner, weighted_norm)
from scipy.optimize import linear_sum_assignment

from lindgap import KmsFrame, QuantumState
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
# KmsFrame


def test_frame_unital_qubit_gram():
    fr = KmsFrame(QuantumState(np.eye(2) / 2))
    basis = frame_basis(fr)
    G = np.array([[weighted_inner(fr.state, 0.5, Ej, Ek)
                   for Ek in basis] for Ej in basis])
    assert np.abs(G - np.eye(4)).max() < 1e-10


def test_frame_maximally_mixed_qubit_is_exactly_sqrt_half():
    # the qubit with sigma_z dephasing and a sigma_x Hamiltonian at alpha = 1
    # has a defective double eigenvalue -2, and one ulp in _Q splits it by
    # sqrt(eps); these entries are fl(sqrt(1/2)), one ulp above fl(1/fl(sqrt2))
    Q = KmsFrame(QuantumState.maximally_mixed(2))._Q
    expected = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(Q, expected), (
        f"frame rounding moved: _Q = {[float(x).hex() for x in Q.ravel()]}; the "
        "gap tests at the exceptional point depend on it: "
        "test_cli.py::test_gap_json_and_csv, test_spectral.py::test_gap_qubit_model "
        "and test_spectral.py::test_gap_restricted_spectrum_qubit")


def _spectra():
    rng = np.random.default_rng(17)
    for N in range(2, 17):
        yield pytest.param(rng.uniform(0.05, 1.0, N), id=f"random-{N}")
    yield pytest.param([3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 1.0], id="degenerate")
    yield pytest.param([1.0] * 5 + [0.5], id="one-level-apart")
    yield pytest.param(np.logspace(0.0, -9.0, 10), id="span-1e-9")


@pytest.mark.parametrize("weights", list(_spectra()))
def test_frame_diagonal_basis_is_gram_schmidt(weights):
    # the closed form of _Q against the Gram-Schmidt it replaces
    st = QuantumState.from_eigenvalues(weights)
    Q = KmsFrame(st)._Q
    N = st.dim
    assert np.abs(Q - gram_schmidt_q(st.eigenvalues)).max() <= 1e-15
    assert np.abs(Q.T @ Q - np.eye(N)).max() <= 1e-15
    assert np.array_equal(Q[:, 0], np.sqrt(st.eigenvalues))


def test_frame_identity_first_and_traceless_rest():
    st = QuantumState(np.diag([0.75, 0.25]))
    basis = frame_basis(KmsFrame(st))
    assert np.abs(basis[0] - np.eye(2)).max() < 1e-12
    assert weighted_inner(st, 0.5, basis[0], basis[0]) == pytest.approx(1.0)
    for E in basis[1:]:
        assert abs(np.trace(st.matrix @ E)) < 1e-10


def test_frame_gram_identity_random_states():
    rng = np.random.default_rng(42)
    for case in range(50):
        N = int(rng.integers(2, 9))
        st = random_state(rng, N)
        fr = KmsFrame(st)
        C = np.stack([fr.coords(E) for E in frame_basis(fr)], axis=1)
        # coords are KMS coordinates, so the Gram matrix is C^dag C
        G = C.conj().T @ C
        assert np.abs(G - np.eye(N * N)).max() < 1e-10, f"case {case}, N={N}"


def test_frame_coords_isometry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        N = int(rng.integers(2, 7))
        st = random_state(rng, N)
        fr = KmsFrame(st)
        X = random_op(rng, N)
        c = fr.coords(X)
        assert np.linalg.norm(c) == pytest.approx(weighted_norm(st, 0.5, X),
                                                  rel=1e-10)
        assert np.abs(from_coords(fr, c) - X).max() < 1e-9


def test_frame_basis_is_hermitian_and_kms_orthonormal():
    rng = np.random.default_rng(29)
    for N in (2, 3, 5):
        st = random_state(rng, N)
        basis = frame_basis(KmsFrame(st))
        for E in basis:
            assert np.abs(E - E.conj().T).max() < 1e-12 * np.abs(E).max()
        G = np.array([[weighted_inner(st, 0.5, Ej, Ek) for Ek in basis]
                      for Ej in basis])
        assert np.abs(G - np.eye(N * N)).max() < 1e-10


def test_coords_real_for_hermitian_operators_and_round_trip():
    rng = np.random.default_rng(31)
    for N in (2, 3, 6):
        fr = KmsFrame(random_state(rng, N))
        A = random_op(rng, N)
        X = (A + A.conj().T) / 2.0  # exactly Hermitian
        c = fr.coords(X)
        assert c.dtype == np.float64
        assert np.linalg.norm(c) == pytest.approx(weighted_norm(fr.state, 0.5, X),
                                                  rel=1e-12)
        assert np.abs(from_coords(fr, c) - X).max() < 1e-12 * np.abs(X).max()
        # a non-Hermitian operator keeps complex coordinates
        cA = fr.coords(A)
        assert cA.dtype == np.complex128
        assert np.abs(from_coords(fr, cA) - A).max() < 1e-12 * np.abs(A).max()
        # a stack of operators gives the stack of their coordinates
        stack = fr.coords(np.stack([X, 2.0 * X]))
        assert stack.dtype == np.float64
        assert np.abs(stack - np.stack([c, fr.coords(2.0 * X)])).max() <= 1e-14 * np.abs(c).max()


def test_frame_keeps_no_superoperator_sized_array():
    fr = KmsFrame(random_state(np.random.default_rng(5), 6))
    sizes = [np.size(v) for v in vars(fr).values() if isinstance(v, np.ndarray)]
    assert sizes and max(sizes) <= fr.size


# ---------------------------------------------------------------------------
# superop_matrix


def test_superop_identity_map():
    fr = KmsFrame(QuantumState(np.diag([0.6, 0.4])))
    S = superop_matrix(lambda X: X, fr)
    assert np.abs(S - np.eye(4)).max() < 1e-10


def test_superop_commutator_spectrum():
    fr = KmsFrame(QuantumState(np.eye(2) / 2))
    S = superop_matrix(lambda X: 1j * (PAULI_Z @ X - X @ PAULI_Z), fr,
                       restrict_traceless=True)
    w = np.sort_complex(np.linalg.eigvals(S))
    expect = np.sort_complex(np.array([0.0, 2.0j, -2.0j]))
    assert np.abs(w - expect).max() < 1e-10


def test_superop_double_commutator_spectrum():
    Z = PAULI_Z
    fr = KmsFrame(QuantumState(np.eye(2) / 2))
    S = superop_matrix(lambda X: -(Z @ (Z @ X - X @ Z) - (Z @ X - X @ Z) @ Z),
                       fr, restrict_traceless=True)
    assert np.abs(S - S.conj().T).max() < 1e-10
    w = np.sort(np.linalg.eigvalsh(S))
    assert np.abs(w - np.array([-4.0, -4.0, 0.0])).max() < 1e-10


def test_superop_rejects_nonlinear_map():
    fr = KmsFrame(QuantumState(np.eye(2) / 2))
    with pytest.raises(ValueError, match="linear"):
        superop_matrix(lambda X: X @ X, fr)


def test_superop_apply_matches_map():
    rng = np.random.default_rng(5)
    st = random_state(rng, 3)
    fr = KmsFrame(st)
    A = random_op(rng, 3)

    def phi(X):
        return A @ X + X @ A.conj().T

    S = superop_matrix(phi, fr)
    for _ in range(5):
        X = random_op(rng, 3)
        assert np.abs(from_coords(fr, S @ fr.coords(X)) - phi(X)).max() < 1e-9


# ---------------------------------------------------------------------------
# the KMS adjoint: the conjugate transpose


def test_adjoint_hermitian_fixed_point():
    fr = KmsFrame(QuantumState(np.diag([0.7, 0.3])))
    Z = PAULI_Z

    def dbl(X):
        return -(Z @ (Z @ X - X @ Z) - (Z @ X - X @ Z) @ Z)

    S = superop_matrix(dbl, fr, restrict_traceless=True)
    assert np.abs(S.conj().T - S).max() < 1e-10


def test_adjoint_commutator_antihermitian():
    # [H, sigma] = 0 makes i[H, .] anti-selfadjoint for the KMS product
    st = QuantumState(np.diag([0.7, 0.3]))
    fr = KmsFrame(st)
    H = np.diag([1.0, -2.0])
    S = superop_matrix(lambda X: 1j * (H @ X - X @ H), fr)
    assert np.abs(S.conj().T + S).max() < 1e-10


def test_adjoint_probe_identity():
    rng = np.random.default_rng(11)
    st = random_state(rng, 3)
    fr = KmsFrame(st)
    A = random_op(rng, 3)
    B = random_op(rng, 3)

    def phi(X):
        return A @ X @ B + B.conj().T @ X

    S = superop_matrix(phi, fr)
    Sstar = S.conj().T
    assert np.abs(Sstar.conj().T - S).max() == 0.0
    for _ in range(20):
        X, Y = random_op(rng, 3), random_op(rng, 3)
        lhs = weighted_inner(st, 0.5, from_coords(fr, Sstar @ fr.coords(X)), Y)
        rhs = weighted_inner(st, 0.5, X, from_coords(fr, S @ fr.coords(Y)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# the 2 -> 2 norm: the spectral norm


def test_norm_identity_map():
    fr = KmsFrame(QuantumState(np.diag([0.6, 0.4])))
    assert np.linalg.norm(superop_matrix(lambda X: X, fr), 2) == pytest.approx(1.0)


def test_norm_double_commutator():
    Z = PAULI_Z
    fr = KmsFrame(QuantumState(np.eye(2) / 2))
    S = superop_matrix(lambda X: -(Z @ (Z @ X - X @ Z) - (Z @ X - X @ Z) @ Z),
                       fr, restrict_traceless=True)
    assert np.linalg.norm(S, 2) == pytest.approx(4.0, abs=1e-10)


def test_norm_commutator_bounded_by_spread():
    # [H, sigma] = 0 makes i[H, .] normal in the KMS frame, so its norm is
    # the largest Bohr frequency lambda_max - lambda_min
    rng = np.random.default_rng(13)
    for _ in range(10):
        N = int(rng.integers(2, 6))
        st = random_state(rng, N)
        fr = KmsFrame(st)
        hdiag = rng.standard_normal(N)
        V = st.eigenvectors
        H = V @ np.diag(hdiag) @ V.conj().T
        S = superop_matrix(lambda X: 1j * (H @ X - X @ H), fr,
                           restrict_traceless=True)
        spread = hdiag.max() - hdiag.min()
        assert np.linalg.norm(S, 2) <= spread + 1e-9
        assert np.linalg.norm(S, 2) == pytest.approx(spread, rel=1e-9)


def test_norm_is_supremum_on_probes():
    rng = np.random.default_rng(17)
    st = random_state(rng, 3)
    fr = KmsFrame(st)
    A = random_op(rng, 3)
    S = superop_matrix(lambda X: A @ X - X @ A, fr)
    nrm = np.linalg.norm(S, 2)
    best = 0.0
    for _ in range(50):
        X = random_op(rng, 3)
        best = max(best, weighted_norm(st, 0.5, from_coords(fr, S @ fr.coords(X)))
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
    fr = KmsFrame(st)
    A = random_op(rng, 3)

    def phi(X):
        # annihilates the identity, so span{1} is invariant
        return A @ X @ A.conj().T - np.trace(st.matrix @ X) * A @ A.conj().T

    full = superop_matrix(phi, fr)
    restricted = superop_matrix(phi, fr, restrict_traceless=True)
    wf = np.linalg.eigvals(full)
    wr = np.append(np.linalg.eigvals(restricted), 0.0)
    # pair by distance: sorting splits conjugate pairs on rounding noise
    dist = np.abs(wf[:, None] - wr[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() < 1e-8
