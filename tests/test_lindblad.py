"""Generator construction, detailed balance, and structure diagnostics."""

import tracemalloc

import numpy as np
import pytest
from exact_reference import lstsq_dbc_solve, stacked_commutant_sv

from lindgap import (
    GraphSpec,
    KmsFrame,
    QuantumState,
    build_gksl,
    build_gns_canonical,
    check_invariance,
    commutant_dimension,
    cycle_graph,
    dephasing_jumps,
    dephasing_walk,
    generator_matrix,
    graph_lindblad,
    haar_avg_gibbs,
    kernel_dimension,
    kernel_projection,
    kms_frame,
    structure_report,
    tfim,
)
from lindgap.lindblad import _commutant_singular_values, hermiticity_defect, standard_dbc_solve
from lindgap.models import PAULI_X, PAULI_Y, PAULI_Z

E01 = np.array([[0.0, 1.0], [0.0, 0.0]])
E10 = E01.T.copy()


# ---------------------------------------------------------------------------
# build_gksl


def test_gksl_dephasing_hand_values():
    L = build_gksl(np.zeros((2, 2)), [(1.0, PAULI_Z)])
    # Z X Z - X = -2X and likewise for Y; Z and 1 are fixed
    assert np.abs(L.apply(PAULI_X) + 2 * PAULI_X).max() < 1e-12
    assert np.abs(L.apply(PAULI_Y) + 2 * PAULI_Y).max() < 1e-12
    assert np.abs(L.apply(PAULI_Z)).max() < 1e-12
    assert np.abs(L.apply(np.eye(2))).max() < 1e-12


def test_gksl_alpha_scales_coherent_part_only():
    L1 = build_gksl(PAULI_X, [(1.0, PAULI_Z)], alpha=1.0)
    L2 = build_gksl(PAULI_X, [(1.0, PAULI_Z)], alpha=2.5)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    comm = 1j * (PAULI_X @ X - X @ PAULI_X)
    assert np.abs(L2.apply(X) - L1.apply(X) - 1.5 * comm).max() < 1e-12


def test_gksl_unital_and_trace_preserving():
    rng = np.random.default_rng(1)
    for _ in range(5):
        N = int(rng.integers(2, 5))
        B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        H = (B + B.conj().T) / 2
        jumps = [(float(rng.uniform(0.5, 2.0)),
                  rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
                 for _ in range(2)]
        L = build_gksl(H, jumps)
        assert np.abs(L.apply(np.eye(N))).max() < 1e-12
        rho = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        assert abs(np.trace(L.apply_adjoint(rho))) < 1e-10


def test_gksl_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="positive"):
        build_gksl(np.zeros((2, 2)), [(0.0, PAULI_Z)])


# ---------------------------------------------------------------------------
# build_gns_canonical


def test_gns_uniform_state_forces_zero_frequency():
    st = QuantumState.maximally_mixed(2)
    with pytest.raises(ValueError, match="modular eigenvector"):
        build_gns_canonical(st, [(0.3, PAULI_X)])


def test_gns_uniform_state_zero_frequency_is_double_commutator():
    st = QuantumState.maximally_mixed(2)
    L = build_gns_canonical(st, [(0.0, PAULI_X)])
    rng = np.random.default_rng(2)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # for Hermitian L_j and omega = 0 the action is -[L_j, [L_j, X]]
    dbl = -(PAULI_X @ (PAULI_X @ X - X @ PAULI_X)
            - (PAULI_X @ X - X @ PAULI_X) @ PAULI_X)
    assert np.abs(L.apply(X) - dbl).max() < 1e-12


def test_gns_qubit_pair_invariance_and_kms_db():
    st = QuantumState(np.diag([0.75, 0.25]))
    om = np.log(0.75 / 0.25)
    # sigma e01 sigma^{-1} = (mu_1/mu_2) e01 = e^{-(-log(mu_1/mu_2))} e01
    L = build_gns_canonical(st, [(-om, E01), (om, E10)])
    assert check_invariance(L, st) < 1e-10
    M = generator_matrix(L, kms_frame(st), restricted=False).matrix
    assert hermiticity_defect(M) < 1e-10


def test_gns_rejects_wrong_frequency_sign():
    st = QuantumState(np.diag([0.75, 0.25]))
    om = np.log(0.75 / 0.25)
    with pytest.raises(ValueError, match="modular eigenvector"):
        build_gns_canonical(st, [(om, E01), (-om, E10)])


def test_gns_rejects_missing_adjoint():
    st = QuantumState(np.diag([0.75, 0.25]))
    om = np.log(0.75 / 0.25)
    with pytest.raises(ValueError, match="adjoint"):
        build_gns_canonical(st, [(-om, E01)])


def test_gns_rejects_traceful_jump():
    st = QuantumState.maximally_mixed(2)
    with pytest.raises(ValueError, match="trace"):
        build_gns_canonical(st, [(0.0, np.eye(2))])


# ---------------------------------------------------------------------------
# check_invariance


def test_invariance_residual_zero_for_balanced_build():
    spec = GraphSpec(3, [(0, 1), (1, 2)])
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    assert check_invariance(m.lind, st) < 1e-12


def test_invariance_residual_positive_for_wrong_state():
    spec = GraphSpec(3, [(0, 1), (1, 2)])
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    other = QuantumState(np.diag([0.2, 0.3, 0.5]))
    assert check_invariance(m.lind, other) > 1e-3


# ---------------------------------------------------------------------------
# structure_report


def test_structure_qubit_coherent_plus_dephasing():
    L = build_gksl(PAULI_X, [(1.0, PAULI_Z)])
    st = QuantumState.maximally_mixed(2)
    rep = structure_report(L, st)
    assert rep.invariant_state_ok
    assert rep.primitive
    assert rep.commutant_dim == 1
    assert not rep.kms_db
    assert rep.standard_dbc
    assert rep.kernel_dim_LD == 2
    assert rep.classification == "hypocoercive"
    # recovered K equals the Hamiltonian up to a multiple of the identity
    K = rep.standard_dbc_K
    K0 = K - np.trace(K) / 2 * np.eye(2)
    assert np.abs(K0 - PAULI_X).max() < 1e-8


def test_structure_dbc_recovery_scales_with_alpha():
    L = build_gksl(PAULI_X, [(1.0, PAULI_Z)], alpha=2.5)
    rep = structure_report(L, QuantumState.maximally_mixed(2))
    K = rep.standard_dbc_K
    K0 = K - np.trace(K) / 2 * np.eye(2)
    assert np.abs(K0 - 2.5 * PAULI_X).max() < 1e-8


def test_structure_dephasing_alone_not_primitive():
    L = build_gksl(np.zeros((2, 2)), [(1.0, PAULI_Z)])
    rep = structure_report(L, QuantumState.maximally_mixed(2))
    assert not rep.primitive
    assert rep.kernel_dim_LD == 2
    assert rep.kms_db and rep.gns_db
    assert rep.classification == "non-primitive"


def test_structure_dephasing_kernel_grows_as_diagonal_algebra():
    for n in (1, 2, 3):
        N = 2**n
        L = build_gksl(np.zeros((N, N)), dephasing_jumps(n, 1.0))
        rep = structure_report(L, QuantumState.maximally_mixed(N))
        assert rep.kernel_dim_LD == N
        assert rep.commutant_dim == N


def test_structure_coercive_classification():
    # jumps spanning enough directions leave no kernel beyond the identity
    st = QuantumState.maximally_mixed(2)
    L = build_gksl(np.zeros((2, 2)),
                   [(1.0, PAULI_X), (1.0, PAULI_Y), (1.0, PAULI_Z)])
    rep = structure_report(L, st)
    assert rep.classification == "coercive"
    assert rep.primitive


def test_structure_rejects_non_invariant_state():
    L = build_gksl(np.zeros((2, 2)), [(1.0, E01)])
    with pytest.raises(ValueError, match="invariant"):
        structure_report(L, QuantumState.maximally_mixed(2))


# ---------------------------------------------------------------------------
# standard_dbc_solve


def _random_unitary(rng, N):
    Z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@pytest.mark.parametrize("s", [0.5, 1.0, 0.3])
@pytest.mark.parametrize("N", [2, 3, 6])
def test_dbc_closed_form_matches_least_squares(N, s):
    # a random GKSL generator is far from standard detailed balance, so both
    # the minimizer and the nonzero residual are compared; s != 1/2 makes
    # the entry weights of the fit asymmetric
    rng = np.random.default_rng(100 * N + int(10 * s))
    for _ in range(2):
        B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        jumps = [(float(rng.uniform(0.5, 2.0)),
                  rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
                 for _ in range(2)]
        L = build_gksl((B + B.conj().T) / 2, jumps, alpha=float(rng.uniform(0.5, 2)))
        st = QuantumState.from_eigenvalues(rng.uniform(0.1, 1.0, size=N),
                                           _random_unitary(rng, N))
        frame = KmsFrame(st, s)
        K, defect = standard_dbc_solve(L, frame)
        K_ref, defect_ref = lstsq_dbc_solve(L, frame)
        assert np.linalg.norm(K - K_ref) <= 1e-10 * np.linalg.norm(K_ref)
        assert abs(defect - defect_ref) <= 1e-12
        assert 0.1 < defect < 1.0
        assert np.abs(K - K.conj().T).max() < 1e-12
        assert abs(np.trace(K)) < 1e-12 * np.linalg.norm(K)


@pytest.mark.parametrize("s", [0.5, 1.0, 0.3])
def test_dbc_recovers_commuting_hamiltonian_for_gibbs_state(s):
    # a detailed-balanced hopping dissipator for a Gibbs state plus alpha H
    # with [H, sigma] = 0, all in a random basis: L - L* = 2i alpha [H, .]
    rng = np.random.default_rng(31)
    lam = np.array([0.0, 0.4, 1.1, 1.7, 2.6])
    base = haar_avg_gibbs(lam, beta=1.3)
    V = _random_unitary(rng, len(lam))
    st = QuantumState(V @ base.state.matrix @ V.conj().T)
    H = V @ np.diag(rng.standard_normal(len(lam))) @ V.conj().T
    alpha = 1.7
    jumps = [(w, V @ Lj @ V.conj().T) for w, Lj in base.lind.jumps]
    L = build_gksl(H, jumps, alpha=alpha)
    K, defect = standard_dbc_solve(L, KmsFrame(st, s))
    K_true = alpha * (H - np.trace(H) / len(lam) * np.eye(len(lam)))
    assert defect < 1e-12
    assert np.linalg.norm(K - K_true) <= 1e-10 * np.linalg.norm(K_true)


def test_dbc_recovers_weak_coherent_part():
    # ||L - L*|| is 1e-9 of ||L||: still a commutator to fit, not zero
    m = tfim(2, 0.9, 1.1)
    L = build_gksl(m.lind.hamiltonian, m.lind.jumps, alpha=1e-9)
    K, defect = standard_dbc_solve(L, kms_frame(m.state))
    H = 1e-9 * m.lind.hamiltonian
    assert defect < 1e-6
    assert np.linalg.norm(K - H) <= 1e-6 * np.linalg.norm(H)


def test_dbc_solve_runs_at_32_levels():
    # uniform sigma: L - L* = 2i[H, .] and the tfim Hamiltonian is traceless.
    # A least squares over the 1023 commutator columns would need ~17 GB here.
    m = tfim(5, 0.9, 1.1)
    H = m.lind.hamiltonian
    K, defect = standard_dbc_solve(m.lind, kms_frame(m.state))
    assert defect < 1e-12
    assert np.linalg.norm(K - H) <= 1e-10 * np.linalg.norm(H)


def test_dbc_solve_memory_stays_quartic():
    # N = 16: one N^2 x N^2 complex matrix is 1 MB; the least-squares design
    # matrix took 541 MB of traced allocations
    m = tfim(4, 0.9, 1.1)
    frame = kms_frame(m.state)
    tracemalloc.start()
    try:
        standard_dbc_solve(m.lind, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


# ---------------------------------------------------------------------------
# kernel_projection


def test_kernel_projection_dephasing_qubit():
    st = QuantumState.maximally_mixed(2)
    LD = build_gksl(np.zeros((2, 2)), [(1.0, PAULI_Z)])
    split = kernel_projection(LD, st)
    assert split.dim0 == 1
    assert split.dim_plus == 2
    # the kernel direction is Z
    fr = split.frame
    cz = fr.coords(PAULI_Z)[1:]
    assert np.linalg.norm(split.pi0.matrix @ cz - cz) < 1e-10
    P = split.pi0.matrix
    assert np.abs(P @ P - P).max() < 1e-10
    assert np.abs(P - P.conj().T).max() < 1e-10


def test_kernel_projection_rejects_non_db_dissipator():
    # a one-way classical jump is not reversible for the uniform state
    # (at N=2 the asymmetry hides in the identity row, so use N=3)
    st = QuantumState.maximally_mixed(3)
    E01_3 = np.zeros((3, 3))
    E01_3[0, 1] = 1.0
    LD = build_gksl(np.zeros((3, 3)), [(1.0, E01_3)])
    with pytest.raises(ValueError, match="Hermitian"):
        kernel_projection(LD, st)


# ---------------------------------------------------------------------------
# commutant vs kernel


def test_commutant_matches_full_kernel_on_graph_models():
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(3, 6))
        # random connected-or-not edge set over n vertices
        edges = []
        for r in range(n - 1):
            if rng.random() < 0.7:
                edges.append((r, r + 1))
        if not edges:
            edges = [(0, 1)]
        used = sorted({v for e in edges for v in e})
        spec = GraphSpec(len(used), [(used.index(r), used.index(s))
                                     for r, s in edges])
        mu = rng.uniform(0.5, 2.0, size=spec.n_vertices)
        st = QuantumState(np.diag(mu / mu.sum()))
        m = graph_lindblad(spec, st)
        M = generator_matrix(m.lind, kms_frame(st), restricted=False).matrix
        assert kernel_dimension(M) == len(spec.components)
        assert commutant_dimension(m.lind) == len(spec.components)


def test_no_generators_means_full_commutant():
    L = build_gksl(np.zeros((3, 3)), [])
    assert commutant_dimension(L) == 9
    # a zero jump is a generator whose commutators all vanish
    L = build_gksl(np.zeros((3, 3)), [(1.0, np.zeros((3, 3)))])
    assert commutant_dimension(L) == 9


def _random_gksl(N, with_H, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    H = (B + B.conj().T) / 2 if with_H else np.zeros((N, N))
    jumps = [(float(rng.uniform(0.5, 2.0)),
              rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
             for _ in range(2)]
    return build_gksl(H, jumps)


def _block_diagonal():
    # H and the jump both preserve span{e0, e1} and span{e2, e3}
    H = np.zeros((4, 4))
    H[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    H[2:, 2:] = [[1.0, 2.0], [2.0, -1.0]]
    J = np.zeros((4, 4))
    J[0, 1] = 1.0
    J[3, 2] = 0.5
    return build_gksl(H, [(1.0, J)])


def _ladder_lowering():
    # jumps that are not Hermitian and no Hamiltonian
    A = np.diag([1.0, np.sqrt(2.0)], k=1)
    return build_gksl(np.zeros((3, 3)), [(1.0, A), (0.5, A @ A)])


COMMUTANT_CASES = {
    "tfim2": (lambda: tfim(2, 0.9, 1.1).lind, 1),
    "tfim3": (lambda: tfim(3, 0.9, 1.1).lind, 1),
    "tfim4": (lambda: tfim(4, 0.9, 1.1).lind, 1),
    "haar6": (lambda: haar_avg_gibbs([0.0, 0.3, 0.7, 1.1, 1.6, 2.0], 1.0).lind, 1),
    "haar12": (lambda: haar_avg_gibbs(np.linspace(0.0, 2.0, 12), 1.0).lind, 1),
    "walk3": (lambda: dephasing_walk(3, 1.0, cycle_graph(8)).lind, 1),
    **{f"random{N}{'H' if h else ''}": (lambda N=N, h=h: _random_gksl(N, h, 10 * N + h), 1)
       for N in (2, 3, 5) for h in (False, True)},
    "lowering": (_ladder_lowering, 1),
    "block_diagonal": (_block_diagonal, 2),
    "B_kron_I3": (lambda: build_gksl(np.zeros((6, 6)),
                                     [(1.0, np.kron(E01, np.eye(3)))]), 9),
    "hamiltonian_only": (lambda: build_gksl(np.diag([0.0, 1.0, 2.0]), []), 3),
}


@pytest.mark.parametrize("name", list(COMMUTANT_CASES))
def test_commutant_matches_stacked_complex_svd(name):
    make, dim = COMMUTANT_CASES[name]
    L = make()
    sv = _commutant_singular_values(L)
    ref = stacked_commutant_sv(L)
    assert sv.shape == ref.shape
    assert np.abs(sv - ref).max() <= 1e-12 * ref[0]
    dim_ref = int(np.sum(ref < 1e-9 * ref[0]))
    assert commutant_dimension(L) == dim_ref == dim


def test_commutant_memory_stays_below_stacked_blocks():
    # N = 12 with 144 jumps: the complex stack of 288 N^2 x N^2 blocks alone
    # is 95 MB, about 190 MB with its vstack copy
    L = haar_avg_gibbs(np.linspace(0.0, 2.0, 12), 1.0).lind
    tracemalloc.start()
    try:
        commutant_dimension(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6


def test_hermiticity_defect_is_relative_spectral_norm():
    rng = np.random.default_rng(41)
    for N in (2, 5, 9):
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        ref = np.linalg.norm(M - M.conj().T, 2) / np.linalg.norm(M, 2)
        assert abs(hermiticity_defect(M) - ref) <= 1e-13 * ref
        assert hermiticity_defect(M + M.conj().T) == 0.0
    assert hermiticity_defect(np.zeros((3, 3))) == 0.0
