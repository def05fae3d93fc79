"""The Kronecker-form assembly agrees with the probed path on every model family."""

import numpy as np
import pytest
from exact_reference import superop_matrix, unit_matrix_per_jump
from scipy.optimize import linear_sum_assignment
from scipy.stats import unitary_group

from lindgap import (
    Analysis,
    GraphSpec,
    KmsFrame,
    Lindbladian,
    QuantumState,
    birth_death_spectrum,
    build_gksl,
    build_model,
    dephasing_walk,
    graph_lindblad,
    haar_avg_gibbs,
    hypercube_graph,
    lift_model,
    single_jump_model,
    tfim,
)


def _single_jump():
    m = single_jump_model(np.diag([1.0, -0.3, 0.8]), np.array(
        [[0.2, 1.0, 0.5j], [1.0, -0.4, 0.3], [-0.5j, 0.3, 0.1]]))
    return m.lind, m.state


def _dephasing_walk():
    m = dephasing_walk(2, 0.7, hypercube_graph(2))
    return m.lind, m.state


def _tfim():
    m = tfim(3, 0.9, 1.1)
    return m.lind, m.state


def _graph_with_hamiltonian():
    # sigma is degenerate on vertices 0 and 1, so a Hamiltonian mixing them
    # commutes with it
    state = QuantumState(np.diag([0.3, 0.3, 0.25, 0.15]))
    spec = GraphSpec(n_vertices=4, edges=[(0, 2), (1, 3), (2, 3)])
    m = graph_lindblad(spec, state)
    H = np.diag([0.5, 0.5, -0.2, 1.0]).astype(complex)
    H[0, 1], H[1, 0] = 0.7 - 0.2j, 0.7 + 0.2j
    return build_gksl(H, m.lind.jumps, alpha=1.3), state


def _birth_death():
    m = birth_death_spectrum([2, 3], 0.6)
    return m.model.lind, m.model.state


def _haar_gibbs():
    m = haar_avg_gibbs([0.0, 0.4, 1.1, 1.7], 1.0)
    return m.lind, m.state


def _lift():
    base = graph_lindblad(GraphSpec(n_vertices=3, edges=[(0, 1), (1, 2)]),
                          QuantumState(np.diag([0.5, 0.3, 0.2])))
    m = lift_model(base, np.diag([1.0, -0.5]))
    return m.lind, m.state


def _gns_pair():
    state = QuantumState(np.diag([0.75, 0.25]))
    om = np.log(0.75 / 0.25)
    # the GNS-detailed-balanced pair: weights 2 e^{+-om/2} on e01 and e10
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    jumps = [(2.0 * np.exp(om / 2.0), e01), (2.0 * np.exp(-om / 2.0), e01.T)]
    return Lindbladian(2, np.zeros((2, 2)), jumps), state


def _explicit_gibbs():
    # Gibbs state of a non-diagonal H: the frame lives in a rotated eigenbasis
    H = [[0.3, [0.5, 0.2], [0.1, -0.3]],
         [[0.5, -0.2], -0.1, [0.4, 0.1]],
         [[0.1, 0.3], [0.4, -0.1], 0.6]]
    spec = {"schema": "lindgap-model/1", "dim": 3, "hamiltonian": H,
            "alpha": 0.7, "sigma": {"type": "gibbs", "beta": 0.8},
            "jumps": [{"weight": 1.5, "matrix": [[0.0, 1.0, [0.0, 0.5]],
                                                 [0.0, 0.0, [0.0, 1.0]],
                                                 [0.3, 0.2, 0.0]]},
                      {"weight": 0.4, "matrix": [[1.0, 0.0, 0.0],
                                                 [0.0, -1.0, [0.2, 0.3]],
                                                 [0.0, 0.2, 0.5]]}]}
    bundle = build_model(spec)
    return bundle.lind, bundle.state


FAMILIES = {
    "single_jump": _single_jump,
    "dephasing_walk": _dephasing_walk,
    "tfim": _tfim,
    "graph_hamiltonian": _graph_with_hamiltonian,
    "birth_death": _birth_death,
    "haar_gibbs": _haar_gibbs,
    "lift": _lift,
    "gns_pair": _gns_pair,
    "explicit_gibbs": _explicit_gibbs,
}


def _rel_close(got, ref, rtol=1e-12):
    assert got.shape == ref.shape
    assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


@pytest.mark.parametrize("restricted", [True, False])
@pytest.mark.parametrize("s", [0.5])  # names the frame, KMS (s = 1/2), in the test ids
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kronecker_assembly_matches_probed_path(family, s, restricted):
    L, state = FAMILIES[family]()
    fr = KmsFrame(state)
    U = state.eigenvectors
    # the library's matrices are full-space; the traceless block is [1:, 1:]
    b = slice(1 if restricted else 0, None)
    _rel_close(fr.superop(L.unit_matrix(U))[b, b],
               superop_matrix(L.apply, fr, restrict_traceless=restricted))
    H = L.hamiltonian
    _rel_close(fr.superop(Lindbladian(L.dim, H, []).unit_matrix(U))[b, b],
               superop_matrix(lambda X: 1j * (H @ X - X @ H), fr,
                              restrict_traceless=restricted))


def test_explicit_family_has_rotated_eigenbasis():
    _, state = _explicit_gibbs()
    U = state.eigenvectors
    assert np.abs(U - np.diag(np.diag(U))).max() > 0.1


def _rotated_state(N):
    U = unitary_group.rvs(N, random_state=np.random.default_rng(5))
    return QuantumState.from_eigenvalues(np.linspace(1.0, 0.2, N), U)


def _no_jumps():
    # the frame matrix of i[H, .] alone: the jump sums are empty
    H = np.array([[0.4, 0.2 - 0.3j, 0.0], [0.2 + 0.3j, -0.1, 0.5], [0.0, 0.5, 0.7]])
    return Lindbladian(3, 1.7 * H, []), _rotated_state(3)


def _one_jump():
    J = np.array([[0.1, 0.9j, 0.0], [0.3, -0.2, 0.6], [0.0, 0.4 - 0.1j, 0.5]])
    return Lindbladian(3, np.diag([0.2, -0.5, 1.0]).astype(complex), [(0.8, J)]), \
        _rotated_state(3)


def _haar12():
    m = haar_avg_gibbs(list(np.linspace(0.0, 2.0, 12)), 1.0)
    assert len(m.lind.jumps) == 144
    return m.lind, m.state


UNIT_CASES = {**FAMILIES, "no_jumps": _no_jumps, "one_jump": _one_jump, "haar12": _haar12}


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("family", sorted(UNIT_CASES))
def test_unit_matrix_matches_per_jump_sum(family, rotated):
    L, state = UNIT_CASES[family]()
    basis = state.eigenvectors if rotated else None
    ref = unit_matrix_per_jump(L, basis)
    # one product over the jump axis sums in another order
    assert np.abs(L.unit_matrix(basis) - ref).max() <= 1e-14 * np.abs(ref).max()


def _random_gksl():
    # generic jumps and a full-rank state in a random basis: sigma need not
    # be invariant for the frame matrices to exist
    rng = np.random.default_rng(23)
    N = 4
    U = unitary_group.rvs(N, random_state=rng)
    state = QuantumState.from_eigenvalues(rng.uniform(0.1, 1.0, N), U)
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    jumps = [(float(rng.uniform(0.5, 2.0)),
              rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
             for _ in range(3)]
    return build_gksl((A + A.conj().T) / 2.0, jumps, alpha=0.8), state


REAL_CASES = {"tfim": _tfim, "haar_gibbs": _haar_gibbs,
              "graph_hamiltonian": _graph_with_hamiltonian,
              "random_gksl": _random_gksl}


@pytest.mark.parametrize("case", sorted(REAL_CASES))
def test_analysis_matrices_are_real(case):
    L, state = REAL_CASES[case]()
    an = Analysis(L, state)
    for name in ["M_D", "M_H", "M_Dr", "M_Hr"]:
        assert getattr(an, name).dtype == np.float64, name
    if case != "random_gksl":  # its dissipator is not KMS-symmetric
        split = an.split
        assert all(A.dtype == np.float64 for A in split.values + split.vectors)
    # M_D + M_H is the generator's own frame matrix
    M = an.frame.superop(L.unit_matrix(an.state.eigenvectors))
    got = an.M_D + an.M_H
    assert np.abs(got - M).max() <= 1e-14 * np.abs(M).max()
    # the frame change is a similarity: same spectrum as the unit matrix
    ref = np.linalg.eigvals(L.unit_matrix())
    dist = np.abs(np.linalg.eigvals(got)[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-12 * np.linalg.norm(got, 2)


def _units(N, entries):
    """Jumps with the given {(row, col): value} entries, one dict per jump."""
    jumps = []
    for w, ents in entries:
        J = np.zeros((N, N), dtype=complex)
        for (r, c), v in ents.items():
            J[r, c] = v
        jumps.append((w, J))
    return jumps


def _haar12_permuted():
    L, _ = _haar12()
    P = np.eye(12, dtype=complex)[np.random.default_rng(7).permutation(12)]
    return L, P, 144


def _haar12_unitary():
    L, _ = _haar12()
    return L, unitary_group.rvs(12, random_state=np.random.default_rng(8)), 0


def _lift_units():
    # each jump, a matrix unit kron diag(a, b), has two nonzeros: the dense product
    L, state = _lift()
    return L, state.eigenvectors, 0


def _mixed():
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # one matrix unit with a complex entry: the branch adds w conj(v) v, not w v^2
    jumps = _units(4, [(0.7, {(0, 1): 1.0}), (1.3, {(2, 3): 0.6 + 0.8j}),
                       (0.4, {(3, 3): 1.0})]) + [(0.9, dense)]
    H = np.diag([0.3, -0.2, 0.5, 1.1]).astype(complex)
    return Lindbladian(4, 0.8 * H, jumps), None, 3


def _n_and_n_plus_one():
    # 4 nonzeros (as many as N) and 5 both take the dense product
    four = {(0, 0): 0.5, (0, 2): -1.0j, (1, 2): 0.3, (3, 1): 2.0}
    five = {**four, (2, 3): 0.7 - 0.2j}
    return Lindbladian(4, np.zeros((4, 4)), _units(4, [(1.1, four), (0.6, five)])), \
        None, 0


def _complex_entries():
    # two nonzeros in one row and two in one column, complex phases
    jumps = _units(3, [(0.8, {(0, 1): 0.6 + 0.8j, (0, 2): -0.3j, (2, 1): 1.5 - 0.5j}),
                       (1.7, {(1, 0): np.exp(0.4j), (2, 2): -0.9 + 0.1j})])
    H = np.array([[0.2, 0.1j, 0.0], [-0.1j, -0.4, 0.3], [0.0, 0.3, 0.6]])
    return Lindbladian(3, 1.2 * H, jumps), None, 0


def _same_unit():
    jumps = _units(3, [(0.5, {(1, 2): 1.0}), (2.5, {(1, 2): 1.0}), (0.7, {(2, 1): 1.0})])
    return Lindbladian(3, np.zeros((3, 3)), jumps), None, 3


SPARSE_CASES = {"haar12_permuted": _haar12_permuted, "haar12_unitary": _haar12_unitary,
                "lift": _lift_units, "mixed": _mixed,
                "n_and_n_plus_one": _n_and_n_plus_one,
                "complex_entries": _complex_entries, "same_unit": _same_unit}


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_unit_matrix_nonzero_branch_matches_per_jump_sum(case):
    L, basis, n_sparse = SPARSE_CASES[case]()
    # the jumps with one nonzero once rotated take the nonzero branch; each
    # case pins how many do
    B = np.eye(L.dim) if basis is None else basis
    nnz = [np.count_nonzero(B.conj().T @ J @ B) for _, J in L.jumps]
    assert sum(k == 1 for k in nnz) == n_sparse
    ref = unit_matrix_per_jump(L, basis)
    assert np.abs(L.unit_matrix(basis) - ref).max() <= 1e-14 * np.abs(ref).max()


def _magnitude_by_svd(L):
    m = np.linalg.norm(L.hamiltonian, 2) \
        + sum(w * np.linalg.norm(J, 2) ** 2 for w, J in L.jumps)
    return max(2.0 * m, 1e-30)


@pytest.mark.parametrize("family", sorted(UNIT_CASES))
def test_magnitude_matches_its_svd_definition(family):
    L, state = UNIT_CASES[family]()
    ref = _magnitude_by_svd(L)
    assert abs(Analysis(L, state).magnitude - ref) <= 1e-15 * ref


def test_magnitude_of_a_jump_that_is_not_monomial():
    # two nonzeros in one row: ||J||_2 = sqrt2, not its largest entry 1
    J = np.array([[1.0, 1.0], [0.0, 0.0]])
    an = Analysis(build_gksl(np.zeros((2, 2)), [(1.0, J)]), QuantumState.maximally_mixed(2))
    assert abs(an.magnitude - 4.0) <= 1e-15 * 4.0
    assert abs(an.magnitude - _magnitude_by_svd(an.L)) <= 1e-15 * 4.0
