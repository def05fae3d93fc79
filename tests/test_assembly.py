"""The Kronecker-form assembly agrees with the probed path on every model family."""

import numpy as np
import pytest

from lindgap import (
    GraphSpec,
    KmsFrame,
    QuantumState,
    birth_death_spectrum,
    build_gksl,
    build_gns_canonical,
    build_model,
    dephasing_walk,
    generator_matrix,
    graph_lindblad,
    haar_avg_gibbs,
    hamiltonian_superop,
    hypercube_graph,
    lift_model,
    single_jump_model,
    superop_matrix,
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
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
    return build_gns_canonical(state, [(-om, e01), (om, e01.T)]), state


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
@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kronecker_assembly_matches_probed_path(family, s, restricted):
    L, state = FAMILIES[family]()
    fr = KmsFrame(state, s)
    _rel_close(generator_matrix(L, fr, restricted=restricted).matrix,
               superop_matrix(L.apply, fr, restrict_traceless=restricted).matrix)
    H = L.hamiltonian
    _rel_close(hamiltonian_superop(H, fr, restricted=restricted).matrix,
               superop_matrix(lambda X: 1j * (H @ X - X @ H), fr,
                              restrict_traceless=restricted).matrix)


def test_explicit_family_has_rotated_eigenbasis():
    _, state = _explicit_gibbs()
    U = state.eigenvectors
    assert np.abs(U - np.diag(np.diag(U))).max() > 0.1
