"""Model builders: closed-form constants cross-checked against the generic machinery."""

import math

import numpy as np
import pytest
from exact_reference import kernel_dimension, superop_matrix, unit_matrix_per_jump

from lindgap import (
    Analysis,
    GraphSpec,
    KmsFrame,
    PAULI_X,
    PAULI_Z,
    QuantumState,
    birth_death_spectrum,
    build_gksl,
    build_model,
    canonical_path_bound,
    cycle_graph,
    dephasing_walk,
    graph_lindblad,
    haar_avg_gibbs,
    hypercube_graph,
    lift_model,
    matrix_unit,
    simplified_rate,
    single_jump_model,
    spectral_gap,
    structural_constants,
    structure_report,
    tfim,
)
from lindgap.models import _support_connected


def split_form(H, LD, state):
    return Analysis(build_gksl(H, LD.jumps), state)


def dissipation_spectrum(lind, state):
    """Eigenvalues of -L^D in the KMS frame, ascending; independent route."""
    fr = KmsFrame(state)
    M = superop_matrix(lind.apply, fr)
    return np.linalg.eigvalsh(-(M + M.conj().T) / 2.0)


# ---------------------------------------------------------------------------
# single-jump double-commutator models


def test_single_jump_qubit_constants():
    m = single_jump_model(PAULI_Z, PAULI_X)
    assert m.lambda_D == pytest.approx(4.0, abs=1e-12)
    assert m.norm_LD == pytest.approx(4.0, abs=1e-12)
    assert m.s_H == pytest.approx(2.0, abs=1e-12)
    assert m.primitive
    assert m.nu_closed == pytest.approx(0.002635081182688555, rel=1e-12)
    sc = structural_constants(split_form(PAULI_X, m.lind, m.state))
    assert sc.lambda_D == pytest.approx(m.lambda_D, abs=1e-10)
    assert sc.s_H == pytest.approx(m.s_H, abs=1e-10)


def test_single_jump_three_level_constants():
    A = np.diag([0.0, 1.0, 3.0])
    H = np.ones((3, 3)) - np.eye(3)
    m = single_jump_model(A, H)
    # gaps^2 of A: {1, 4, 9}
    assert m.lambda_D == pytest.approx(1.0, abs=1e-12)
    assert m.norm_LD == pytest.approx(9.0, abs=1e-12)
    w = dissipation_spectrum(m.lind.dissipator(), m.state)
    assert w[:3].max() < 1e-10
    assert w[3] == pytest.approx(m.lambda_D, abs=1e-10)
    assert w[-1] == pytest.approx(m.norm_LD, abs=1e-10)
    sc = structural_constants(split_form(H, m.lind, m.state))
    assert sc.s_H == pytest.approx(m.s_H, abs=1e-10)


def test_single_jump_detects_non_primitive():
    m = single_jump_model(np.diag([0.0, 1.0, 3.0]),
                          np.diag([2.0, 1.0, 0.0]))
    assert not m.primitive
    assert m.nu_closed is None
    assert m.s_H == pytest.approx(0.0, abs=1e-12)


def test_single_jump_rejects_degenerate_spectrum():
    with pytest.raises(ValueError, match="simple spectrum"):
        single_jump_model(np.diag([1.0, 1.0, 2.0]), np.eye(3))


# ---------------------------------------------------------------------------
# canonical paths


def test_path_bound_two_state_chain():
    Hhat = np.array([[-1.0, 1.0], [1.0, -1.0]])
    pb = canonical_path_bound(Hhat)
    assert pb.K == pytest.approx(2.0)
    assert pb.bound == pytest.approx(1.0)
    exact = math.sqrt(2.0 * np.linalg.eigvalsh(-Hhat)[1])
    assert pb.bound <= exact + 1e-9


def random_connected_laplacian(rng, n):
    while True:
        A = (rng.random((n, n)) < 0.45).astype(float)
        A = np.triu(A, 1)
        A = A + A.T
        spec = None
        try:
            spec = GraphSpec(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if A[i, j] > 0])
        except ValueError:
            continue
        if len(spec.components) == 1:
            return A - np.diag(A.sum(axis=1))


def test_path_bound_below_exact_gap_on_random_graphs():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        Hhat = random_connected_laplacian(rng, n)
        pb = canonical_path_bound(Hhat)
        exact = math.sqrt(2.0 * np.linalg.eigvalsh(-Hhat)[1])
        assert exact - pb.bound >= -1e-9


def test_path_bound_weighted_reversible():
    rng = np.random.default_rng(73)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        base = random_connected_laplacian(rng, n)
        mu = rng.uniform(0.2, 2.0, size=n)
        cond = np.triu(base, 1) * rng.uniform(0.5, 2.0, size=(n, n))
        cond = cond + cond.T
        Hhat = cond / mu[:, None]
        Hhat -= np.diag(Hhat.sum(axis=1))
        pb = canonical_path_bound(Hhat, mu_hat=mu)
        D = np.sqrt(mu)
        sym = (D[:, None] / D[None, :]) * Hhat
        exact = math.sqrt(2.0 * np.linalg.eigvalsh(-(sym + sym.T) / 2.0)[1])
        assert exact - pb.bound >= -1e-9


def test_path_bound_validation():
    with pytest.raises(ValueError, match="symmetric"):
        canonical_path_bound(np.array([[-1.0, 1.0], [3.0, -3.0]]))
    with pytest.raises(ValueError, match="disconnected"):
        canonical_path_bound(np.diag([0.0, 0.0]))
    with pytest.raises(ValueError, match="sum to zero"):
        canonical_path_bound(np.array([[-1.0, 2.0], [2.0, -1.0]]))


# ---------------------------------------------------------------------------
# dephasing walk


def test_walk_constants_match_generic_route():
    m = dephasing_walk(2, 1.0, cycle_graph(4))
    assert m.laplacian_gap == pytest.approx(2.0, abs=1e-12)
    assert m.lambda_D == pytest.approx(2.0)
    assert m.norm_LD == pytest.approx(4.0)
    assert m.s_H == pytest.approx(2.0)
    sc = structural_constants(split_form(m.lind.hamiltonian, m.lind, m.state))
    assert sc.lambda_D == pytest.approx(m.lambda_D, abs=1e-9)
    assert sc.norm_LD == pytest.approx(m.norm_LD, abs=1e-9)
    assert sc.s_H == pytest.approx(m.s_H, abs=1e-9)
    assert m.nu_closed > 0


def test_walk_on_hypercube():
    m = dephasing_walk(2, 0.7, hypercube_graph(2))
    # n-cube Laplacian gap is 2
    assert m.laplacian_gap == pytest.approx(2.0, abs=1e-12)
    assert m.degree == 2
    assert m.lambda_D == pytest.approx(1.4)


def test_walk_rejects_bad_graphs():
    with pytest.raises(ValueError, match="regular"):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = A[1, 2] = A[2, 1] = 1.0
        A[2, 3] = A[3, 2] = A[3, 0] = A[0, 3] = 1.0
        A[0, 2] = A[2, 0] = 1.0
        dephasing_walk(2, 1.0, A)
    with pytest.raises(ValueError, match="connected"):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = 1.0
        dephasing_walk(2, 1.0, A)
    with pytest.raises(ValueError, match="symmetric"):
        A = np.zeros((2, 2))
        A[0, 1] = 1.0
        dephasing_walk(1, 1.0, A)


# ---------------------------------------------------------------------------
# transverse-field Ising


def test_tfim_coupling_strength():
    m = tfim(2, 1.0, 1.0)
    sc = structural_constants(split_form(m.lind.hamiltonian, m.lind, m.state))
    assert sc.s_H == pytest.approx(2.0, abs=1e-9)
    assert sc.lambda_D == pytest.approx(2.0, abs=1e-9)
    assert sc.norm_LD == pytest.approx(4.0, abs=1e-9)
    assert m.s_H == pytest.approx(2.0)


CLOSED_RATE_MODELS = {
    **{f"tfim-n{n}-h{h}": (lambda n=n, h=h: tfim(n, h, 0.8))
       for n in (2, 3, 4) for h in (0.4, 1.0, 2.5)},
    **{f"walk-{name}-n{n}": (lambda n=n, graph=graph: dephasing_walk(n, 0.6, graph(n)))
       for n in (1, 2, 3) for name, graph in
       (("cycle", lambda n: cycle_graph(2**n)), ("hypercube", hypercube_graph))},
}


@pytest.mark.parametrize("name", CLOSED_RATE_MODELS)
def test_closed_form_rate_never_exceeds_the_certificate(name):
    # norm_LH_bound bounds ||i[H, .]|| <= 2 ||H||, not ||H||: the measured
    # ||L^H Pi_+|| reaches 2d on the walks
    m = CLOSED_RATE_MODELS[name]()
    sc = Analysis(m.lind, m.state).constants
    assert sc.norm_LH_plus <= m.norm_LH_bound * (1 + 1e-12)
    assert m.nu_closed <= simplified_rate(sc) * (1 + 1e-12)


def test_tfim_validation():
    with pytest.raises(ValueError, match="two qubits"):
        tfim(1, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        tfim(2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# weighted-graph Lindbladians


def test_graph_spec_validation():
    with pytest.raises(ValueError, match="self-loop"):
        GraphSpec(3, [(0, 0), (1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        GraphSpec(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        GraphSpec(3, [(0, 3)])
    with pytest.raises(ValueError, match="isolated"):
        GraphSpec(4, [(0, 1)])
    with pytest.raises(ValueError, match="positive"):
        GraphSpec(2, [(0, 1)], weights={(0, 1): 0.0})


def test_graph_spec_components_are_ordered_by_least_vertex():
    assert GraphSpec(6, [(3, 0), (5, 1), (2, 4)]).components == [[0, 3], [1, 5], [2, 4]]
    # whichever direction each edge is given in
    edges = [(0, 3), (4, 1), (5, 2), (2, 4), (6, 7)]
    for given in (edges, [(v, u) for u, v in edges]):
        assert GraphSpec(8, given).components == [[0, 3], [1, 2, 4, 5], [6, 7]]


def test_support_connectivity_takes_edges_either_way():
    path = np.diag(np.ones(3), 1)  # 0 -> 1 -> 2 -> 3, one direction only
    assert _support_connected(path, 0.5)
    assert _support_connected(path.T, 0.5)
    split = path.copy()
    split[1, 2] = 0.25  # below the tolerance: {0, 1} and {2, 3}
    assert not _support_connected(split, 0.5)
    assert not _support_connected(split + split.T, 0.5)


def test_graph_spec_weight_keys_either_orientation():
    def jump_weights(edge):
        bundle = build_model({"schema": "lindgap-model/1", "model": "graph",
                              "params": {"n_vertices": 3, "edges": [[0, 1], edge],
                                         "weights": [0.5, 2.0],
                                         "sigma": [0.5, 0.3, 0.2]}})
        return [w for w, _ in bundle.lind.jumps]

    assert jump_weights([2, 1]) == jump_weights([1, 2])
    assert jump_weights([2, 1])[2] == pytest.approx(4.0 * 2.0 * math.sqrt(0.3 / 0.2),
                                                    rel=1e-12)


def unit_action(walk, coherence):
    """Unit matrix of the map sending e_jj to diag(walk[:, j]) and each
    coherence e_jk (j != k) to coherence[j, k] e_jk."""
    N = walk.shape[0]
    G = np.diag(coherence.reshape(-1)).astype(complex)
    diag = np.arange(N) * (N + 1)
    G[np.ix_(diag, diag)] = walk
    return G


def haar_averaged_action(lam, beta):
    """Unit matrix of the Haar average with f2 = |f(lam_i - lam_j)|^2 =
    e^{-beta (lam_i - lam_j) / 2}: e_ii feeds e_jj at rate f2[i, j] / N, and
    e_kl decays at sum_i (f2[i, k] + f2[i, l]) / (2N)."""
    lam = np.asarray(lam)
    N = len(lam)
    f2 = np.exp(-beta * (lam[:, None] - lam[None, :]) / 2.0)
    hop = f2.T / N
    np.fill_diagonal(hop, 0.0)
    out = f2.sum(axis=0) / N
    return unit_action(hop - np.diag(hop.sum(axis=1)), -0.5 * (out[:, None] + out[None, :]))


HAAR_LEVELS = [0.0, 0.4, 1.1, 1.7]

CLOSED_FORM_MODELS = {
    # two components, non-uniform sigma, unequal weights
    "graph": lambda: graph_lindblad(
        GraphSpec(5, [(0, 1), (1, 2), (3, 4)], weights={(0, 1): 0.5, (1, 2): 2.0,
                                                        (3, 4): 1.3}),
        QuantumState(np.diag([0.3, 0.25, 0.1, 0.2, 0.15]))),
    "birth_death": lambda: birth_death_spectrum([2, 3], 0.7).model,
    "haar_gibbs": lambda: haar_avg_gibbs(HAAR_LEVELS, 1.3).model,
}


@pytest.mark.parametrize("name", CLOSED_FORM_MODELS)
def test_graph_builders_match_their_closed_forms(name):
    # the per-jump reference, not the production assembly, against the walk
    # on diagonal units and kappa on coherences; for haar_gibbs also against
    # the directly averaged action, whose coherences carry the self-decay 1/N
    m = CLOSED_FORM_MODELS[name]()
    G = unit_matrix_per_jump(m.lind)
    scale = max(np.abs(np.diag(m.L_cl)).max(), 1.0)
    assert np.abs(G - unit_action(m.L_cl, m.kappa)).max() <= 1e-12 * scale
    if name == "haar_gibbs":
        assert np.abs(G - haar_averaged_action(HAAR_LEVELS, 1.3)).max() <= 1e-12


def test_graph_refuses_non_finite_jump_weights():
    # 4 w sqrt(mu_r / mu_s) overflows; the edge is named
    spec = GraphSpec(3, [(0, 1), (1, 2)], weights={(0, 1): 1e308})
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) of weight 1e\+308"):
        graph_lindblad(spec, QuantumState(np.diag([0.5, 0.3, 0.2])))
    # every edge of the star is finite, but the rate out of its centre is not
    star = GraphSpec(6, [(0, k) for k in range(1, 6)],
                     weights={(0, k): 1e307 for k in range(1, 6)})
    with pytest.raises(ValueError, match="^the walk rate out of vertex 0 is not finite$"):
        graph_lindblad(star, QuantumState.maximally_mixed(6))
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) of weight nan"):
        graph_lindblad(GraphSpec(2, [(0, 1)], weights={(0, 1): math.nan}),
                       QuantumState.maximally_mixed(2))
    with pytest.raises(ValueError, match="finite"):
        build_gksl(np.zeros((2, 2)), [(math.inf, PAULI_Z)])


def test_graph_model_two_disjoint_edges():
    spec = GraphSpec(4, [(0, 2), (1, 3)])
    st = QuantumState(np.diag([0.3, 0.3, 0.2, 0.2]))
    m = graph_lindblad(spec, st)
    assert m.kernel_dim == 2
    assert m.lambda_D == pytest.approx(3.265986323710904, rel=1e-12)
    assert m.norm_LD == pytest.approx(8.164965809277259, rel=1e-12)
    w = dissipation_spectrum(m.lind, st)
    assert w[:2].max() < 1e-10
    assert w[2] == pytest.approx(m.lambda_D, abs=1e-10)
    assert w[-1] == pytest.approx(m.norm_LD, abs=1e-10)
    assert kernel_dimension(superop_matrix(m.lind.apply, KmsFrame(st))) == 2


def test_graph_model_is_detailed_balanced():
    spec = GraphSpec(3, [(0, 1), (1, 2)], weights={(0, 1): 0.5, (1, 2): 2.0})
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    rep = structure_report(Analysis(m.lind, st))
    assert rep.kms_db
    assert rep.primitive
    gap = spectral_gap(Analysis(m.lind, st))
    assert gap == pytest.approx(m.lambda_D, rel=1e-10)


@pytest.mark.parametrize("weight", [1e8, 1e9])
def test_graph_refusal_names_the_weight_spread(weight):
    # at 1e9 the walk gap falls below the 1e-9 kernel cutoff: the refusal
    # names the spread of the edge weights, not only the kernel count
    spec = GraphSpec(3, [(0, 1), (1, 2)], weights={(0, 1): weight, (1, 2): 1.0})
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    if weight < 1e9:
        assert graph_lindblad(spec, st).kernel_dim == 1
        return
    with pytest.raises(ValueError, match=r"below 1e-9 .* span a factor 1\.0e\+09"):
        graph_lindblad(spec, st)


def test_graph_model_rejects_offdiagonal_state():
    spec = GraphSpec(2, [(0, 1)])
    sig = np.array([[0.6, 0.1], [0.1, 0.4]])
    with pytest.raises(ValueError, match="diagonal"):
        graph_lindblad(spec, QuantumState(sig))


# ---------------------------------------------------------------------------
# commuting Hamiltonians on graph models


def two_component_model():
    spec = GraphSpec(4, [(0, 2), (1, 3)])
    st = QuantumState(np.diag([0.3, 0.3, 0.2, 0.2]))
    return graph_lindblad(spec, st)


def test_graph_cert_simple_sigma_short_circuits():
    # a simple sigma forces a commuting H diagonal, which keeps the kernel
    spec = GraphSpec(4, [(0, 2), (1, 3)])
    st = QuantumState(np.diag([0.4, 0.3, 0.2, 0.1]))
    m = graph_lindblad(spec, st)
    rep = structure_report(split_form(np.diag([1.0, 2.0, 3.0, 4.0]), m.lind, st))
    assert not rep.primitive


def test_graph_cert_connected_graph_is_already_primitive():
    spec = GraphSpec(3, [(0, 1), (1, 2)])
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    rep = structure_report(split_form(np.zeros((3, 3)), m.lind, st))
    assert rep.classification == "coercive"


def test_graph_cert_two_components_pinned():
    m = two_component_model()
    H = (matrix_unit(4, 0, 1) + matrix_unit(4, 1, 0)
         + matrix_unit(4, 2, 3) + matrix_unit(4, 3, 2))
    an = split_form(H, m.lind, m.state)
    assert structure_report(an).classification == "hypocoercive"
    assert structural_constants(an).s_H == pytest.approx(2.0, abs=1e-9)


def test_graph_cert_reducible_hamiltonian():
    m = two_component_model()
    rep = structure_report(split_form(np.diag([1.0, 1.0, 2.0, 2.0]), m.lind, m.state))
    assert not rep.primitive


# ---------------------------------------------------------------------------
# birth-death chains


def classical_walk_eigs(model):
    mu = model.mu
    D = np.sqrt(mu)
    S = (D[:, None] / D[None, :]) * model.L_cl
    return np.linalg.eigvalsh((S + S.T) / 2.0)


def test_birth_death_single_chain_pinned():
    bd = birth_death_spectrum([4], 1.0)
    assert bd.lambda_D_closed == pytest.approx(3.364153472158665, rel=1e-12)
    assert bd.norm_LD_closed == pytest.approx(14.677861971143425, rel=1e-12)
    assert bd.kappa_min_closed == pytest.approx(4.510503860825523, rel=1e-12)
    assert bd.kappa_max_closed == pytest.approx(9.021007721651046, rel=1e-12)
    assert bd.block_eigenvalues[0][0] == 0.0
    assert bd.model.lambda_D == pytest.approx(bd.lambda_D_closed, abs=1e-10)
    assert bd.model.norm_LD == pytest.approx(bd.norm_LD_closed, abs=1e-10)


@pytest.mark.parametrize("sizes,beta", [([3], 0.0), ([4], 2.0), ([2, 3], 0.7)])
def test_birth_death_blocks_match_walk_spectrum(sizes, beta):
    bd = birth_death_spectrum(sizes, beta)
    closed = sorted(x for block in bd.block_eigenvalues for x in block)
    brute = sorted(classical_walk_eigs(bd.model))
    assert np.abs(np.array(closed) - np.array(brute)).max() < 1e-10


def test_birth_death_closed_constants_match_generic(subtests=None):
    for sizes, beta in [([3], 0.5), ([2, 4], 1.2), ([2, 2, 3], 0.0)]:
        bd = birth_death_spectrum(sizes, beta)
        assert bd.model.lambda_D == pytest.approx(bd.lambda_D_closed, abs=1e-10)
        assert bd.model.norm_LD == pytest.approx(bd.norm_LD_closed, abs=1e-10)
        off = bd.model.kappa[~np.eye(bd.model.state.dim, dtype=bool)]
        assert (-off).min() == pytest.approx(bd.kappa_min_closed, abs=1e-10)
        assert (-off).max() == pytest.approx(bd.kappa_max_closed, abs=1e-10)


def test_birth_death_rejects_short_chain():
    with pytest.raises(ValueError):
        birth_death_spectrum([1], 0.5)
    with pytest.raises(ValueError):
        birth_death_spectrum([], 0.5)


# ---------------------------------------------------------------------------
# averaged-unitary Gibbs sampler


def test_haar_gibbs_pinned_three_level():
    hm = haar_avg_gibbs([0.0, 1.0, 2.5], 1.0)
    assert hm.model.lambda_D == pytest.approx(0.835687213335661, rel=1e-12)
    assert hm.model.norm_LD == pytest.approx(1.9933871037856927, rel=1e-12)
    rep = structure_report(Analysis(hm.lind, hm.state))
    assert rep.kms_db
    assert rep.primitive


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
def test_haar_gibbs_two_level_closed_form(beta):
    hm = haar_avg_gibbs([0.0, 1.0], beta)
    ch = math.cosh(beta / 2.0)
    # classical branch decays at cosh(beta/2), coherences at cosh(beta/2)/2 + 1/2
    assert hm.model.lambda_D == pytest.approx(min(ch, ch / 2.0 + 0.5), rel=1e-12)
    w = dissipation_spectrum(hm.lind, hm.state)
    assert w[1] == pytest.approx(hm.model.lambda_D, abs=1e-12)


def test_haar_gibbs_norm_via_operator_norm():
    hm = haar_avg_gibbs([0.0, 1.0, 2.5], 1.0)
    M = superop_matrix(hm.lind.apply, KmsFrame(hm.state))
    assert np.linalg.norm(M, 2) == pytest.approx(hm.model.norm_LD, rel=1e-10)


# ---------------------------------------------------------------------------
# product-space lift


def connected_base():
    spec = GraphSpec(2, [(0, 1)])
    st = QuantumState(np.diag([0.6, 0.4]))
    return graph_lindblad(spec, st)


def test_lift_kernel_dimension():
    lm = lift_model(connected_base(), np.diag([1.0, 2.0]))
    assert lm.kernel_dim == 2
    M = superop_matrix(lm.lind.apply, KmsFrame(lm.state))
    assert kernel_dimension(M) == 2


def test_lift_primitivity_criterion():
    # H moves the lifted kernel {1 x diag(c0, c1)} iff an entry H^i_01 is nonzero
    lm = lift_model(connected_base(), np.diag([1.0, 2.0]))
    H_move = np.zeros((4, 4), dtype=complex)
    H_move[0, 1] = H_move[1, 0] = 1.0
    assert structure_report(split_form(H_move, lm.lind, lm.state)).primitive
    H_diag = np.diag([1.0, 2.0, 3.0, 4.0])
    assert not structure_report(split_form(H_diag, lm.lind, lm.state)).primitive


def test_lift_validation():
    base = connected_base()
    with pytest.raises(ValueError, match="distinct"):
        lift_model(base, np.diag([1.0, 1.0]))
    with pytest.raises(ValueError, match="nonzero"):
        lift_model(base, np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match="diagonal"):
        lift_model(base, np.array([[1.0, 0.5], [0.5, 2.0]]))
    spec = GraphSpec(4, [(0, 1), (2, 3)])
    st = QuantumState(np.diag([0.3, 0.3, 0.2, 0.2]))
    disconnected = graph_lindblad(spec, st)
    with pytest.raises(ValueError, match="connected"):
        lift_model(disconnected, np.diag([1.0, 2.0]))
