"""Generator construction, detailed balance, and structure diagnostics."""

import re
import tracemalloc

import numpy as np
import pytest
from exact_reference import (
    apply_adjoint,
    gns_matrix,
    kernel_dimension,
    lstsq_dbc_solve,
    split_bases,
    stacked_commutant_sv,
)

from lindgap import (
    Analysis,
    GraphSpec,
    KmsFrame,
    Lindbladian,
    QuantumState,
    birth_death_spectrum,
    build_gksl,
    certify,
    certify_coercive,
    cycle_graph,
    dephasing_jumps,
    dephasing_walk,
    gap_curve,
    generator_matrix,
    graph_lindblad,
    haar_avg_gibbs,
    kernel_projection,
    spectral_gap,
    stp_verify,
    structure_report,
    tfim,
)
from lindgap import lindblad
from lindgap.lindblad import (
    DB_DEFECT_TOL,
    hermiticity_defect,
    max_column_norm,
    require_kms_symmetric,
    standard_dbc_solve,
)
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
        assert abs(np.trace(apply_adjoint(L, rho))) < 1e-10


def test_gksl_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="positive"):
        build_gksl(np.zeros((2, 2)), [(0.0, PAULI_Z)])


# ---------------------------------------------------------------------------
# a GNS-detailed-balanced pair


def test_gns_qubit_pair_invariance_and_kms_db():
    st = QuantumState(np.diag([0.75, 0.25]))
    om = np.log(0.75 / 0.25)
    # sigma e01 sigma^{-1} = e^{om} e01: the pair (e01, e10) with weights
    # 2 e^{+-om/2} is GNS-detailed-balanced
    jumps = [(2.0 * np.exp(om / 2.0), E01), (2.0 * np.exp(-om / 2.0), E10)]
    L = Lindbladian(2, np.zeros((2, 2)), jumps, alpha=0.0)
    assert Analysis(L, st).invariance_residual < 1e-10
    M = generator_matrix(L, KmsFrame(st))
    assert hermiticity_defect(M) < 1e-10


# ---------------------------------------------------------------------------
# invariance_residual


def test_invariance_residual_zero_for_balanced_build():
    spec = GraphSpec(3, [(0, 1), (1, 2)])
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    assert Analysis(m.lind, st).invariance_residual < 1e-12


def test_invariance_residual_positive_for_wrong_state():
    spec = GraphSpec(3, [(0, 1), (1, 2)])
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    other = QuantumState(np.diag([0.2, 0.3, 0.5]))
    assert Analysis(m.lind, other).invariance_residual > 1e-3


def _residual_case(case):
    if case == "graph-noncommuting-H":  # test_cli.py's non-invariant spec
        m = graph_lindblad(GraphSpec(4, [(0, 1), (2, 3)]),
                           QuantumState(np.diag([0.4, 0.3, 0.2, 0.1])))
        H = np.diag([1.0, 1.0, 1.0], 1)
        return build_gksl(H + H.T, m.lind.jumps), m.state
    if case == "random-gksl-wrong-state":
        L, st = _random_gksl_at_steady_state()
        return L, QuantumState(np.diag([0.5, 0.3, 0.2]))
    if case == "random-gksl":
        return _random_gksl_at_steady_state()
    if case == "driven-qubit":
        return _driven_qubit()
    if case == "one-way-jump":
        return build_gksl(np.zeros((2, 2)), [(1.0, E01)]), QuantumState.maximally_mixed(2)
    if case.startswith("birth-death"):
        m = birth_death_spectrum([3, 4], 3.0).model
        if case.endswith("reversed"):
            return m.lind, QuantumState(np.diag(m.state.eigenvalues[::-1]))
        return m.lind, m.state
    if case == "haar-gibbs-beta10":
        m = haar_avg_gibbs([0.0, 0.4, 1.1, 1.7], 10.0)
        return m.lind, m.state
    m = tfim(3, 0.9, 1.1)
    return m.lind, m.state


@pytest.mark.parametrize("case,invariant", [
    ("graph-noncommuting-H", False), ("random-gksl-wrong-state", False),
    ("one-way-jump", False), ("birth-death-beta3-reversed", False),
    ("random-gksl", True), ("driven-qubit", True), ("birth-death-beta3", True),
    ("haar-gibbs-beta10", True), ("tfim3", True)])
def test_invariance_residual_matches_the_schrodinger_action(case, invariant):
    # the residual read off row 0 of M against ||L^dag(sigma)||_F summed one
    # jump at a time, with and without a joint frame, on states as wide as
    # mu_min / mu_max = e^-18
    L, st = _residual_case(case)
    an = Analysis(L, st)
    ref = float(np.linalg.norm(apply_adjoint(L, st.matrix)))
    if ref > 1e-8:
        assert abs(an.invariance_residual - ref) <= 1e-12 * ref
    else:
        assert abs(an.invariance_residual - ref) <= 1e-14 * an.magnitude
    assert (ref > 1e-8) != invariant
    if case in ("graph-noncommuting-H", "random-gksl", "driven-qubit"):
        assert an.energies is None


def _assert_two_whole_matrices(an):
    """The census of an.__dict__: every array there with at least
    (frame.size - 1)^2 entries is M_D or M_H or shares its memory."""
    n = an.frame.size
    held = [an.__dict__[k] for k in ("M_D", "M_H") if k in an.__dict__]
    for name, v in an.__dict__.items():
        if isinstance(v, np.ndarray) and v.size >= (n - 1) ** 2:
            assert any(np.shares_memory(v, w) for w in held), name


def test_invariance_residual_builds_no_generator_matrix():
    # in the joint frame row 0 of L's frame matrix is that of M_D: no dense
    # M_H is built for it, and the certificate, gap and stp paths hold no
    # whole matrix besides M_D and M_H
    for m, certificate in ((tfim(3, 0.9, 1.1), certify),
                           (haar_avg_gibbs([0.0, 0.4, 1.1, 1.7], 1.0), certify_coercive)):
        an = Analysis(m.lind, m.state)
        assert an.energies is not None
        an.invariance_residual
        assert "M_H" not in an.__dict__
        certificate(an)
        gap_curve(an, [1.0, 10.0])
        stp_verify(an, T=1.0, beta=1.0, n_samples=2)
        _assert_two_whole_matrices(an)


@pytest.mark.parametrize("case", ["tfim3", "graph-noncommuting-H"])
def test_analysis_holds_two_whole_matrices(case):
    # after every analysis command the only whole frame.size^2 matrices that
    # an Analysis keeps are M_D and M_H; views of their traceless blocks are
    # allowed.  The graph model's H does not commute with its sigma, which is
    # then not invariant: each command refuses it after its own assembly
    L, st = _residual_case(case)
    an = Analysis(L, st)
    assert (an.energies is None) == (case == "graph-noncommuting-H")
    for run in (structure_report, certify, lambda a: gap_curve(a, [1.0, 10.0]),
                lambda a: stp_verify(a, T=1.0, beta=1.0, n_samples=2)):
        if case == "tfim3":
            run(an)
        else:
            with pytest.raises(ValueError, match="not invariant"):
                run(an)
        _assert_two_whole_matrices(an)
    assert "M_D" in an.__dict__ and "M_H" in an.__dict__
    if case == "graph-noncommuting-H":
        assert "split" in an.__dict__  # the KMS gate and the split ran


# ---------------------------------------------------------------------------
# structure_report


def test_structure_qubit_coherent_plus_dephasing():
    L = build_gksl(PAULI_X, [(1.0, PAULI_Z)])
    st = QuantumState.maximally_mixed(2)
    rep = structure_report(Analysis(L, st))
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
    rep = structure_report(Analysis(L, QuantumState.maximally_mixed(2)))
    K = rep.standard_dbc_K
    K0 = K - np.trace(K) / 2 * np.eye(2)
    assert np.abs(K0 - 2.5 * PAULI_X).max() < 1e-8


def test_structure_dephasing_alone_not_primitive():
    L = build_gksl(np.zeros((2, 2)), [(1.0, PAULI_Z)])
    rep = structure_report(Analysis(L, QuantumState.maximally_mixed(2)))
    assert not rep.primitive
    assert rep.kernel_dim_LD == 2
    assert rep.kms_db and rep.gns_db
    assert rep.classification == "non-primitive"


def test_structure_dephasing_kernel_grows_as_diagonal_algebra():
    for n in (1, 2, 3):
        N = 2**n
        L = build_gksl(np.zeros((N, N)), dephasing_jumps(n, 1.0))
        rep = structure_report(Analysis(L, QuantumState.maximally_mixed(N)))
        assert rep.kernel_dim_LD == N
        assert rep.commutant_dim == N


def _random_gksl_at_steady_state():
    # generic jumps: no detailed balance of any kind, and a stationary state
    # with distinct eigenvalues in a rotated basis
    rng = np.random.default_rng(41)
    N = 3
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    jumps = [(float(rng.uniform(0.5, 2.0)),
              rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
             for _ in range(2)]
    L = build_gksl((A + A.conj().T) / 2, jumps, alpha=0.7)
    return L, _steady_state(L)


def _steady_state(L):
    # the null vector of the Schrodinger-picture matrix, for a unique steady state
    N = L.dim
    units = np.eye(N * N).reshape(N * N, N, N)
    schrodinger = np.stack([apply_adjoint(L, E).ravel() for E in units], axis=1)
    rho = np.linalg.svd(schrodinger)[2][-1].conj().reshape(N, N)
    rho = (rho + rho.conj().T) / 2
    return QuantumState(rho / np.trace(rho).real)


@pytest.mark.parametrize("case", ["qubit", "random_gksl", "haar_gibbs", "haar_gibbs12",
                                  "graph"])
def test_structure_defects_are_those_of_the_frame_matrices(case):
    # the GNS defect of a non-uniform sigma is taken per sector of the GNS
    # matrix; the probed matrix gives it whole
    if case == "qubit":
        L, st = build_gksl(PAULI_X, [(1.0, PAULI_Z)]), QuantumState.maximally_mixed(2)
    elif case == "random_gksl":
        L, st = _random_gksl_at_steady_state()
    elif case == "graph":
        # KMS-detailed-balanced jumps on a 4-cycle and a Hamiltonian that
        # commutes with sigma: both defects far from rounding
        st = QuantumState(np.diag([0.4, 0.3, 0.2, 0.1]))
        m = graph_lindblad(GraphSpec(n_vertices=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)]), st)
        L = build_gksl(np.diag([0.3, -0.2, 0.5, 1.0]), m.lind.jumps)
    else:
        levels = np.linspace(0.0, 2.0, 12) if case == "haar_gibbs12" else [0.0, 0.4, 1.1, 1.7]
        m = haar_avg_gibbs(list(levels), beta=1.0)
        L, st = m.lind, m.state
    if case != "qubit":
        assert np.ptp(st.eigenvalues) > 0.05
    rep = structure_report(Analysis(L, st))
    kms = hermiticity_defect(generator_matrix(L, KmsFrame(st)))
    gns = hermiticity_defect(gns_matrix(L, st))
    assert abs(rep.kms_defect - kms) <= 1e-12
    assert abs(rep.gns_defect - gns) <= 1e-12
    if case == "qubit":  # uniform sigma: the GNS and KMS products coincide
        assert rep.gns_defect == rep.kms_defect
    if case.startswith("haar_gibbs"):
        assert rep.gns_db and rep.kms_db
    else:
        assert not rep.kms_db and rep.kms_defect > 0.1
        assert not rep.gns_db and rep.gns_defect > 0.1


def test_structure_takes_one_norm_of_the_generator(monkeypatch):
    # the SVDs of the kernel count give ||M||_2, the scale of the KMS defect;
    # its numerator is one stacked norm per sector size, and the norms, the
    # SVDs and the eigensolves of the kernel of L^D each cover the 64
    # full-space coordinates exactly once, with no whole-space solve
    m = tfim(3, 0.75, 1.25)
    real_norm2 = lindblad.real_norm2
    calls = []
    monkeypatch.setattr(lindblad, "real_norm2",
                        lambda A: calls.append(A.shape) or real_norm2(A))
    solves = {"svd": [], "eigvalsh": [], "eigh": [], "eigvals": []}
    for name, seen in solves.items():
        def counted(a, *args, _fn=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    structure_report(Analysis(m.lind, m.state))

    def covered(shapes):
        return sorted(s for k, s, _ in shapes for _ in range(k))

    sizes = covered(calls)
    assert sum(sizes) == 64 and len(sizes) > 1
    assert all(len(shape) == 3 for shape in calls)
    assert len({shape[1] for shape in calls}) == len(calls)
    assert covered(solves["svd"]) == sizes
    # real_norm2's Gram eigensolves (none for an exactly zero block), then
    # the kernel count of M_D
    kernel = solves["eigvalsh"][-len(calls):]
    assert covered(kernel) == sizes and len(kernel) == len(calls)
    assert max(shape[-1] for shapes in solves.values() for shape in shapes) < 63


def _driven_qubit():
    # H = X does not commute with the steady state of the damped qubit
    st = QuantumState(np.array([[5.0, 2.0j], [-2.0j, 4.0]]) / 9.0)
    return build_gksl(PAULI_X, [(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))]), st


@pytest.mark.parametrize("model,builds", [
    # (jumps, N^2) per unit-matrix assembly, each changed to the frame once:
    # that of L^D gives M_D, and in the joint frame M = M_D + M_H needs no
    # frame change of its own
    ("tfim3", [(3, 64)]),
    # otherwise the coherent term is assembled once, for M_H and for G
    ("driven-qubit", [(1, 4), (0, 4)]),
], ids=["tfim3", "driven-qubit"])
def test_structure_takes_one_frame_change_per_part(monkeypatch, model, builds):
    if model == "tfim3":
        m = tfim(3, 0.75, 1.25)
        L, st = m.lind, m.state
    else:
        L, st = _driven_qubit()
    # a warm-up call, so that the memory traced below is the analysis's
    structure_report(Analysis(L, st))
    superop, unit_matrix = KmsFrame.superop, Lindbladian.unit_matrix
    frames, units = [], []
    monkeypatch.setattr(KmsFrame, "superop",
                        lambda self, G: frames.append(G.shape[0]) or superop(self, G))
    monkeypatch.setattr(Lindbladian, "unit_matrix",
                        lambda self, *a: units.append((len(self.jumps), self.dim ** 2))
                        or unit_matrix(self, *a))
    tracemalloc.start()
    try:
        an = Analysis(L, st)
        rep = structure_report(an)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert units == builds
    assert frames == [size for _, size in builds]
    assert rep.primitive
    # structure holds two whole matrices, M_D and M_H (in the joint frame
    # by formula), and nothing else of their size
    _assert_two_whole_matrices(an)
    if model == "tfim3":
        # 2.31 whole matrices of traced memory: a third would bring 3.3
        assert held < 2.75 * an.M_D.nbytes


def test_structure_coercive_classification():
    # jumps spanning enough directions leave no kernel beyond the identity
    st = QuantumState.maximally_mixed(2)
    L = build_gksl(np.zeros((2, 2)),
                   [(1.0, PAULI_X), (1.0, PAULI_Y), (1.0, PAULI_Z)])
    rep = structure_report(Analysis(L, st))
    assert rep.classification == "coercive"
    assert rep.primitive


def _scaled(name, eps):
    """eps L for a 3-level model with no standard detailed balance and for
    the driven amplitude-damped qubit, whose H does not commute with its
    stationary state, with that state."""
    if name == "permutation":
        P = np.roll(np.eye(3), 1, axis=0)
        return (build_gksl(np.zeros((3, 3)),
                           [(eps, P), (eps, np.diag([1.0, -1.0, 0.5]))]),
                QuantumState.maximally_mixed(3))

    def driven(e):
        return build_gksl(0.7 * e * PAULI_X, [(e, E01), (0.4 * e, E10)])
    # eps scales L^dag, not its kernel
    return driven(eps), _steady_state(driven(1.0))


@pytest.mark.parametrize("name", ["permutation", "driven-qubit"])
def test_decisions_do_not_depend_on_the_units(name):
    # every tolerance is relative to the model's own scale: eps L at eps =
    # 1e-13 gets the decisions, the frame and the rates of L
    reps, frames, gaps = [], [], []
    for eps in (1.0, 1e-13):
        an = Analysis(*_scaled(name, eps))
        reps.append(structure_report(an))
        frames.append(an.energies is None)
        gaps.append(spectral_gap(an) / eps)
    for field in ("invariant_state_ok", "kms_db", "gns_db", "standard_dbc",
                  "primitive", "commutant_dim", "kernel_dim_LD", "classification"):
        assert getattr(reps[0], field) == getattr(reps[1], field), field
    assert not reps[0].standard_dbc
    assert frames[0] == frames[1] == (name == "driven-qubit")
    assert gaps[1] == pytest.approx(gaps[0], rel=1e-12)
    # a Hermiticity check at that scale is relative too
    with pytest.raises(ValueError, match="not Hermitian"):
        build_gksl(1e-12 * E01, [])


def test_structure_rejects_non_invariant_state():
    L = build_gksl(np.zeros((2, 2)), [(1.0, E01)])
    with pytest.raises(ValueError, match="invariant"):
        structure_report(Analysis(L, QuantumState.maximally_mixed(2)))


# ---------------------------------------------------------------------------
# standard_dbc_solve


def _random_unitary(rng, N):
    Z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@pytest.mark.parametrize("s", [0.5])  # the KMS weight exponent, the only frame
@pytest.mark.parametrize("N", [2, 3, 6])
def test_dbc_closed_form_matches_least_squares(N, s):
    # a random GKSL generator is far from standard detailed balance, so both
    # the minimizer and the nonzero residual are compared
    rng = np.random.default_rng(100 * N + int(10 * s))
    for _ in range(2):
        B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        jumps = [(float(rng.uniform(0.5, 2.0)),
                  rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
                 for _ in range(2)]
        L = build_gksl((B + B.conj().T) / 2, jumps, alpha=float(rng.uniform(0.5, 2)))
        st = QuantumState.from_eigenvalues(rng.uniform(0.1, 1.0, size=N),
                                           _random_unitary(rng, N))
        frame = KmsFrame(st)
        assert frame.s == s
        K, defect = standard_dbc_solve(L.unit_matrix(st.eigenvectors), frame)
        K_ref, defect_ref = lstsq_dbc_solve(L, frame)
        assert np.linalg.norm(K - K_ref) <= 1e-10 * np.linalg.norm(K_ref)
        assert abs(defect - defect_ref) <= 1e-12
        assert 0.1 < defect < 1.0
        assert np.abs(K - K.conj().T).max() < 1e-12
        assert abs(np.trace(K)) < 1e-12 * np.linalg.norm(K)


@pytest.mark.parametrize("s", [0.5])  # the KMS weight exponent, the only frame
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
    frame = KmsFrame(st)
    assert frame.s == s
    K, defect = standard_dbc_solve(L.unit_matrix(st.eigenvectors), frame)
    K_true = alpha * (H - np.trace(H) / len(lam) * np.eye(len(lam)))
    assert defect < 1e-12
    assert np.linalg.norm(K - K_true) <= 1e-10 * np.linalg.norm(K_true)


def test_dbc_recovers_weak_coherent_part():
    # ||L - L*|| is 1e-9 of ||L||: still a commutator to fit, not zero
    m = tfim(2, 0.9, 1.1)
    L = build_gksl(m.lind.hamiltonian, m.lind.jumps, alpha=1e-9)
    K, defect = standard_dbc_solve(L.unit_matrix(m.state.eigenvectors), KmsFrame(m.state))
    H = 1e-9 * m.lind.hamiltonian
    assert defect < 1e-6
    assert np.linalg.norm(K - H) <= 1e-6 * np.linalg.norm(H)


def test_dbc_solve_runs_at_32_levels():
    # uniform sigma: L - L* = 2i[H, .] and the tfim Hamiltonian is traceless.
    # A least squares over the 1023 commutator columns would need ~17 GB here.
    m = tfim(5, 0.9, 1.1)
    H = m.lind.hamiltonian
    K, defect = standard_dbc_solve(m.lind.unit_matrix(m.state.eigenvectors),
                                   KmsFrame(m.state))
    assert defect < 1e-12
    assert np.linalg.norm(K - H) <= 1e-10 * np.linalg.norm(H)


def test_dbc_solve_memory_stays_quartic():
    # N = 16: one N^2 x N^2 complex matrix is 1 MB; the least-squares design
    # matrix took 541 MB of traced allocations
    m = tfim(4, 0.9, 1.1)
    frame = KmsFrame(m.state)
    tracemalloc.start()
    try:
        standard_dbc_solve(m.lind.unit_matrix(m.state.eigenvectors), frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # G, Y and the dag(Y) temporary: the fit is written over Y, with no
    # Kronecker temporaries
    assert peak < 4.5e6


# ---------------------------------------------------------------------------
# kernel_projection


def test_kernel_projection_dephasing_qubit():
    st = QuantumState.maximally_mixed(2)
    LD = build_gksl(np.zeros((2, 2)), [(1.0, PAULI_Z)])
    an = Analysis(LD, st)
    split = kernel_projection(an)
    assert split.dim0 == 1
    assert split.dim_plus == 2
    # the kernel direction is Z
    cz = an.frame.coords(PAULI_Z)[1:]
    basis0, _ = split_bases(split)
    P = basis0 @ basis0.T
    assert np.linalg.norm(P @ cz - cz) < 1e-10
    assert np.abs(P @ P - P).max() < 1e-10
    assert np.abs(P - P.conj().T).max() < 1e-10
    # X and Y dephase at rate 2
    assert np.abs(split.rates - [0.0, 2.0, 2.0]).max() < 1e-12


def test_kernel_projection_rejects_non_db_dissipator():
    # a one-way classical jump is not reversible for the uniform state
    # (at N=2 the asymmetry hides in the identity row, so use N=3)
    st = QuantumState.maximally_mixed(3)
    E01_3 = np.zeros((3, 3))
    E01_3[0, 1] = 1.0
    LD = build_gksl(np.zeros((3, 3)), [(1.0, E01_3)])
    with pytest.raises(ValueError, match="Hermitian"):
        kernel_projection(Analysis(LD, st))


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
        M = generator_matrix(m.lind, KmsFrame(st))
        assert kernel_dimension(M) == len(spec.components)
        rep = structure_report(Analysis(m.lind, st))
        assert rep.commutant_dim == len(spec.components)


def test_no_generators_means_full_commutant():
    st = QuantumState.maximally_mixed(3)
    L = build_gksl(np.zeros((3, 3)), [])
    assert structure_report(Analysis(L, st)).commutant_dim == 9
    # a zero jump is a generator whose commutators all vanish
    L = build_gksl(np.zeros((3, 3)), [(1.0, np.zeros((3, 3)))])
    assert structure_report(Analysis(L, st)).commutant_dim == 9


def test_near_singular_state_counts_the_whole_kernel():
    # |0><2| and |1><2| empty level 2 into span{e0, e1}, so every state on
    # that block is fixed: dim ker L = 4 although the jumps and their adjoints
    # have a trivial commutant.  sigma's weight 1e-9 on level 2 leaves an
    # invariance residual small enough to pass.
    eps = 1e-9
    L = build_gksl(np.zeros((3, 3)), [(1.0, np.eye(3)[:, [0]] @ np.eye(3)[[2]]),
                                      (1.0, np.eye(3)[:, [1]] @ np.eye(3)[[2]])])
    st = QuantumState(np.diag([(1 - eps) / 2, (1 - eps) / 2, eps]))
    rep = structure_report(Analysis(L, st))
    assert rep.invariant_state_ok
    assert not rep.primitive
    assert rep.commutant_dim == 4
    assert rep.classification == "non-primitive"


def _random_gksl(N, with_H, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    H = (B + B.conj().T) / 2 if with_H else np.zeros((N, N))
    jumps = [(float(rng.uniform(0.5, 2.0)),
              rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
             for _ in range(2)]
    L = build_gksl(H, jumps)
    return L, _steady_state(L)


def _block_diagonal():
    # H and the jump both preserve span{e0, e1} and span{e2, e3}; the steady
    # states of the two blocks, mixed with equal weights, are faithful
    H = np.zeros((4, 4))
    H[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    H[2:, 2:] = [[1.0, 2.0], [2.0, -1.0]]
    J = np.zeros((4, 4))
    J[0, 1] = 1.0
    J[3, 2] = 0.5
    sigma = np.zeros((4, 4), dtype=complex)
    for b in (slice(0, 2), slice(2, 4)):
        sigma[b, b] = _steady_state(build_gksl(H[b, b], [(1.0, J[b, b])])).matrix / 2
    return build_gksl(H, [(1.0, J)]), QuantumState(sigma)


def _ladder_lowering():
    # jumps that are not Hermitian and no Hamiltonian
    A = np.diag([1.0, np.sqrt(2.0)], k=1)
    return build_gksl(np.zeros((3, 3)), [(1.0, A), (0.5, A @ A)]), None


def _model(m):
    return m.lind, m.state


# each maker returns (L, a faithful invariant state), or (L, None) when L has none
COMMUTANT_CASES = {
    "tfim2": (lambda: _model(tfim(2, 0.9, 1.1)), 1),
    "tfim3": (lambda: _model(tfim(3, 0.9, 1.1)), 1),
    "tfim4": (lambda: _model(tfim(4, 0.9, 1.1)), 1),
    "haar6": (lambda: _model(haar_avg_gibbs([0.0, 0.3, 0.7, 1.1, 1.6, 2.0], 1.0)), 1),
    "haar12": (lambda: _model(haar_avg_gibbs(np.linspace(0.0, 2.0, 12), 1.0)), 1),
    "walk3": (lambda: _model(dephasing_walk(3, 1.0, cycle_graph(8))), 1),
    **{f"random{N}{'H' if h else ''}": (lambda N=N, h=h: _random_gksl(N, h, 10 * N + h), 1)
       for N in (2, 3, 5) for h in (False, True)},
    "lowering": (_ladder_lowering, 1),
    "block_diagonal": (_block_diagonal, 2),
    "B_kron_I3": (lambda: (build_gksl(np.zeros((6, 6)),
                                      [(1.0, np.kron(E01, np.eye(3)))]), None), 9),
    "hamiltonian_only": (lambda: (build_gksl(np.diag([0.0, 1.0, 2.0]), []),
                                  QuantumState.maximally_mixed(3)), 3),
}


@pytest.mark.parametrize("name", list(COMMUTANT_CASES))
def test_commutant_matches_stacked_complex_svd(name):
    make, dim = COMMUTANT_CASES[name]
    L, st = make()
    ref = stacked_commutant_sv(L)
    dim_ref = int(np.sum(ref < 1e-9 * ref[0]))
    assert dim_ref == dim
    if st is None:
        # the jumps drain part of the space: the maximally mixed state is
        # not invariant, and structure_report refuses it
        with pytest.raises(ValueError, match="not invariant"):
            structure_report(Analysis(L, QuantumState.maximally_mixed(L.dim)))
    else:
        assert structure_report(Analysis(L, st)).commutant_dim == dim_ref


def test_commutant_memory_stays_below_stacked_blocks():
    # N = 12 with 144 jumps: a stack of the 288 complex N^2 x N^2 commutator
    # blocks alone would be 95 MB; the kernel count reads the 144 x 144 frame
    # matrix that the KMS defect uses anyway
    m = haar_avg_gibbs(np.linspace(0.0, 2.0, 12), 1.0)
    an = Analysis(m.lind, m.state)
    tracemalloc.start()
    try:
        structure_report(an)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_hermiticity_defect_is_relative_spectral_norm():
    rng = np.random.default_rng(41)
    for N in (2, 5, 9):
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        ref = np.linalg.norm(M - M.conj().T, 2) / np.linalg.norm(M, 2)
        assert abs(hermiticity_defect(M) - ref) <= 1e-13 * ref
        assert hermiticity_defect(M + M.conj().T) == 0.0
    assert hermiticity_defect(np.zeros((3, 3))) == 0.0


def _block_diagonal(stacks):
    blocks = [B for S in stacks for B in S]
    n = sum(B.shape[0] for B in blocks)
    M = np.zeros((n, n), dtype=np.result_type(*blocks))
    i = 0
    for B in blocks:
        M[i:i + len(B), i:i + len(B)] = B
        i += len(B)
    return M


@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_norms_are_those_of_the_block_diagonal_matrix(dtype):
    # sector stacks of two sizes: the defect, its scale and the column norms
    # of the block-diagonal matrix are the largest over the blocks
    rng = np.random.default_rng(42)

    def draw(shape):
        B = rng.standard_normal(shape)
        return B + 1j * rng.standard_normal(shape) if dtype is complex else B

    stacks = [draw((3, 2, 2)), 4.0 * draw((2, 5, 5))]
    M = _block_diagonal(stacks)
    ref = np.linalg.norm(M - M.conj().T, 2) / np.linalg.norm(M, 2)
    assert abs(hermiticity_defect(*stacks) - ref) <= 1e-13 * ref
    assert abs(hermiticity_defect(M) - ref) <= 1e-13 * ref
    if dtype is float:
        col = np.sqrt((M * M).sum(axis=0)).max()
        assert abs(max_column_norm(*stacks) - col) <= 1e-14 * col
        assert abs(max_column_norm(M) - col) <= 1e-14 * col


# ---------------------------------------------------------------------------
# the KMS-symmetry gate, require_kms_symmetric


def _with_dissipator_matrix(M, monkeypatch):
    """An Analysis whose M_D is M, counting the spectral-norm defect calls."""
    an = Analysis(build_gksl(np.zeros((2, 2)), [(1.0, PAULI_Z)]),
                  QuantumState.maximally_mixed(2))
    an.__dict__["M_D"] = M
    calls = []

    def counted(A):
        calls.append(A.shape)
        return hermiticity_defect(A)

    monkeypatch.setattr(lindblad, "hermiticity_defect", counted)
    return an, calls


def _skewed_ones(eps):
    # ||M||_2 = 100 but every column norm is about 10, and M - M^T is
    # eps (e_0 e_1^T - e_1 e_0^T): ||.||_2 = eps, ||.||_F = sqrt2 eps
    M = np.ones((100, 100))
    M[0, 1] += eps
    return M


def test_db_gate_decides_by_the_norm_bound(monkeypatch):
    m = tfim(3, 0.8, 1.1)
    an = Analysis(m.lind, m.state)
    calls = []
    monkeypatch.setattr(lindblad, "hermiticity_defect",
                        lambda A: calls.append(A.shape) or hermiticity_defect(A))
    assert require_kms_symmetric(an) is None
    assert calls == []


def test_db_gate_inconclusive_bound_then_passes(monkeypatch):
    an, calls = _with_dissipator_matrix(_skewed_ones(5e-7), monkeypatch)
    M = an.M_D
    assert np.linalg.norm(M - M.T) > DB_DEFECT_TOL * np.sqrt((M * M).sum(0)).max()
    assert hermiticity_defect(M) < DB_DEFECT_TOL
    assert require_kms_symmetric(an) is None
    assert calls == [M.shape]


def test_db_gate_fails_with_the_spectral_defect(monkeypatch):
    an, calls = _with_dissipator_matrix(_skewed_ones(5e-6), monkeypatch)
    defect = hermiticity_defect(an.M_D)
    assert defect > DB_DEFECT_TOL
    with pytest.raises(ValueError, match=re.escape(f"(defect {defect:.3e})")):
        require_kms_symmetric(an)
    assert calls == [an.M_D.shape]
