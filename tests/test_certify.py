"""Certificate constants, rates, window optimization, scaling, DMS comparison."""

import math
from importlib import import_module

import numpy as np
import pytest

from lindgap import (
    Analysis,
    QuantumState,
    StructuralConstants,
    alpha_gamma_scaling,
    build_gksl,
    c_constants,
    certify,
    certify_coercive,
    check_assumption,
    cycle_graph,
    dephasing_walk,
    dms_compare,
    graph_lindblad,
    haar_avg_gibbs,
    kernel_projection,
    lift_model,
    optimize_T,
    rate_from_constants,
    simplified_rate,
    spectral_gap,
    structural_constants,
    tfim,
)
from lindgap.lindblad import SpaceSplit, real_norm2
from lindgap.models import GraphSpec, PAULI_X, PAULI_Y, PAULI_Z, op_on_qubit

MIXED2 = QuantumState.maximally_mixed(2)
QUBIT_LD = build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)])


def split_form(H, LD, state):
    return Analysis(build_gksl(H, LD.jumps), state)


def rand_hermitian(rng, N):
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (B + B.conj().T) / 2


# ---------------------------------------------------------------------------
# check_assumption


def test_assumption_holds_for_diagonal_kernel_any_h():
    rng = np.random.default_rng(51)
    st = QuantumState.maximally_mixed(4)
    LD = build_gksl(np.zeros((4, 4)), [(2.0, op_on_qubit(PAULI_Z, 0, 2)),
                                       (2.0, op_on_qubit(PAULI_Z, 1, 2))])
    for _ in range(5):
        ok, defect = check_assumption(split_form(rand_hermitian(rng, 4), LD, st))
        assert ok and defect < 1e-10


def test_assumption_holds_for_graph_model_any_h():
    rng = np.random.default_rng(53)
    spec = GraphSpec(4, [(0, 2), (1, 3)])
    st = QuantumState(np.diag([0.3, 0.3, 0.2, 0.2]))
    m = graph_lindblad(spec, st)
    an = split_form(rand_hermitian(rng, 4), m.lind, st)
    assert kernel_projection(an).dim0 == 1
    ok, defect = check_assumption(an)
    assert ok and defect < 1e-9


def test_assumption_fails_for_trivial_kernel():
    LD = build_gksl(np.zeros((2, 2)),
                    [(1.0, PAULI_X), (1.0, PAULI_Y), (1.0, PAULI_Z)])
    ok, _ = check_assumption(split_form(PAULI_X, LD, MIXED2))
    assert not ok


def test_assumption_detects_mixing_inside_kernel():
    # dephasing on qubit 0 only leaves ops on qubit 1 in the kernel, and a
    # qubit-1 Hamiltonian rotates within that kernel
    st = QuantumState.maximally_mixed(4)
    LD = build_gksl(np.zeros((4, 4)), [(2.0, op_on_qubit(PAULI_Z, 0, 2))])
    ok, defect = check_assumption(split_form(op_on_qubit(PAULI_Z, 1, 2), LD, st))
    assert not ok
    assert defect > 0.1


def _assumption_case(delta, monkeypatch):
    """check_assumption on M_H = ones + 2 delta e_0 e_0^T and kernel (e_0 - e_1)/sqrt2,
    one sector: the defect is delta, every column norm of M_H about 10 and
    ||M_H|| about 100; returns (ok, defect, real_norm2 calls)."""
    n = 100
    MH = np.ones((n, n))
    MH[0, 0] += 2.0 * delta
    # eigenvectors of the one sector: the kernel vector first
    V = np.eye(n)
    V[:2, :2] = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
    rates = np.ones(n)
    rates[0] = 0.0
    sectors = [np.arange(n)[None]]
    an = split_form(PAULI_X, QUBIT_LD, MIXED2)
    an.__dict__["split"] = SpaceSplit(rates=rates, sectors=sectors, values=[rates[None]],
                                      vectors=[V[None]], dims=[1], hamiltonian=[MH[None]],
                                      cutoff=1e-9)
    calls = []
    monkeypatch.setattr(import_module("lindgap.certify"), "real_norm2",
                        lambda A: calls.append(A.shape) or real_norm2(A))
    ok, defect = check_assumption(an)
    assert defect == pytest.approx(abs(delta), rel=1e-6)
    return ok, defect, calls


def test_assumption_passes_by_the_column_bound(monkeypatch):
    ok, _, calls = _assumption_case(5e-9, monkeypatch)
    assert ok and calls == []


def test_assumption_inconclusive_bound_then_passes(monkeypatch):
    ok, _, calls = _assumption_case(5e-8, monkeypatch)
    assert ok and calls == [(1, 100, 100)]


def test_assumption_fails_with_the_exact_defect(monkeypatch):
    ok, defect, calls = _assumption_case(5e-7, monkeypatch)
    assert not ok and calls == [(1, 100, 100)]
    MH = np.ones((100, 100))
    MH[0, 0] += 1e-6
    V0 = np.array([[1.0], [-1.0]] + [[0.0]] * 98) / math.sqrt(2.0)
    assert defect == np.linalg.norm(V0.T @ MH @ V0, 2)


# ---------------------------------------------------------------------------
# structural_constants


def test_constants_qubit_hand_values():
    sc = structural_constants(split_form(PAULI_X, QUBIT_LD, MIXED2))
    assert sc.lambda_D == pytest.approx(4.0, abs=1e-10)
    assert sc.s_H == pytest.approx(2.0, abs=1e-10)
    assert sc.norm_LD == pytest.approx(4.0, abs=1e-10)
    assert sc.norm_LH_plus == pytest.approx(2.0, abs=1e-10)


def test_constants_dephasing_scaling():
    for n in (1, 2, 3):
        for gamma in (0.5, 1.7):
            m = dephasing_walk(n, gamma, cycle_graph(2**n))
            sc = structural_constants(split_form(m.lind.hamiltonian, m.lind, m.state))
            assert sc.lambda_D == pytest.approx(2 * gamma, abs=1e-9)
            assert sc.norm_LD == pytest.approx(2 * gamma * n, abs=1e-9)


def test_constants_tfim_coupling():
    m = tfim(2, 1.0, 1.0)
    sc = structural_constants(split_form(m.lind.hamiltonian, m.lind, m.state))
    assert sc.s_H == pytest.approx(2.0, abs=1e-9)


def test_constants_of_a_trivial_kernel():
    # nothing to couple out of: s_H = inf, lambda_D is the dissipator's gap and
    # Pi_+ is the identity on the traceless subspace
    LD = build_gksl(np.zeros((2, 2)),
                    [(1.0, PAULI_X), (1.0, PAULI_Y), (1.0, PAULI_Z)])
    an = split_form(PAULI_X, LD, MIXED2)
    sc = an.constants
    assert sc.s_H == math.inf
    assert sc.lambda_D == pytest.approx(spectral_gap(Analysis(LD, MIXED2)), rel=1e-12)
    assert sc.norm_LH_plus == pytest.approx(np.linalg.norm(an.M_Hr, 2), rel=1e-12)
    assert sc.default_window == 1.0 / (2.0 * sc.lambda_D)
    assert certify_coercive(an).T == sc.default_window
    with pytest.raises(ValueError, match="coercive"):
        certify(an)


@pytest.mark.parametrize("use", [optimize_T, alpha_gamma_scaling, simplified_rate,
                                 dms_compare], ids=lambda f: f.__name__)
def test_trivial_kernel_constants_are_refused_by_the_hypocoercive_formulas(use):
    sc = StructuralConstants(lambda_D=2.0, s_H=math.inf, norm_LD=3.0, norm_LH_plus=1.0)
    with pytest.raises(ValueError, match="dissipator kernel is trivial"):
        use(sc)


def test_constants_reject_unmoved_kernel():
    # H = 0 too: its M_H = 0 passes the assumption, and s_H = 0 is refused
    for H in (PAULI_Z, np.zeros((2, 2))):
        with pytest.raises(ValueError, match="not primitive"):
            structural_constants(split_form(H, QUBIT_LD, MIXED2))


def _tfim3():
    m = tfim(3, 0.9, 1.1)
    return split_form(m.lind.hamiltonian, m.lind, m.state)


def _dephasing_walk():
    m = dephasing_walk(2, 0.7, cycle_graph(4))
    return split_form(m.lind.hamiltonian, m.lind, m.state)


def _graph_nonuniform_with_h():
    # two components {0, 2} and {1, 3}; sigma is degenerate on 0, 1 and on
    # 2, 3, so H may couple the components through those pairs
    st = QuantumState(np.diag([0.3, 0.3, 0.2, 0.2]))
    m = graph_lindblad(GraphSpec(4, [(0, 2), (1, 3)]), st)
    H = np.diag([0.5, 0.5, -0.2, -0.2]).astype(complex)
    H[0, 1], H[1, 0] = 0.7 - 0.2j, 0.7 + 0.2j
    H[2, 3], H[3, 2] = 0.4, 0.4
    return Analysis(build_gksl(H, m.lind.jumps, alpha=1.3), st)


def _lift_with_h():
    base = graph_lindblad(GraphSpec(3, [(0, 1), (1, 2)]),
                          QuantumState(np.diag([0.5, 0.3, 0.2])))
    m = lift_model(base, np.diag([1.0, -0.5]))
    # the block-diagonal kron(1, X) moves the lifted kernel 1 x diag(c0, c1)
    return split_form(np.kron(np.eye(3), PAULI_X), m.lind, m.state)


@pytest.mark.parametrize("make", [
    pytest.param(_tfim3, id="tfim3"),
    pytest.param(_dephasing_walk, id="dephasing_walk"),
    pytest.param(_graph_nonuniform_with_h, id="graph-nonuniform-H"),
    pytest.param(_lift_with_h, id="lift"),
])
def test_constants_match_direct_decompositions(make):
    # lambda_D, s_H, ||L^D|| and ||L^H Pi_+|| from the per-sector kernel split
    # equal the direct formulas on one eigendecomposition of the whole
    # KMS-frame matrix
    an = make()
    sc = structural_constants(an)
    MD = ((an.M_D + an.M_D.T) / 2.0)[1:, 1:]
    w, V = np.linalg.eigh(-MD)
    zero = np.abs(w) < 1e-9 * np.abs(w).max()
    V0, Vp = V[:, zero], V[:, ~zero]
    lambda_D = np.linalg.eigvalsh(Vp.conj().T @ (-MD) @ Vp)[0]
    Pp = np.eye(len(MD)) - V0 @ V0.conj().T
    assert sc.lambda_D == pytest.approx(lambda_D, rel=1e-12)
    assert sc.s_H == pytest.approx(
        np.linalg.svd(Vp.T @ an.M_Hr @ V0, compute_uv=False)[-1], rel=1e-12)
    assert sc.norm_LD == pytest.approx(np.linalg.norm(MD, 2), rel=1e-12)
    assert sc.norm_LH_plus == pytest.approx(np.linalg.norm(an.M_Hr @ Pp, 2), rel=1e-12)


# ---------------------------------------------------------------------------
# c_constants


def test_c_constants_hand_case():
    sc = StructuralConstants(lambda_D=1.0, s_H=1.0, norm_LD=1.0,
                             norm_LH_plus=1.0)
    C1, C2 = c_constants(sc, 3.0)
    assert C1 == pytest.approx(math.sqrt(2) + 14 + 4 * math.sqrt(5)
                               + 8.0 / 3.0 + 5 * math.sqrt(2), abs=1e-12)
    assert C2 == pytest.approx(6 * math.sqrt(2), abs=1e-12)


def test_c_constants_reference_window_bounds():
    rng = np.random.default_rng(57)
    for _ in range(10):
        sc = StructuralConstants(lambda_D=float(rng.uniform(0.1, 5)),
                                 s_H=float(rng.uniform(0.1, 5)),
                                 norm_LD=float(rng.uniform(0.1, 8)),
                                 norm_LH_plus=float(rng.uniform(0.1, 8)))
        C1, C2 = c_constants(sc, 3.0 / sc.s_H)
        assert C1 <= 28.0 + 5 * math.sqrt(2) * sc.norm_LH_plus / sc.s_H + 1e-9
        assert C2 == pytest.approx(
            6 * math.sqrt(2) * math.sqrt(sc.norm_LD) / sc.s_H, rel=1e-12)


def test_c_constants_blow_up_at_window_extremes():
    sc = StructuralConstants(1.0, 1.0, 1.0, 1.0)
    for T in (1e-9, 1e9):
        C1, C2 = c_constants(sc, T)
        assert C1 > 1e6 and C2 > 1e6


def test_c_constants_beta_dependence():
    sc = StructuralConstants(1.0, 1.0, 2.0, 1.0)
    _, C2_0 = c_constants(sc, 3.0, 0.0)
    _, C2_b = c_constants(sc, 3.0, 5.0)
    assert C2_b == pytest.approx(C2_0 * math.sqrt((5.0 + 2.0) / 2.0), rel=1e-12)


def test_c_constants_reject_bad_window():
    sc = StructuralConstants(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        c_constants(sc, 0.0)
    with pytest.raises(ValueError):
        c_constants(sc, 1.0, -0.5)


def test_trivial_kernel_constants():
    # the trivial-kernel constants are the s_H -> inf limit
    sc = StructuralConstants(lambda_D=1.0, s_H=math.inf, norm_LD=2.0, norm_LH_plus=3.0)
    C1, C2 = c_constants(sc, math.pi, beta=2.0)
    assert C1 == pytest.approx(math.sqrt(2) + 14 + 3 * math.sqrt(2), abs=1e-12)
    assert C2 == pytest.approx(2 * math.sqrt(2) * 2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# certify


def test_certify_qubit_pinned_values():
    cert = certify(split_form(PAULI_X, QUBIT_LD, MIXED2))
    assert cert.T == pytest.approx(1.5)
    assert cert.nu == pytest.approx(0.002757570502323634, rel=1e-12)
    assert cert.prefactor == pytest.approx(math.exp(cert.nu * cert.T),
                                           rel=1e-12)
    assert cert.prefactor == pytest.approx(1.0041449222802734, rel=1e-12)
    closed = 16.0 / ((56 + 10 * math.sqrt(2)) ** 2 + 72 * 16)
    assert cert.simplified_nu == pytest.approx(closed, rel=1e-12)
    assert cert.simplified_nu == pytest.approx(2.6351e-3, abs=5e-8)
    # the simplified rate is a lower bound with its own prefactor
    assert math.exp(1.5 * cert.simplified_nu) == pytest.approx(1.00396,
                                                               abs=5e-6)
    assert cert.simplified_nu <= cert.nu
    assert cert.assumption_ok and cert.assumption_defect < 1e-10


def test_certify_respects_custom_window():
    cert = certify(split_form(PAULI_X, QUBIT_LD, MIXED2), T=2.0)
    sc = structural_constants(split_form(PAULI_X, QUBIT_LD, MIXED2))
    assert cert.simplified_nu is None
    assert cert.nu == pytest.approx(rate_from_constants(sc, 2.0), rel=1e-12)


def test_certify_never_exceeds_gap():
    cert = certify(split_form(PAULI_X, QUBIT_LD, MIXED2))
    lam = spectral_gap(Analysis(build_gksl(PAULI_X, QUBIT_LD.jumps), MIXED2))
    assert cert.nu <= lam + 1e-9


def _scaled_tfim2(eps):
    """eps L for tfim n=2 (h = 0.9, gamma = 1.1), with its state."""
    m = tfim(2, 0.9, 1.1)
    return Analysis(build_gksl(eps * m.lind.hamiltonian,
                               [(eps * w, J) for w, J in m.lind.jumps]), m.state)


@pytest.mark.parametrize("eps", [1e-13, 1e-25])
def test_certify_a_model_in_small_units(eps):
    # the injectivity floor is relative to the generator's scale, so eps L
    # certifies with eps times the rate of L and s_H = eps 2h
    ref, small = certify(_scaled_tfim2(1.0)), certify(_scaled_tfim2(eps))
    assert small.constants.s_H == pytest.approx(1.8 * eps, rel=1e-12)
    assert small.nu / eps == pytest.approx(ref.nu, rel=1e-12)
    assert small.T * eps == pytest.approx(ref.T, rel=1e-12)


def test_certify_rejects_coercive():
    LD = build_gksl(np.zeros((2, 2)),
                    [(1.0, PAULI_X), (1.0, PAULI_Y), (1.0, PAULI_Z)])
    with pytest.raises(ValueError, match="coercive"):
        certify(split_form(PAULI_X, LD, MIXED2))


def test_certify_rejects_kernel_mixing():
    st = QuantumState.maximally_mixed(4)
    LD = build_gksl(np.zeros((4, 4)), [(2.0, op_on_qubit(PAULI_Z, 0, 2))])
    with pytest.raises(ValueError, match="mixes"):
        certify(split_form(op_on_qubit(PAULI_Z, 1, 2), LD, st))


def test_certify_coercive_route():
    LD = build_gksl(np.zeros((2, 2)),
                    [(1.0, PAULI_X), (1.0, PAULI_Y), (1.0, PAULI_Z)])
    cert = certify_coercive(Analysis(LD, MIXED2))
    lam = spectral_gap(Analysis(LD, MIXED2))
    assert cert.nu == pytest.approx(lam, rel=1e-12)
    assert cert.prefactor == pytest.approx(math.exp(cert.nu * cert.T), rel=1e-12)
    assert cert.T == pytest.approx(1.0 / (2.0 * lam), rel=1e-12)


@pytest.mark.parametrize("N", [6, 12])
def test_certify_coercive_rate_is_the_dissipator_singular_gap(N):
    # -M_D is symmetric positive definite on the traceless block, so its
    # smallest eigenvalue (the split's first rate) is its smallest singular value
    m = haar_avg_gibbs(np.linspace(0.0, 2.0, N), 1.0)
    an = Analysis(m.lind, m.state)
    smallest = np.linalg.svd(an.M_Dr, compute_uv=False)[-1]
    assert certify_coercive(an).nu == pytest.approx(smallest, rel=1e-12)


def test_certify_coercive_rejects_coherent_generator():
    # the one-way jump E01 is not KMS-symmetric for the uniform state
    E01_3 = np.zeros((3, 3))
    E01_3[0, 1] = 1.0
    LD = build_gksl(np.zeros((3, 3)), [(1.0, E01_3)])
    with pytest.raises(ValueError, match="Hermitian"):
        certify_coercive(Analysis(LD, QuantumState.maximally_mixed(3)))



def test_certificates_refuse_a_non_invariant_state():
    # a KMS-symmetric L^D leaves the Gibbs state invariant, but an H that
    # does not commute with it moves it: no certificate, coercive or not
    hm = haar_avg_gibbs([0.0, 1.0, 2.5], 1.0)
    H = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    an = split_form(H, hm.lind, hm.state)
    for issue in (certify_coercive, certify):
        with pytest.raises(ValueError, match="sigma is not invariant"):
            issue(an)


# ---------------------------------------------------------------------------
# optimize_T


def test_optimize_window_qubit():
    sc = structural_constants(split_form(PAULI_X, QUBIT_LD, MIXED2))
    T_star, nu_star = optimize_T(sc)
    assert 0.3 / sc.s_H <= T_star <= 30.0 / sc.s_H
    assert nu_star >= simplified_rate(sc)
    assert nu_star >= rate_from_constants(sc, 3.0 / sc.s_H)
    # rate collapses at both window extremes
    assert rate_from_constants(sc, 1e-6) < 1e-6 * nu_star
    assert rate_from_constants(sc, 1e6) < 1e-6 * nu_star


def test_optimize_window_scales_inversely_with_coupling():
    base = StructuralConstants(lambda_D=1.0, s_H=1.0, norm_LD=1.0,
                               norm_LH_plus=1.0)
    weak = StructuralConstants(lambda_D=1.0, s_H=0.01, norm_LD=1.0,
                               norm_LH_plus=1.0)
    T1, _ = optimize_T(base)
    T2, _ = optimize_T(weak)
    ratio = T2 / T1
    assert 30 <= ratio <= 300


def _grid_best(sc: StructuralConstants) -> float:
    """The best rate over 40001 log-spaced windows in [1e-2, 1e6]/s_H."""
    grid = np.logspace(math.log10(1e-2 / sc.s_H), math.log10(1e6 / sc.s_H), 40001)
    return max(rate_from_constants(sc, T) for T in grid)


def test_optimize_window_reaches_the_grid_maximum():
    # nu* is within 1e-7 of the best of the grid, which reaches four decades
    # past the first bracket [1e-2, 1e2]/s_H, and never below the rate at the
    # default window
    rng = np.random.default_rng(5)
    for _ in range(12):
        lam, norm_LH = 10 ** rng.uniform(-3, 2, size=2)
        sc = StructuralConstants(lambda_D=lam, s_H=10 ** rng.uniform(-3, 2),
                                 norm_LD=lam * 10 ** rng.uniform(0, 2),
                                 norm_LH_plus=norm_LH)
        T_star, nu_star = optimize_T(sc)
        assert nu_star == rate_from_constants(sc, T_star)
        assert nu_star >= rate_from_constants(sc, sc.default_window)
        assert nu_star >= (1.0 - 1e-7) * _grid_best(sc)


def test_optimize_window_past_the_first_bracket():
    # these constants put the best window at s_H T = 728, beyond 1e2, with a
    # rate 2.6 % above the rate at s_H T = 1e2
    sc = StructuralConstants(lambda_D=0.0062, s_H=57.6, norm_LD=0.065, norm_LH_plus=0.0059)
    T_star, nu_star = optimize_T(sc)
    assert 7e2 < T_star * sc.s_H < 7.6e2
    assert nu_star >= 1.025 * rate_from_constants(sc, 1e2 / sc.s_H)
    assert nu_star >= (1.0 - 1e-7) * _grid_best(sc)


# ---------------------------------------------------------------------------
# alpha / gamma scaling


def test_scaling_alpha_monotone_with_limit():
    sc = structural_constants(split_form(PAULI_X, QUBIT_LD, MIXED2))
    rep = alpha_gamma_scaling(sc)
    C1, C2 = c_constants(sc, 3.0 / sc.s_H)
    assert rep.alpha_limit == pytest.approx(sc.lambda_D / C1**2, rel=1e-12)
    for a, b in zip(rep.alpha_bounds, rep.alpha_bounds[1:]):
        assert b >= a - 1e-15
    for b in rep.alpha_bounds:
        assert b <= rep.alpha_limit + 1e-15


def test_scaling_gamma_star_is_the_maximizer():
    sc = structural_constants(split_form(PAULI_X, QUBIT_LD, MIXED2))
    rep = alpha_gamma_scaling(sc)
    C1, C2 = c_constants(sc, 3.0 / sc.s_H)
    assert rep.gamma_star == pytest.approx(C1 / (math.sqrt(sc.lambda_D) * C2),
                                           rel=1e-12)
    # the maximum of g lam / (C1^2 + g^2 lam C2^2) is sqrt(lam)/(2 C1 C2)
    assert rep.nu_gamma_star == pytest.approx(
        math.sqrt(sc.lambda_D) / (2 * C1 * C2), rel=1e-12)
    assert max(rep.gamma_bounds) <= rep.nu_gamma_star + 1e-18
    i = int(np.argmax(rep.gamma_bounds))
    lo = rep.gammas[max(i - 1, 0)]
    hi = rep.gammas[min(i + 1, len(rep.gammas) - 1)]
    assert lo <= rep.gamma_star <= hi


# ---------------------------------------------------------------------------
# DMS comparison


def test_dms_small_constant_regime():
    sc = StructuralConstants(lambda_D=0.05, s_H=0.05, norm_LD=1.0,
                             norm_LH_plus=1.0)
    rep = dms_compare(sc)
    assert rep.eta == pytest.approx(0.05**2, rel=1e-12)
    assert rep.C_M == pytest.approx(20.0, rel=1e-12)
    assert rep.epsilon == pytest.approx(0.5 * 0.05 * 0.0025
                                        / (2 * 0.0025 * 21.0**2), rel=1e-12)
    expect_nu = min(0.05 / (4 * (1 + rep.epsilon)),
                    rep.epsilon * 0.0025
                    / (3 * (1 + rep.epsilon) * 2 * 0.0025))
    assert rep.nu_dms == pytest.approx(expect_nu, rel=1e-12)
    assert rep.nu_dms == pytest.approx(4.724e-6, rel=1e-3)
    nu = rate_from_constants(sc, 3.0 / sc.s_H)
    assert 0.1 <= nu / rep.nu_dms <= 10.0


def test_dms_epsilon_and_prefactor_bounded():
    rng = np.random.default_rng(61)
    for _ in range(10):
        sc = StructuralConstants(lambda_D=float(rng.uniform(0.01, 10)),
                                 s_H=float(rng.uniform(0.01, 10)),
                                 norm_LD=float(rng.uniform(0.1, 10)),
                                 norm_LH_plus=float(rng.uniform(0.1, 10)))
        rep = dms_compare(sc)
        assert rep.epsilon <= 0.5
        assert rep.C_dms <= math.sqrt(3.0) + 1e-12
