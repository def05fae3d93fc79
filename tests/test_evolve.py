"""Exact semigroup evolution and certificate validation against it."""

import math
import re
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from exact_reference import lyapunov_window_gramian, stp_worst_ratio
from scipy.linalg import expm

from lindgap import (
    Analysis,
    GraphSpec,
    KmsFrame,
    PAULI_X,
    PAULI_Z,
    QuantumState,
    build_gksl,
    c_constants,
    certify,
    dephasing_jumps,
    graph_lindblad,
    haar_avg_gibbs,
    matrix_unit,
    op_on_qubit,
    semigroup_norm_curve,
    stp_verify,
    structural_constants,
    tfim,
    time_avg_check,
    window_gramian,
)
from lindgap import evolve
from lindgap.evolve import _flow

MIXED2 = QuantumState.maximally_mixed(2)
QUBIT = build_gksl(PAULI_X, [(2.0, PAULI_Z)])
QUBIT_AN = Analysis(QUBIT, MIXED2)
QUBIT_MR = QUBIT_AN.M_Dr + QUBIT_AN.M_Hr

CERT_NU = 0.002757570502323634
CERT_T = 1.5
CERT_CT = 1.0041449222802734


def rand_hermitian(rng, N):
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (B + B.conj().T) / 2


def split_form(H, LD, state):
    return Analysis(build_gksl(H, LD.jumps), state)


def two_vertex_model():
    spec = GraphSpec(2, [(0, 1)])
    return graph_lindblad(spec, QuantumState(np.diag([0.6, 0.4])))


# ---------------------------------------------------------------------------
# the stepping propagator


def tfim3_Mr():
    m = tfim(3, 0.75, 1.25)
    an = Analysis(m.lind, m.state)
    return an.M_Dr + an.M_Hr


@pytest.mark.parametrize("M", [
    # a 2x2 Jordan block: the qubit's slowest mode is defective
    pytest.param(QUBIT_MR, id="defective-qubit"),
    pytest.param(tfim3_Mr(), id="tfim3"),
])
@pytest.mark.parametrize("h, samples", [
    pytest.param(0.35, 12, id="short-step"),
    pytest.param(1.3, 4, id="long-step"),
])
def test_flow_matches_direct_exponentials(M, h, samples):
    X = np.random.default_rng(95).standard_normal((M.shape[0], 3))
    for k, Y in enumerate(islice(_flow(M, h, X), samples)):
        ref = expm(k * h * M) @ X
        assert np.linalg.norm(Y - ref) <= 1e-12 * np.linalg.norm(ref)


def test_flow_takes_one_exponential_per_distinct_step(monkeypatch):
    # the first sample, k = 0, needs none; every later one steps e^{hM}
    seen = []
    monkeypatch.setattr(evolve, "_expm", lambda A: seen.append(A) or expm(A))
    list(islice(_flow(QUBIT_MR, 0.5, np.eye(3)), 1))
    assert not seen
    list(islice(_flow(QUBIT_MR, 0.5, np.eye(3)), 6))
    assert len(seen) == 1
    assert np.array_equal(seen[0], 0.5 * QUBIT_MR)


# ---------------------------------------------------------------------------
# decay curves


def test_decay_curve_monotone_with_windows():
    rng = np.random.default_rng(85)
    X0 = rand_hermitian(rng, 2)
    rep = time_avg_check(QUBIT_AN, X0, 1.5, CERT_NU, 5.0 / 11, 12, CERT_CT)
    assert np.all(np.diff(rep.pointwise_values) <= 1e-12 * rep.pointwise_values[0])
    assert np.all(np.diff(rep.window_values) <= 1e-12 * rep.window_values[0])


def test_decay_curve_eigenvector_is_pure_exponential():
    m = two_vertex_model()
    kappa = m.kappa[0, 1]
    X0 = matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)
    rep = time_avg_check(Analysis(m.lind, m.state), X0, 1.0, 1e-3, 0.25, 9, 1.0)
    ts = rep.times
    assert np.array_equal(ts, 0.25 * np.arange(9))
    expected = rep.pointwise_values[0] * np.exp(2.0 * kappa * ts)
    assert np.abs(rep.pointwise_values - expected).max() \
        < 1e-8 * rep.pointwise_values[0]
    # an eigenvector's window average decays at the same rate
    windows = rep.window_values[0] * np.exp(2.0 * kappa * ts)
    assert np.abs(rep.window_values - windows).max() < 1e-8 * rep.window_values[0]


# ---------------------------------------------------------------------------
# time-averaged certificate check


def test_cert_check_passes_emitted_certificate():
    rng = np.random.default_rng(87)
    X0 = rand_hermitian(rng, 2)
    rep = time_avg_check(QUBIT_AN, X0, CERT_T, CERT_NU, 30.0 / 7, 8, CERT_CT)
    assert rep.passed and rep.window_ok and rep.pointwise_ok
    assert rep.worst_window_ratio <= 1.0 + 1e-6
    assert rep.worst_pointwise_ratio <= 1.0 + 1e-6
    # the window values are the exact averages
    fr = KmsFrame(MIXED2)
    Mr = fr.superop(QUBIT.unit_matrix(MIXED2.eigenvectors))[1:, 1:]
    G = lyapunov_window_gramian(Mr, CERT_T)
    xs = [expm(t * Mr) @ fr.coords(X0)[1:] for t in rep.times]
    exact = np.array([np.vdot(x, G @ x).real for x in xs])
    assert np.abs(rep.window_values - exact).max() < 1e-12 * exact[0]


@pytest.mark.parametrize("lind, state", [
    (haar_avg_gibbs([0.0, 1.0, 2.5], 1.0).lind,
     haar_avg_gibbs([0.0, 1.0, 2.5], 1.0).state),
    # pure dephasing has no gap: the Z direction never decays
    (build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)]), MIXED2),
])
def test_window_average_closed_form_for_detailed_balance(lind, state):
    # KMS detailed balance makes M Hermitian, so each eigenmode's window
    # average is (1 - e^{-2 lam T}) / (2 lam T), and 1 when lam = 0
    fr = KmsFrame(state)
    Mr = fr.superop(lind.unit_matrix(state.eigenvectors))[1:, 1:]
    assert np.abs(Mr - Mr.conj().T).max() < 1e-12
    lam, V = np.linalg.eigh(-Mr)
    X0 = rand_hermitian(np.random.default_rng(93), state.dim)
    c = V.conj().T @ fr.coords(X0)[1:]
    for T in (0.3, 2.0, 50.0):
        x = 2.0 * lam * T
        f = np.ones_like(x)
        nz = np.abs(x) > 1e-300
        f[nz] = -np.expm1(-x[nz]) / x[nz]
        exact = float(np.sum(np.abs(c) ** 2 * f))
        rep = time_avg_check(Analysis(lind, state), X0, T, 1e-3, 1.0, 1, 1.0)
        assert abs(rep.window_values[0] - exact) <= 1e-12 * exact


@pytest.mark.parametrize("T", [0.5, 2.0, 20.0])
def test_window_gramian_matches_lyapunov_solve(T):
    m = tfim(3, 0.75, 1.25)
    Mr = KmsFrame(m.state).superop(m.lind.unit_matrix(m.state.eigenvectors))[1:, 1:]
    G = window_gramian(Mr, T)
    ref = lyapunov_window_gramian(Mr, T)
    assert np.abs(G - ref).max() < 1e-12 * np.abs(ref).max()
    assert np.abs(G - G.conj().T).max() == 0.0


def test_window_gramian_survives_long_windows():
    # lam_max * T far beyond the range of a single Van Loan block exponential
    m = tfim(2, 1.0, 1.0)
    Mr = KmsFrame(m.state).superop(m.lind.unit_matrix(m.state.eigenvectors))[1:, 1:]
    G = window_gramian(Mr, 2000.0)
    assert np.all(np.isfinite(G))
    assert np.abs(G - lyapunov_window_gramian(Mr, 2000.0)).max() \
        < 1e-12 * np.abs(G).max()


def test_cert_check_rejects_inflated_rate():
    # the slowest mode is defective, so the squared norm beats e^{-4t} only
    # by a polynomial factor; claiming nu = 4 must fail
    rng = np.random.default_rng(89)
    X0 = rand_hermitian(rng, 2)
    rep = time_avg_check(QUBIT_AN, X0, CERT_T, 4.0, 2.5, 9, 1.1)
    assert not rep.passed
    assert rep.worst_window_ratio > 10.0


def test_cert_check_constant_observable_is_trivial():
    rep = time_avg_check(QUBIT_AN, np.eye(2), CERT_T, CERT_NU, 2.5, 5, CERT_CT)
    # coords of a constant are rounding noise that evolves like the true
    # dynamics, so the ratios sit at or below 1 instead of at 0
    assert rep.passed
    assert rep.worst_window_ratio <= 1.0 + 1e-9


def test_cert_check_survives_underflowed_decay():
    # e^{-nu t} underflows at nu*t > 745; the bound is then vacuously true
    rng = np.random.default_rng(91)
    X0 = rand_hermitian(rng, 2)
    rep = time_avg_check(QUBIT_AN, X0, CERT_T, 4.0, 500.0, 2, 1.1)
    assert rep.passed
    assert math.isfinite(rep.worst_window_ratio)


def test_cert_check_validates_inputs():
    with pytest.raises(ValueError):
        time_avg_check(QUBIT_AN, PAULI_Z, 0.0, 1.0, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        time_avg_check(QUBIT_AN, PAULI_Z, 1.0, -1.0, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        time_avg_check(QUBIT_AN, PAULI_Z, 1.0, 1.0, 1.0, 1, 0.9)
    # the propagator steps forward
    with pytest.raises(ValueError, match="^h must be finite and positive"):
        time_avg_check(QUBIT_AN, PAULI_Z, 1.0, 1.0, -1.0, 2, 1.0)
    for samples in (0, 2.0, True):
        with pytest.raises(ValueError, match="^samples must be an integer >= 1"):
            time_avg_check(QUBIT_AN, PAULI_Z, 1.0, 1.0, 1.0, samples, 1.0)


NON_FINITE = {
    "stp-T-nan": (lambda: stp_verify(QUBIT_AN, math.nan, 1.0), "T"),
    "stp-T-inf": (lambda: stp_verify(QUBIT_AN, math.inf, 1.0), "T"),
    "stp-beta-nan": (lambda: stp_verify(QUBIT_AN, 1.0, math.nan), "beta"),
    # the time step
    "check-time-nan": (lambda: time_avg_check(QUBIT_AN, PAULI_Z, CERT_T, CERT_NU,
                                              math.nan, 3, CERT_CT), "h"),
    "check-T-nan": (lambda: time_avg_check(QUBIT_AN, PAULI_Z, math.nan, CERT_NU,
                                           1.0, 2, CERT_CT), "T"),
    "check-T-inf": (lambda: time_avg_check(QUBIT_AN, PAULI_Z, math.inf, CERT_NU,
                                           1.0, 2, CERT_CT), "T"),
    "check-nu-nan": (lambda: time_avg_check(QUBIT_AN, PAULI_Z, CERT_T, math.nan,
                                            1.0, 2, CERT_CT), "nu"),
    "check-prefactor-inf": (lambda: time_avg_check(QUBIT_AN, PAULI_Z, CERT_T, CERT_NU,
                                                   1.0, 2, math.inf), "prefactor"),
    "norms-time-nan": (lambda: semigroup_norm_curve(QUBIT_AN, math.nan, 3), "h"),
    "certify-T-nan": (lambda: certify(QUBIT_AN, T=math.nan), "T"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_inputs_are_refused(case):
    # NaN fails every comparison, so a check written as "ratio > bound fails"
    # passes on it, and an infinite window or prefactor makes every bound vacuous
    call, name = NON_FINITE[case]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


# ---------------------------------------------------------------------------
# norm curves


def test_norm_curve_recovers_qubit_gap():
    nc = semigroup_norm_curve(QUBIT_AN, 0.625, 40)
    assert np.array_equal(nc.times, 0.625 * np.arange(1, 41))
    assert abs(nc.empirical_rate - 2.0) / 2.0 < 0.05
    assert nc.range_warning is None


def test_norm_curve_exact_for_self_adjoint_generator():
    m = two_vertex_model()
    nc = semigroup_norm_curve(Analysis(m.lind, m.state), 0.2, 15)
    assert np.abs(nc.norms - np.exp(-m.lambda_D * nc.times)).max() < 1e-8


def test_norm_curve_flags_short_time_range():
    nc = semigroup_norm_curve(QUBIT_AN, 0.05, 10)
    assert nc.range_warning is not None
    assert "five decay times" in nc.range_warning


def test_norm_curve_flags_underflow():
    nc = semigroup_norm_curve(QUBIT_AN, 40.0, 10)
    assert nc.range_warning == "norms underflowed inside the fit window"
    assert math.isfinite(nc.empirical_rate)
    late = semigroup_norm_curve(QUBIT_AN, 80.0, 10)
    assert late.range_warning == "norms underflowed before the fit window"
    assert math.isnan(late.empirical_rate)


def test_norm_curve_validates_grid():
    with pytest.raises(ValueError, match="^h must be finite and positive"):
        semigroup_norm_curve(QUBIT_AN, 0.0, 3)
    # the fit window, the last half of the samples, needs two points
    for samples in (2, 3.0):
        with pytest.raises(ValueError, match="^samples must be an integer >= 3"):
            semigroup_norm_curve(QUBIT_AN, 1.0, samples)


# ---------------------------------------------------------------------------
# space-time variance inequality


def test_stp_qubit_random_paths():
    LD = build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)])
    rep = stp_verify(split_form(PAULI_X, LD, MIXED2), T=1.5, beta=0.5,
                     n_samples=30, seed=1)
    assert rep.passed
    assert rep.worst_ratio <= 1.0 + 1e-6
    assert not rep.trivial_kernel
    assert rep.worst_ratio == pytest.approx(
        stp_worst_ratio(PAULI_X, LD, MIXED2, rep), rel=1e-10)
    sc = structural_constants(split_form(PAULI_X, LD, MIXED2))
    C1, C2 = c_constants(sc, 1.5, 0.5)
    assert rep.C1 == pytest.approx(C1, rel=1e-12)
    assert rep.C2 == pytest.approx(C2, rel=1e-12)


def _stp_model(name):
    """(H, L^D, state) of a model for the seeded-stream tests."""
    if name == "qubit":
        return PAULI_X, build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)]), MIXED2
    if name == "tfim3":
        m = tfim(3, 0.75, 1.25)
        return m.lind.hamiltonian, m.lind.dissipator(), m.state
    hm = haar_avg_gibbs([k / 6.0 for k in range(12)], 1.0)
    return np.zeros((12, 12)), hm.lind, hm.state


def test_stp_is_deterministic_per_seed():
    # the paths are drawn evolve.STP_CHUNK at a time from one seeded stream:
    # a run's draws are a prefix of a longer run's, so the worst ratio never
    # falls as n_samples grows, and each run matches the exact moments of
    # draws taken one operator at a time, on both sides of chunk boundaries
    chunk = evolve.STP_CHUNK
    for name in ("qubit", "tfim3", "haar12"):
        H, LD, state = _stp_model(name)
        an = split_form(H, LD, state)
        worst = 0.0
        for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 100):
            rep = stp_verify(an, T=1.0, beta=1.0, n_samples=n, seed=7)
            again = stp_verify(split_form(H, LD, state), T=1.0, beta=1.0,
                               n_samples=n, seed=7)
            assert rep.worst_ratio == again.worst_ratio, (name, n)
            assert rep.worst_ratio >= worst, (name, n)
            assert rep.worst_ratio == pytest.approx(
                stp_worst_ratio(H, LD, state, rep), rel=1e-10), (name, n)
            worst = rep.worst_ratio


def test_stp_memory_is_flat_in_the_number_of_samples():
    # one chunk of paths at a time: on tfim n=4, 2000 samples keep the traced
    # peak near that of one chunk; holding every path at once took 106 MB
    import numpy.random  # noqa: F401  (loads lazily; not the call's memory)

    m = tfim(4, 0.75, 1.25)
    an = Analysis(m.lind, m.state)
    T = an.constants.default_window
    stp_verify(an, T, 1.0, n_samples=1)  # builds the split and M_H, which an keeps
    tracemalloc.start()
    try:
        stp_verify(an, T, 1.0, n_samples=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_stp_trivial_kernel_route():
    hm = haar_avg_gibbs([0.0, 1.0, 2.5], 1.0)
    an = split_form(np.zeros((3, 3)), hm.lind, hm.state)
    rep = stp_verify(an, T=0.8, beta=0.5, n_samples=20, seed=3)
    assert rep.trivial_kernel
    assert rep.passed
    # the s_H -> inf constants; H = 0 drops the ||L^H|| term of C1
    assert rep.C1 == pytest.approx(math.sqrt(2) + 14, rel=1e-15)
    norm_LD = np.abs(an.split.rates).max()
    assert rep.C2 == pytest.approx(2 * math.sqrt(2) * math.sqrt(0.5 + norm_LD) * 0.8 / math.pi,
                                   rel=1e-12)


def test_stp_rejects_kernel_mixing_hamiltonian():
    st = QuantumState.maximally_mixed(4)
    LD = build_gksl(np.zeros((4, 4)), [(2.0, op_on_qubit(PAULI_Z, 0, 2))])
    with pytest.raises(ValueError, match="mixes"):
        stp_verify(split_form(op_on_qubit(PAULI_Z, 1, 2), LD, st), T=1.0, beta=0.5,
                   n_samples=2)


def test_stp_rejects_asymmetric_dissipator():
    LD = build_gksl(np.zeros((2, 2)), [(1.0, matrix_unit(2, 0, 1))])
    with pytest.raises(ValueError, match="symmetric"):
        stp_verify(split_form(PAULI_X, LD, MIXED2), T=1.0, beta=0.5, n_samples=2)


def test_stp_validates_inputs():
    LD = build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)])
    with pytest.raises(ValueError, match="beta"):
        stp_verify(split_form(PAULI_X, LD, MIXED2), T=1.0, beta=0.0)
    with pytest.raises(ValueError, match="T"):
        stp_verify(split_form(PAULI_X, LD, MIXED2), T=0.0, beta=1.0)
    with pytest.raises(ValueError):
        stp_verify(split_form(PAULI_X, LD, MIXED2), T=1.0, beta=1.0, n_samples=0)
    # integers only, as time_avg_check takes its samples: a bool is an int
    for kwargs, message in (
            ({"n_samples": 2.5}, "n_samples must be an integer >= 1, got 2.5"),
            ({"n_samples": True}, "n_samples must be an integer >= 1, got True"),
            ({"poly_degree": 1.5}, "poly_degree must be an integer >= 0, got 1.5"),
            ({"poly_degree": True}, "poly_degree must be an integer >= 0, got True"),
            ({"poly_degree": -1}, "poly_degree must be an integer >= 0, got -1")):
        with pytest.raises(ValueError, match=re.escape(message)):
            stp_verify(split_form(PAULI_X, LD, MIXED2), T=1.0, beta=1.0, **kwargs)


def test_stp_includes_dephasing_walk():
    from lindgap import cycle_graph, dephasing_walk

    m = dephasing_walk(1, 1.0, cycle_graph(2))
    LD = build_gksl(np.zeros((2, 2)), dephasing_jumps(1, 1.0))
    rep = stp_verify(split_form(m.lind.hamiltonian, LD, m.state), T=1.0, beta=1.0,
                     n_samples=15, seed=11)
    assert rep.passed
