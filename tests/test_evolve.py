"""Exact semigroup evolution and certificate validation against it."""

import math

import numpy as np
import pytest
from exact_reference import lyapunov_window_gramian, stp_worst_ratio
from scipy.linalg import expm

from lindgap import (
    DecayCurve,
    GraphSpec,
    PAULI_X,
    PAULI_Z,
    QuantumState,
    build_gksl,
    c_constants,
    decay_curve,
    dephasing_jumps,
    generator_matrix,
    graph_lindblad,
    haar_avg_gibbs,
    kms_frame,
    matrix_unit,
    op_on_qubit,
    propagate,
    semigroup_norm_curve,
    stp_verify,
    structural_constants,
    tfim,
    time_avg_check,
    window_gramian,
)

MIXED2 = QuantumState.maximally_mixed(2)
QUBIT = build_gksl(PAULI_X, [(2.0, PAULI_Z)])

CERT_NU = 0.002757570502323634
CERT_T = 1.5
CERT_CT = 1.0041449222802734


def rand_hermitian(rng, N):
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (B + B.conj().T) / 2


def two_vertex_model():
    spec = GraphSpec(2, [(0, 1)])
    return graph_lindblad(spec, QuantumState(np.diag([0.6, 0.4])))


# ---------------------------------------------------------------------------
# propagate


def test_propagate_identity_at_zero_time():
    rng = np.random.default_rng(81)
    X0 = rand_hermitian(rng, 2)
    assert np.abs(propagate(QUBIT, MIXED2, X0, 0.0) - X0).max() < 1e-12


def test_propagate_relaxes_to_the_mean():
    rng = np.random.default_rng(83)
    X0 = rand_hermitian(rng, 2)
    mean = np.trace(MIXED2.matrix @ X0).real
    Xt = propagate(QUBIT, MIXED2, X0, 200.0)
    assert np.abs(Xt - mean * np.eye(2)).max() < 1e-10


def test_propagate_rejects_negative_time_and_drifting_mean():
    with pytest.raises(ValueError, match="nonnegative"):
        propagate(QUBIT, MIXED2, PAULI_Z, -1.0)
    wrong = QuantumState(np.diag([0.7, 0.3]))
    with pytest.raises(ValueError, match="not invariant"):
        propagate(QUBIT, wrong, PAULI_Z, 1.0)


# ---------------------------------------------------------------------------
# decay curves


def test_decay_curve_monotone_with_windows():
    rng = np.random.default_rng(85)
    X0 = rand_hermitian(rng, 2)
    ts = np.linspace(0.0, 5.0, 12)
    dc = decay_curve(QUBIT, MIXED2, X0, ts, window_T=1.5)
    assert np.all(np.diff(dc.values) <= 1e-12 * dc.values[0])
    assert np.all(np.diff(dc.window_values) <= 1e-12 * dc.window_values[0])


def test_decay_curve_eigenvector_is_pure_exponential():
    m = two_vertex_model()
    kappa = m.kappa[0, 1]
    X0 = matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)
    ts = np.linspace(0.0, 2.0, 9)
    dc = decay_curve(m.lind, m.state, X0, ts)
    expected = dc.values[0] * np.exp(2.0 * kappa * ts)
    assert np.abs(dc.values - expected).max() < 1e-8 * dc.values[0]


def test_decay_curve_dataclass_validation():
    with pytest.raises(ValueError, match="increasing"):
        DecayCurve(times=np.array([0.0, 0.0, 1.0]),
                   values=np.array([1.0, 0.5, 0.2]))
    with pytest.raises(ValueError, match="nonincreasing"):
        DecayCurve(times=np.array([0.0, 1.0, 2.0]),
                   values=np.array([1.0, 0.5, 0.8]))


# ---------------------------------------------------------------------------
# time-averaged certificate check


def test_cert_check_passes_emitted_certificate():
    rng = np.random.default_rng(87)
    X0 = rand_hermitian(rng, 2)
    ts = np.linspace(0.0, 30.0, 8)
    rep = time_avg_check(QUBIT, MIXED2, X0, CERT_T, CERT_NU, ts, CERT_CT)
    assert rep.passed and rep.window_ok and rep.pointwise_ok
    assert rep.worst_window_ratio <= 1.0 + 1e-6
    assert rep.worst_pointwise_ratio <= 1.0 + 1e-6
    # the window values are the exact averages
    fr = kms_frame(MIXED2)
    Mr = generator_matrix(QUBIT, fr, restricted=True).matrix
    G = lyapunov_window_gramian(Mr, CERT_T)
    xs = [expm(t * Mr) @ fr.coords(X0)[1:] for t in ts]
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
    fr = kms_frame(state)
    Mr = generator_matrix(lind, fr, restricted=True).matrix
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
        rep = time_avg_check(lind, state, X0, T, 1e-3, [0.0], 1.0)
        assert abs(rep.window_values[0] - exact) <= 1e-12 * exact


@pytest.mark.parametrize("T", [0.5, 2.0, 20.0])
def test_window_gramian_matches_lyapunov_solve(T):
    m = tfim(3, 0.75, 1.25)
    Mr = generator_matrix(m.lind, kms_frame(m.state), restricted=True).matrix
    G = window_gramian(Mr, T)
    ref = lyapunov_window_gramian(Mr, T)
    assert np.abs(G - ref).max() < 1e-12 * np.abs(ref).max()
    assert np.abs(G - G.conj().T).max() == 0.0


def test_window_gramian_survives_long_windows():
    # lam_max * T far beyond the range of a single Van Loan block exponential
    m = tfim(2, 1.0, 1.0)
    Mr = generator_matrix(m.lind, kms_frame(m.state), restricted=True).matrix
    G = window_gramian(Mr, 2000.0)
    assert np.all(np.isfinite(G))
    assert np.abs(G - lyapunov_window_gramian(Mr, 2000.0)).max() \
        < 1e-12 * np.abs(G).max()


def test_cert_check_rejects_inflated_rate():
    # the slowest mode is defective, so the squared norm beats e^{-4t} only
    # by a polynomial factor; claiming nu = 4 must fail
    rng = np.random.default_rng(89)
    X0 = rand_hermitian(rng, 2)
    ts = np.linspace(0.0, 20.0, 9)
    rep = time_avg_check(QUBIT, MIXED2, X0, CERT_T, 4.0, ts, 1.1)
    assert not rep.passed
    assert rep.worst_window_ratio > 10.0


def test_cert_check_constant_observable_is_trivial():
    ts = np.linspace(0.0, 10.0, 5)
    rep = time_avg_check(QUBIT, MIXED2, np.eye(2), CERT_T, CERT_NU, ts, CERT_CT)
    # coords of a constant are rounding noise that evolves like the true
    # dynamics, so the ratios sit at or below 1 instead of at 0
    assert rep.passed
    assert rep.worst_window_ratio <= 1.0 + 1e-9


def test_cert_check_survives_underflowed_decay():
    # e^{-nu t} underflows at nu*t > 745; the bound is then vacuously true
    rng = np.random.default_rng(91)
    X0 = rand_hermitian(rng, 2)
    rep = time_avg_check(QUBIT, MIXED2, X0, CERT_T, 4.0, [0.0, 500.0], 1.1)
    assert rep.passed
    assert math.isfinite(rep.worst_window_ratio)


def test_cert_check_validates_inputs():
    with pytest.raises(ValueError):
        time_avg_check(QUBIT, MIXED2, PAULI_Z, 0.0, 1.0, [0.0], 1.0)
    with pytest.raises(ValueError):
        time_avg_check(QUBIT, MIXED2, PAULI_Z, 1.0, -1.0, [0.0], 1.0)
    with pytest.raises(ValueError):
        time_avg_check(QUBIT, MIXED2, PAULI_Z, 1.0, 1.0, [0.0], 0.9)
    with pytest.raises(ValueError):
        time_avg_check(QUBIT, MIXED2, PAULI_Z, 1.0, 1.0, [-1.0], 1.0)


# ---------------------------------------------------------------------------
# norm curves


def test_norm_curve_recovers_qubit_gap():
    ts = np.linspace(0.625, 25.0, 40)
    nc = semigroup_norm_curve(QUBIT, MIXED2, ts)
    assert abs(nc.empirical_rate - 2.0) / 2.0 < 0.05
    assert nc.range_warning is None


def test_norm_curve_exact_for_self_adjoint_generator():
    m = two_vertex_model()
    ts = np.linspace(0.1, 3.0, 15)
    nc = semigroup_norm_curve(m.lind, m.state, ts)
    assert np.abs(nc.norms - np.exp(-m.lambda_D * ts)).max() < 1e-8


def test_norm_curve_flags_short_time_range():
    nc = semigroup_norm_curve(QUBIT, MIXED2, np.linspace(0.05, 0.5, 10))
    assert nc.range_warning is not None
    assert "five decay times" in nc.range_warning


def test_norm_curve_flags_underflow():
    nc = semigroup_norm_curve(QUBIT, MIXED2, np.linspace(1.0, 400.0, 10))
    assert nc.range_warning == "norms underflowed inside the fit window"
    assert math.isfinite(nc.empirical_rate)
    late = semigroup_norm_curve(QUBIT, MIXED2, np.linspace(400.0, 800.0, 6))
    assert late.range_warning == "norms underflowed before the fit window"
    assert math.isnan(late.empirical_rate)


def test_norm_curve_validates_grid():
    with pytest.raises(ValueError, match="increasing"):
        semigroup_norm_curve(QUBIT, MIXED2, [2.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="two points"):
        semigroup_norm_curve(QUBIT, MIXED2, [1.0, 2.0])


# ---------------------------------------------------------------------------
# space-time variance inequality


def test_stp_qubit_random_paths():
    LD = build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)])
    rep = stp_verify(PAULI_X, LD, MIXED2, T=1.5, beta=0.5,
                     n_samples=30, seed=1)
    assert rep.passed
    assert rep.worst_ratio <= 1.0 + 1e-6
    assert not rep.trivial_kernel
    assert rep.worst_ratio == pytest.approx(
        stp_worst_ratio(PAULI_X, LD, MIXED2, rep), rel=1e-10)
    sc = structural_constants(PAULI_X, LD, MIXED2)
    C1, C2 = c_constants(sc, 1.5, 0.5)
    assert rep.C1 == pytest.approx(C1, rel=1e-12)
    assert rep.C2 == pytest.approx(C2, rel=1e-12)


def test_stp_is_deterministic_per_seed():
    LD = build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)])
    a = stp_verify(PAULI_X, LD, MIXED2, T=1.0, beta=1.0, n_samples=5, seed=7)
    b = stp_verify(PAULI_X, LD, MIXED2, T=1.0, beta=1.0, n_samples=5, seed=7)
    assert a.worst_ratio == b.worst_ratio


def test_stp_trivial_kernel_route():
    hm = haar_avg_gibbs([0.0, 1.0, 2.5], 1.0)
    rep = stp_verify(np.zeros((3, 3)), hm.lind, hm.state, T=0.8, beta=0.5,
                     n_samples=20, seed=3)
    assert rep.trivial_kernel
    assert rep.passed


def test_stp_rejects_kernel_mixing_hamiltonian():
    st = QuantumState.maximally_mixed(4)
    LD = build_gksl(np.zeros((4, 4)), [(2.0, op_on_qubit(PAULI_Z, 0, 2))])
    with pytest.raises(ValueError, match="mixes"):
        stp_verify(op_on_qubit(PAULI_Z, 1, 2), LD, st, T=1.0, beta=0.5,
                   n_samples=2)


def test_stp_rejects_asymmetric_dissipator():
    LD = build_gksl(np.zeros((2, 2)), [(1.0, matrix_unit(2, 0, 1))])
    with pytest.raises(ValueError, match="symmetric"):
        stp_verify(PAULI_X, LD, MIXED2, T=1.0, beta=0.5, n_samples=2)


def test_stp_validates_inputs():
    LD = build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)])
    with pytest.raises(ValueError, match="beta"):
        stp_verify(PAULI_X, LD, MIXED2, T=1.0, beta=0.0)
    with pytest.raises(ValueError, match="T"):
        stp_verify(PAULI_X, LD, MIXED2, T=0.0, beta=1.0)
    with pytest.raises(ValueError):
        stp_verify(PAULI_X, LD, MIXED2, T=1.0, beta=1.0, n_samples=0)


def test_stp_includes_dephasing_walk():
    from lindgap import cycle_graph, dephasing_walk

    m = dephasing_walk(1, 1.0, cycle_graph(2))
    LD = build_gksl(np.zeros((2, 2)), dephasing_jumps(1, 1.0))
    rep = stp_verify(m.lind.hamiltonian, LD, m.state, T=1.0, beta=1.0,
                     n_samples=15, seed=11)
    assert rep.passed
