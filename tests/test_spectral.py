"""Spectral gaps, Bohr blocks, strong-coupling limits."""

import tracemalloc

import numpy as np
import pytest
from exact_reference import bohr_table_by_eigh, symmetrized_gap

from lindgap import (
    Analysis,
    GraphSpec,
    KmsFrame,
    QuantumState,
    birth_death_spectrum,
    bohr_decompose,
    build_gksl,
    cycle_graph,
    dephasing_walk,
    gap_curve,
    graph_lindblad,
    haar_avg_gibbs,
    hypercube_graph,
    large_alpha_limit,
    single_jump_model,
    singular_relaxation_check,
    spectral_gap,
    structure_report,
    tfim,
)
from lindgap.lindblad import SECTOR_TOL, generator_matrix, sector_blocks
from lindgap.models import PAULI_X, PAULI_Y, PAULI_Z

MIXED2 = QuantumState.maximally_mixed(2)


def qubit_model(alpha: float = 1.0):
    # weight 2 makes the dissipator the double commutator -[Z, [Z, .]]
    return build_gksl(PAULI_X, [(2.0, PAULI_Z)], alpha=alpha)


def split_form(H, LD, state):
    return Analysis(build_gksl(H, LD.jumps), state)


def pauli_dissipator(wx: float, wy: float, wz: float):
    jumps = [(w, P) for w, P in
             ((wx, PAULI_X), (wy, PAULI_Y), (wz, PAULI_Z)) if w > 0]
    return build_gksl(np.zeros((2, 2)), jumps)


# ---------------------------------------------------------------------------
# spectral_gap


def test_gap_dephasing_alone_is_zero():
    gap = spectral_gap(Analysis(pauli_dissipator(0, 0, 1.0), MIXED2))
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_gap_qubit_model():
    an = Analysis(qubit_model(), MIXED2)
    gap = spectral_gap(an)
    assert gap == pytest.approx(2.0, abs=1e-10)
    assert an.singular_gap == pytest.approx(2 * (np.sqrt(2) - 1), abs=1e-10)
    # coherent rotation kills the symmetrized gap but not the true one
    sym = symmetrized_gap(an)
    assert sym == pytest.approx(0.0, abs=1e-10)
    assert sym <= gap + 1e-12


def test_gap_restricted_spectrum_qubit():
    M = generator_matrix(qubit_model(), KmsFrame(MIXED2))[1:, 1:]
    w = np.sort(np.linalg.eigvals(M).real)
    assert np.abs(w - np.array([-4.0, -2.0, -2.0])).max() < 1e-10


def test_gap_equals_symmetrized_for_db_generator():
    spec = GraphSpec(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    st = QuantumState(np.diag([0.4, 0.3, 0.2, 0.1]))
    m = graph_lindblad(spec, st)
    an = Analysis(m.lind, st)
    gap = spectral_gap(an)
    assert gap > 0
    assert gap == pytest.approx(symmetrized_gap(an), rel=1e-10)


def test_gap_rejects_non_invariant_state():
    with pytest.raises(ValueError, match="invariant"):
        spectral_gap(Analysis(qubit_model(), QuantumState(np.diag([0.9, 0.1]))))


def test_spectrum_conjugation_and_dissipativity():
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(3, 6))
        spec = GraphSpec(n, [(i, i + 1) for i in range(n - 1)])
        mu = rng.uniform(0.5, 2.0, size=n)
        st = QuantumState(np.diag(mu / mu.sum()))
        m = graph_lindblad(spec, st)
        H = np.diag(rng.standard_normal(n))
        L = build_gksl(H, m.lind.jumps, alpha=float(rng.uniform(0.2, 3.0)))
        M = generator_matrix(L, KmsFrame(st))[1:, 1:]
        w = np.linalg.eigvals(M)
        assert w.real.max() <= 1e-10
        wl = sorted(w, key=lambda z: (round(z.real, 8), round(abs(z.imag), 8)))
        for z in wl:
            assert min(abs(z.conjugate() - u) for u in wl) < 1e-8


def test_singular_gap_below_every_eigenvalue():
    an = Analysis(qubit_model(), MIXED2)
    for ev in np.linalg.eigvals(an.M_Dr + an.M_Hr):
        assert an.singular_gap <= abs(ev) + 1e-9


# ---------------------------------------------------------------------------
# bohr_decompose


def test_bohr_qubit_z():
    blocks = bohr_decompose(Analysis(build_gksl(PAULI_Z, []), MIXED2))
    freqs = sorted(b.frequency for b in blocks)
    assert freqs == pytest.approx([-2.0, 0.0, 2.0], abs=1e-10)
    assert [b.dim for b in blocks] == [1, 1, 1]


def test_bohr_zero_hamiltonian_single_block():
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    blocks = bohr_decompose(Analysis(build_gksl(np.zeros((3, 3)), []), st))
    assert len(blocks) == 1
    assert blocks[0].frequency == 0.0
    assert blocks[0].dim == 8


def _assert_matches_reference(an, L, st):
    blocks = bohr_decompose(an)
    ours = [(b.frequency, b.dim, b.lambda_nu) for b in blocks]
    assert ours == sorted(ours)
    ref = sorted(bohr_table_by_eigh(L, st))
    assert [d for _, d, _ in ours] == [d for _, d, _ in ref]
    hnorm = max(np.linalg.norm(an.H, 2), 1.0)
    for (f, _, lam), (f_ref, _, lam_ref) in zip(ours, ref):
        assert abs(f - f_ref) <= 1e-12 * hnorm
        assert lam == pytest.approx(lam_ref, rel=1e-10, abs=1e-12)
    return blocks


def test_bohr_qubit_x_zero_block_is_span_x():
    # sigma is uniform, so the frame turns to the eigenbasis of X: its zero
    # block is the span of X alone, its +-2 blocks those of the other units
    L = build_gksl(PAULI_X, [])
    blocks = _assert_matches_reference(Analysis(L, MIXED2), L, MIXED2)
    assert [b.frequency for b in blocks] == pytest.approx([-2.0, 0.0, 2.0], abs=1e-12)
    assert [b.dim for b in blocks] == [1, 1, 1]


def test_bohr_blocks_partition_and_commute():
    rng = np.random.default_rng(37)
    st = QuantumState(np.diag([0.4, 0.3, 0.2, 0.1]))
    H = np.diag(rng.standard_normal(4))
    L = build_gksl(H, [])
    blocks = _assert_matches_reference(Analysis(L, st), L, st)
    # distinct random energies: the 3 traceless diagonals at 0, each of the
    # 12 units |a><b| alone at E_a - E_b
    assert [b.dim for b in blocks] == [1] * 6 + [3] + [1] * 6


def test_bohr_rejects_noncommuting_hamiltonian():
    st = QuantumState(np.diag([0.75, 0.25]))
    with pytest.raises(ValueError, match="commute"):
        bohr_decompose(Analysis(build_gksl(PAULI_X, []), st))


# ---------------------------------------------------------------------------
# lambda_nu per block and the strong-coupling limit


def test_lambda_table_qubit():
    an = split_form(PAULI_X, pauli_dissipator(0, 0, 2.0), MIXED2)
    blocks = bohr_decompose(an)
    table = {round(b.frequency, 6): b.lambda_nu for b in blocks}
    assert table[0.0] == pytest.approx(4.0, abs=1e-10)
    assert table[2.0] == pytest.approx(2.0, abs=1e-10)
    assert table[-2.0] == pytest.approx(2.0, abs=1e-10)


def test_lambda_table_single_block_is_gap():
    spec = GraphSpec(3, [(0, 1), (1, 2)])
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    an = Analysis(m.lind, st)
    g = spectral_gap(an)
    blocks = bohr_decompose(an)
    assert len(blocks) == 1
    assert blocks[0].lambda_nu == pytest.approx(g, rel=1e-10)


def test_lambda_positive_iff_primitive():
    LD = pauli_dissipator(0, 0, 1.0)
    an = split_form(PAULI_X, LD, MIXED2)
    primitive_blocks = bohr_decompose(an)
    assert min(b.lambda_nu for b in primitive_blocks) > 0
    assert structure_report(an).primitive
    an = split_form(PAULI_Z, LD, MIXED2)
    degenerate_blocks = bohr_decompose(an)
    assert min(b.lambda_nu for b in degenerate_blocks) == pytest.approx(0.0,
                                                                        abs=1e-12)
    assert not structure_report(an).primitive


def test_large_alpha_limit_qubit():
    an = split_form(PAULI_X, pauli_dissipator(0, 0, 2.0), MIXED2)
    limit = large_alpha_limit(an)
    assert limit == pytest.approx(2.0, abs=1e-10)
    curve = gap_curve(an, [1.0, 10.0, 100.0])
    assert abs(curve.gaps[-1] - 2.0) < 0.05
    assert curve.limit == pytest.approx(2.0, abs=1e-10)
    assert curve.final_deviation == pytest.approx(abs(curve.gaps[-1] - 2.0))


def _shifted_analysis(c):
    # sigma = 1/4 and two random Hermitian jumps; the Bohr frequencies of H
    # are +-0.97, +-1, +-1.03, +-2, +-2.03, +-3 and 0
    rng = np.random.default_rng(0)
    jumps = []
    for _ in range(2):
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        jumps.append((1.0, (B + B.conj().T) / 2))
    H = np.diag([0.0, 1.0, 2.03, 3.0]) + c * np.eye(4)
    return Analysis(build_gksl(H, jumps), QuantumState.maximally_mixed(4))


def test_bohr_blocks_ignore_a_shift_of_h():
    # i[H + c, .] = i[H, .]: frequencies merge on the scale of the largest
    # Bohr frequency; one of max|E| = 1e6 would merge 0.97, 1 and 1.03
    an = _shifted_analysis(1e6)
    base, shifted = bohr_decompose(_shifted_analysis(0.0)), bohr_decompose(an)
    assert len(base) == 13
    assert [b.dim for b in shifted] == [b.dim for b in base]
    assert [b.frequency for b in shifted] == pytest.approx(
        [b.frequency for b in base], abs=1e-8)
    limit = large_alpha_limit(an)
    assert limit == pytest.approx(min(b.lambda_nu for b in base), rel=1e-12)
    assert limit == pytest.approx(3.3570133752, rel=1e-10)
    assert gap_curve(an, [1e4]).gaps[0] == pytest.approx(limit, abs=1e-6)


def test_bohr_blocks_of_a_multiple_of_the_identity():
    # H = c I commutes with every sigma; in a joint basis off sigma's own axes
    # its energies differ from c by rounding of order eps * c, and every
    # frequency is 0: one block
    m = haar_avg_gibbs([0.0, 1.0, 2.0, 3.5], 1.0)
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    st = QuantumState(Q @ m.state.matrix @ Q.conj().T)
    jumps = [(w, Q @ J @ Q.conj().T) for w, J in m.lind.jumps]
    ref = large_alpha_limit(Analysis(build_gksl(np.zeros((4, 4)), jumps), st))
    an = Analysis(build_gksl(1e6 * np.eye(4), jumps), st)
    assert np.ptp(an.energies) > 0
    blocks = bohr_decompose(an)
    assert [(b.frequency, b.dim) for b in blocks] == [(0.0, 15)]
    assert blocks[0].lambda_nu == pytest.approx(ref, rel=1e-12)


def _tfim_analysis(n):
    m = tfim(n, 0.9, 1.1)
    return Analysis(m.lind, m.state)


def _single_jump_analysis():
    m = single_jump_model(np.diag([1.0, -0.3, 0.8]), np.array(
        [[0.2, 1.0, 0.5j], [1.0, -0.4, 0.3], [-0.5j, 0.3, 0.1]]))
    return Analysis(m.lind, m.state)


def _graph_analysis():
    # sigma is degenerate on vertices 0 and 1; H mixes them, so it commutes
    # with sigma and is not diagonal
    st = QuantumState(np.diag([0.3, 0.3, 0.25, 0.15]))
    m = graph_lindblad(GraphSpec(4, [(0, 2), (1, 3), (2, 3)]), st)
    H = np.diag([0.5, 0.5, -0.2, 1.0]).astype(complex)
    H[0, 1], H[1, 0] = 0.7 - 0.2j, 0.7 + 0.2j
    return Analysis(build_gksl(H, m.lind.jumps, alpha=1.3), st)


MIRRORED = {
    "tfim3": lambda: _tfim_analysis(3),
    "tfim4": lambda: _tfim_analysis(4),
    "single_jump": _single_jump_analysis,
    "graph": _graph_analysis,
}


@pytest.mark.parametrize("model", sorted(MIRRORED))
def test_bohr_blocks_are_mirror_symmetric(model):
    # block k and block -1-k hold the same pairs at opposite frequencies, and
    # their compressions of the real -M_D are complex conjugates: same energy
    an = MIRRORED[model]()
    blocks = bohr_decompose(an)
    freqs = np.array([b.frequency for b in blocks])
    lams = np.array([b.lambda_nu for b in blocks])
    assert len(blocks) % 2 == 1 and freqs[len(blocks) // 2] == 0.0
    assert np.allclose(freqs, -freqs[::-1], rtol=0.0, atol=1e-12)
    assert np.allclose(lams, lams[::-1], rtol=1e-12, atol=0.0)
    assert large_alpha_limit(an) == pytest.approx(lams.min(), rel=1e-14, abs=0.0)


def test_acceleration_never_below_dissipative_gap():
    rng = np.random.default_rng(41)
    for _ in range(3):
        n = int(rng.integers(3, 5))
        spec = GraphSpec(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < 0.8] or [(0, 1)])
        used = sorted({v for e in spec.edges for v in e})
        if len(used) < n:
            spec = GraphSpec(n, list(spec.edges) + [(0, n - 1)])
        mu = rng.uniform(0.5, 2.0, size=n)
        st = QuantumState(np.diag(mu / mu.sum()))
        m = graph_lindblad(spec, st)
        if len(spec.components) != 1:
            continue
        gap_d = spectral_gap(Analysis(m.lind, st))
        H = np.diag(rng.standard_normal(n))
        curve = gap_curve(split_form(H, m.lind, st), [0.1, 1.0, 10.0])
        for g in curve.gaps:
            assert g >= gap_d - 1e-9


def test_gap_constant_when_h_acts_inside_gap_space():
    # X and Y span the gap eigenspace of the dissipator; H = Z rotates
    # within it, so coherent driving cannot accelerate
    LD = pauli_dissipator(1.0, 1.0, 0.25)
    gap_d = spectral_gap(Analysis(LD, MIXED2))
    assert gap_d == pytest.approx(2.5, abs=1e-10)
    curve = gap_curve(split_form(PAULI_Z, LD, MIXED2), [0.5, 1.0, 10.0, 100.0])
    for g in curve.gaps:
        assert g == pytest.approx(gap_d, abs=1e-8)
    assert curve.limit == pytest.approx(gap_d, abs=1e-10)


# ---------------------------------------------------------------------------
# singular relaxation bound


def test_singular_check_on_certificate_pair():
    ok, lhs, s = singular_relaxation_check(Analysis(qubit_model(), MIXED2),
                                           2.7576e-3, 1.5)
    assert ok
    assert lhs == pytest.approx(1 / 2.7576e-3 + 1.5)
    assert s == pytest.approx(2 * (np.sqrt(2) - 1), abs=1e-10)


def test_singular_check_hermitian_gap_pair():
    spec = GraphSpec(3, [(0, 1), (1, 2)])
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    an = Analysis(m.lind, st)
    lam = spectral_gap(an)
    ok, lhs, s = singular_relaxation_check(an, lam, 0.0)
    assert ok and lhs == pytest.approx(1 / lam)
    assert s <= lam + 1e-9


def test_singular_check_tiny_rate_trivially_true():
    ok, _, _ = singular_relaxation_check(Analysis(qubit_model(), MIXED2), 1e-9, 0.1)
    assert ok


def test_singular_check_fails_at_a_zero_singular_gap():
    # pure dephasing keeps Z: s = 0, and 1/nu + T >= 1/s holds for no pair
    an = Analysis(pauli_dissipator(0, 0, 1.0), MIXED2)
    ok, lhs, s = singular_relaxation_check(an, 0.1, 1.0)
    assert s == 0.0 and lhs == pytest.approx(11.0)
    assert not ok


@pytest.mark.parametrize("nu, T, name", [(-1.0, 1.0, "nu"), (0.0, 1.0, "nu"),
                                         (np.nan, 1.0, "nu"), (np.inf, 1.0, "nu"),
                                         (0.1, -1.0, "T"), (0.1, np.nan, "T"),
                                         (0.1, np.inf, "T")])
def test_singular_check_refuses_a_bad_rate_or_window(nu, T, name):
    an = Analysis(pauli_dissipator(0, 0, 1.0), MIXED2)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        singular_relaxation_check(an, nu, T)


# ---------------------------------------------------------------------------
# joint eigenbasis of sigma and H, Bohr blocks by formula, sectors


def _graph_with_h(mu, H):
    st = QuantumState(np.diag(np.asarray(mu) / np.sum(mu)))
    m = graph_lindblad(GraphSpec(len(mu), [(0, 1), (1, 2), (2, 3), (0, 3)]), st)
    return build_gksl(H, m.lind.jumps), st


def _random_hermitian(N, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (B + B.conj().T) / 2


def _degenerate_mixing_h():
    # sigma is threefold degenerate on levels 1..3, and H mixes that eigenspace
    H = np.zeros((4, 4), dtype=complex)
    H[0, 0] = 0.7
    H[1:, 1:] = _random_hermitian(3, 5)
    return H


def _commuting_family(name):
    if name.startswith("tfim"):
        m = tfim(int(name[-1]), 0.9, 1.1)
        return m.lind, m.state
    if name == "walk-cycle":
        m = dephasing_walk(2, 0.8, cycle_graph(4))
        return m.lind, m.state
    if name == "walk-hypercube":
        m = dephasing_walk(3, 0.6, hypercube_graph(3))
        return m.lind, m.state
    if name == "birth_death":
        m = birth_death_spectrum([2, 3], 0.7).model
        return build_gksl(np.diag([0.3, -0.2, 0.9, 0.1, -0.6]), m.lind.jumps), m.state
    if name == "haar_gibbs":
        m = haar_avg_gibbs([0.0, 0.4, 1.0, 2.5], 1.0)
        return m.lind, m.state
    if name == "graph+H-uniform":
        return _graph_with_h([1.0, 1.0, 1.0, 1.0], _random_hermitian(4, 3))
    if name == "graph+H-nonuniform":
        return _graph_with_h([0.4, 0.3, 0.2, 0.1], np.diag([0.5, -1.0, 0.25, 2.0]))
    if name == "graph+H-degenerate":
        return _graph_with_h([0.4, 0.2, 0.2, 0.2], _degenerate_mixing_h())
    if name == "ladder+complex-jumps":
        # equally spaced levels put several units in each block, and complex
        # jumps couple their s and t coordinates
        jumps = [(1.0, _random_hermitian(4, seed)) for seed in (11, 12)]
        return build_gksl(np.diag([0.0, 1.0, 2.0, 3.0]), jumps), QuantumState.maximally_mixed(4)
    raise KeyError(name)


COMMUTING = ["tfim2", "tfim3", "tfim4", "walk-cycle", "walk-hypercube", "birth_death",
             "haar_gibbs", "graph+H-uniform", "graph+H-nonuniform",
             "graph+H-degenerate", "ladder+complex-jumps"]


def _blocks_model(name):
    if name == "haar_gibbs6":
        m = haar_avg_gibbs([0.0, 0.3, 0.7, 1.2, 1.6, 2.0], 1.0)
        return m.lind, m.state
    if name == "graph+H-noncommuting":
        return _graph_with_h([0.4, 0.3, 0.2, 0.1], _random_hermitian(4, 3))
    return _commuting_family(name)


@pytest.mark.parametrize("name", ["tfim3", "haar_gibbs6", "graph+H-noncommuting"])
def test_blocks_are_the_sector_blocks_of_each_coupling(name):
    an = Analysis(*_blocks_model(name))
    assert (an.energies is None) == (name == "graph+H-noncommuting")
    for a in (1.0, 10.0, 100.0, 1000.0):
        want = sector_blocks(a * an.M_Hr + an.M_Dr, an.sectors)
        got = an.blocks(a)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # at a = 1, the blocks of M_Dr + M_Hr itself
    assert all(np.array_equal(g, w) for g, w in
               zip(an.blocks(), sector_blocks(an.M_Dr + an.M_Hr, an.sectors)))


def test_gap_curve_holds_no_whole_traceless_matrix():
    # after a warm-up call has built the stacks, a coupling value costs
    # per-sector temporaries only: no a * M_Hr + M_Dr, no symmetric part of
    # M_Dr for the Bohr blocks
    m = tfim(4, 0.9, 1.1)
    an = Analysis(m.lind, m.state)
    alphas = [1.0, 10.0, 100.0, 1000.0]
    gap_curve(an, alphas)
    tracemalloc.start()
    try:
        gap_curve(an, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < an.M_Dr.nbytes


@pytest.mark.parametrize("name", COMMUTING)
def test_bohr_blocks_match_the_complex_eigensolve(name):
    L, st = _commuting_family(name)
    an = Analysis(L, st)
    assert an.energies is not None
    _assert_matches_reference(an, L, st)


@pytest.mark.parametrize("name", COMMUTING)
def test_joint_frame_diagonalizes_sigma_and_h(name):
    L, st = _commuting_family(name)
    an = Analysis(L, st)
    W = an.state.eigenvectors
    assert an.state.matrix is st.matrix
    assert np.array_equal(an.state.eigenvalues, st.eigenvalues)
    assert np.abs(W.conj().T @ W - np.eye(st.dim)).max() < 1e-13
    assert np.abs(W.conj().T @ st.matrix @ W - np.diag(st.eigenvalues)).max() < 1e-14
    assert np.abs(W.conj().T @ an.H @ W - np.diag(an.energies)).max() \
        < 1e-12 * max(np.linalg.norm(an.H, 2), 1.0)


def test_degenerate_sigma_mixed_by_h_gets_a_joint_basis():
    L, st = _commuting_family("graph+H-degenerate")
    H = L.hamiltonian
    U = st.eigenvectors
    assert np.abs(U.conj().T @ H @ U - np.diag(np.diag(U.conj().T @ H @ U))).max() > 0.1
    an = Analysis(L, st)
    W = an.state.eigenvectors
    assert not np.allclose(np.abs(W), np.abs(U))
    assert np.abs(W.conj().T @ H @ W - np.diag(an.energies)).max() < 1e-13
    assert np.abs(W.conj().T @ st.matrix @ W - np.diag(st.eigenvalues)).max() < 1e-15
    assert sorted(an.energies) == pytest.approx(sorted(np.linalg.eigvalsh(H)), abs=1e-13)


@pytest.mark.parametrize("name", ["haar_gibbs", "graph+H-nonuniform"])
def test_diagonal_h_keeps_the_frame_of_sigma(name):
    L, st = _commuting_family(name)
    an = Analysis(L, st)
    assert an.state is st
    assert np.array_equal(an.M_D + an.M_H, generator_matrix(L, KmsFrame(st)))


SECTORED = COMMUTING + ["driven-qubit"]


def _sectored(name):
    if name == "driven-qubit":
        # the damped qubit driven by H = X, at its steady state: [H, sigma] != 0
        st = QuantumState(np.array([[5.0, 2.0j], [-2.0j, 4.0]]) / 9.0)
        return build_gksl(PAULI_X, [(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))]), st
    return _commuting_family(name)


def test_driven_qubit_keeps_its_sigma_and_has_no_limit():
    L, st = _sectored("driven-qubit")
    an = Analysis(L, st)
    assert an.state is st and an.energies is None
    with pytest.raises(ValueError, match="commute"):
        bohr_decompose(an)
    curve = gap_curve(an, [1.0, 10.0])
    assert curve.limit is None and curve.final_deviation is None


@pytest.mark.parametrize("name", SECTORED)
def test_sector_solves_match_the_dense_solves(name):
    L, st = _sectored(name)
    an = Analysis(L, st)
    Mr = an.M_Dr + an.M_Hr
    lam = float((-np.linalg.eigvals(Mr).real).min())
    close = dict(rel=1e-12, abs=1e-13)
    assert spectral_gap(an) == pytest.approx(lam, **close)
    assert an.singular_gap == pytest.approx(np.linalg.svd(Mr, compute_uv=False)[-1],
                                            **close)
    alphas = [0.5, 3.0]
    curve = gap_curve(an, alphas)
    for a, g, sg in zip(alphas, curve.gaps, curve.singular_gaps):
        Ma = a * an.M_Hr + an.M_Dr
        assert g == pytest.approx((-np.linalg.eigvals(Ma).real).min(), **close)
        assert sg == pytest.approx(np.linalg.svd(Ma, compute_uv=False)[-1], **close)


@pytest.mark.parametrize("name", SECTORED)
def test_sectors_split_with_a_wide_threshold_margin(name):
    L, st = _sectored(name)
    an = Analysis(L, st)
    n = an.M_Dr.shape[0]
    covered = np.sort(np.concatenate([S.ravel() for S in an.sectors]))
    assert np.array_equal(covered, np.arange(n))
    label = np.empty(n, dtype=int)
    for k, S in enumerate(S for group in an.sectors for S in group):
        label[S] = k
    outside = label[:, None] != label[None, :]
    for M in (an.M_Dr, an.M_Hr):
        scale = np.abs(M).max()
        if scale == 0:
            continue
        rel = np.abs(M) / scale
        dropped = rel[rel <= SECTOR_TOL]
        kept = rel[rel > SECTOR_TOL]
        assert dropped.max(initial=0.0) <= 1e-13
        assert kept.min() >= 1e-10
        assert rel[outside].max(initial=0.0) <= 1e-13


def test_sectors_follow_one_way_couplings():
    # a coupling present in one direction only still joins two coordinates:
    # the matrix is block-triangular there, and the split must not cut it
    an = Analysis(build_gksl(np.zeros((2, 2)), [(1.0, PAULI_Z)]), MIXED2)
    an.__dict__["M_Dr"] = np.array([[-1.0, 0.0, 0.0],
                                    [0.0, -2.0, 5.0],
                                    [0.0, 0.0, -3.0]])
    assert [S.tolist() for S in an.sectors] == [[[0]], [[1, 2]]]
    assert an.singular_gap == pytest.approx(
        np.linalg.svd(an.M_Dr + an.M_Hr, compute_uv=False)[-1], rel=1e-14)


def test_tfim4_splits_into_small_sectors():
    m = tfim(4, 0.9, 1.1)
    sizes = [S.shape[1] for S in Analysis(m.lind, m.state).sectors for _ in S]
    assert len(sizes) >= 4
    assert max(sizes) <= 69
    assert sum(sizes) == 255
