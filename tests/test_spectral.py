"""Spectral gaps, Bohr blocks, strong-coupling limits, hypocoercivity index."""

import numpy as np
import pytest

from lindgap import (
    Analysis,
    GraphSpec,
    KmsFrame,
    QuantumState,
    bohr_decompose,
    build_gksl,
    gap_curve,
    graph_lindblad,
    hypoco_index,
    lambda_nu_table,
    large_alpha_limit,
    singular_relaxation_check,
    spectral_gap,
    structure_report,
)
from lindgap.lindblad import generator_matrix
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
    rep = spectral_gap(Analysis(pauli_dissipator(0, 0, 1.0), MIXED2))
    assert rep.spectral_gap == pytest.approx(0.0, abs=1e-12)


def test_gap_qubit_model():
    rep = spectral_gap(Analysis(qubit_model(), MIXED2))
    assert rep.spectral_gap == pytest.approx(2.0, abs=1e-10)
    assert rep.singular_gap == pytest.approx(2 * (np.sqrt(2) - 1), abs=1e-10)
    # coherent rotation kills the symmetrized gap but not the true one
    assert rep.symmetrized_gap == pytest.approx(0.0, abs=1e-10)
    assert rep.symmetrized_gap <= rep.spectral_gap + 1e-12
    for ev in rep.attaining:
        assert ev.real == pytest.approx(-2.0, abs=1e-10)


def test_gap_restricted_spectrum_qubit():
    M = generator_matrix(qubit_model(), KmsFrame(MIXED2))[1:, 1:]
    w = np.sort(np.linalg.eigvals(M).real)
    assert np.abs(w - np.array([-4.0, -2.0, -2.0])).max() < 1e-10


def test_gap_equals_symmetrized_for_db_generator():
    spec = GraphSpec(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    st = QuantumState(np.diag([0.4, 0.3, 0.2, 0.1]))
    m = graph_lindblad(spec, st)
    rep = spectral_gap(Analysis(m.lind, st))
    assert rep.spectral_gap > 0
    assert rep.spectral_gap == pytest.approx(rep.symmetrized_gap, rel=1e-10)


def test_gap_relax_lower():
    rep = spectral_gap(Analysis(qubit_model(), MIXED2))
    assert rep.relax_lower(1e-3) == pytest.approx(np.log(1e3) / 2.0)
    with pytest.raises(ValueError):
        rep.relax_lower(2.0)


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
    rep = spectral_gap(Analysis(qubit_model(), MIXED2))
    M = generator_matrix(qubit_model(), KmsFrame(MIXED2))[1:, 1:]
    for ev in np.linalg.eigvals(M):
        assert rep.singular_gap <= abs(ev) + 1e-9


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


def test_bohr_qubit_x_zero_block_is_span_x():
    an = Analysis(build_gksl(PAULI_X, []), MIXED2)
    blocks = bohr_decompose(an)
    zero = [b for b in blocks if b.frequency == 0.0]
    assert len(zero) == 1 and zero[0].dim == 1
    cx = an.frame.coords(PAULI_X)[1:]
    cx = cx / np.linalg.norm(cx)
    overlap = np.abs(zero[0].basis.conj().T @ cx)[0]
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_bohr_blocks_partition_and_commute():
    rng = np.random.default_rng(37)
    st = QuantumState(np.diag([0.4, 0.3, 0.2, 0.1]))
    H = np.diag(rng.standard_normal(4))
    an = Analysis(build_gksl(H, []), st)
    fr = an.frame
    blocks = bohr_decompose(an)
    assert sum(b.dim for b in blocks) == 15
    for b in blocks:
        for k in range(b.dim):
            X = fr.from_coords(np.concatenate([[0.0], b.basis[:, k]]))
            resid = H @ X - X @ H - b.frequency * X
            assert np.abs(resid).max() < 1e-8
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            ov = blocks[i].basis.conj().T @ blocks[j].basis
            assert np.abs(ov).max() < 1e-10


def test_bohr_rejects_noncommuting_hamiltonian():
    st = QuantumState(np.diag([0.75, 0.25]))
    with pytest.raises(ValueError, match="commute"):
        bohr_decompose(Analysis(build_gksl(PAULI_X, []), st))


# ---------------------------------------------------------------------------
# lambda_nu_table and the strong-coupling limit


def test_lambda_table_qubit():
    an = split_form(PAULI_X, pauli_dissipator(0, 0, 2.0), MIXED2)
    blocks = lambda_nu_table(an, bohr_decompose(an))
    table = {round(b.frequency, 6): b.lambda_nu for b in blocks}
    assert table[0.0] == pytest.approx(4.0, abs=1e-10)
    assert table[2.0] == pytest.approx(2.0, abs=1e-10)
    assert table[-2.0] == pytest.approx(2.0, abs=1e-10)


def test_lambda_table_single_block_is_gap():
    spec = GraphSpec(3, [(0, 1), (1, 2)])
    st = QuantumState(np.diag([0.5, 0.3, 0.2]))
    m = graph_lindblad(spec, st)
    an = Analysis(m.lind, st)
    g = spectral_gap(an).spectral_gap
    blocks = lambda_nu_table(an, bohr_decompose(an))
    assert len(blocks) == 1
    assert blocks[0].lambda_nu == pytest.approx(g, rel=1e-10)


def test_lambda_positive_iff_primitive():
    LD = pauli_dissipator(0, 0, 1.0)
    an = split_form(PAULI_X, LD, MIXED2)
    primitive_blocks = lambda_nu_table(an, bohr_decompose(an))
    assert min(b.lambda_nu for b in primitive_blocks) > 0
    assert structure_report(an).primitive
    an = split_form(PAULI_Z, LD, MIXED2)
    degenerate_blocks = lambda_nu_table(an, bohr_decompose(an))
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
        gap_d = spectral_gap(Analysis(m.lind, st)).spectral_gap
        H = np.diag(rng.standard_normal(n))
        curve = gap_curve(split_form(H, m.lind, st), [0.1, 1.0, 10.0])
        for g in curve.gaps:
            assert g >= gap_d - 1e-9


def test_gap_constant_when_h_acts_inside_gap_space():
    # X and Y span the gap eigenspace of the dissipator; H = Z rotates
    # within it, so coherent driving cannot accelerate
    LD = pauli_dissipator(1.0, 1.0, 0.25)
    gap_d = spectral_gap(Analysis(LD, MIXED2)).spectral_gap
    assert gap_d == pytest.approx(2.5, abs=1e-10)
    curve = gap_curve(split_form(PAULI_Z, LD, MIXED2), [0.5, 1.0, 10.0, 100.0])
    for g in curve.gaps:
        assert g == pytest.approx(gap_d, abs=1e-8)
    assert curve.limit == pytest.approx(gap_d, abs=1e-10)


# ---------------------------------------------------------------------------
# hypoco_index


def test_index_zero_for_coercive():
    assert hypoco_index(split_form(np.zeros((2, 2)), pauli_dissipator(1, 1, 1),
                                   MIXED2)) == 0


def test_index_one_for_qubit_model():
    assert hypoco_index(split_form(PAULI_X, pauli_dissipator(0, 0, 2.0), MIXED2)) == 1


def test_index_none_for_non_primitive():
    assert hypoco_index(split_form(PAULI_Z, pauli_dissipator(0, 0, 1.0), MIXED2),
                        J_max=4) is None


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
    lam = spectral_gap(an).spectral_gap
    ok, lhs, s = singular_relaxation_check(an, lam, 0.0)
    assert ok and lhs == pytest.approx(1 / lam)
    assert s <= lam + 1e-9


def test_singular_check_tiny_rate_trivially_true():
    ok, _, _ = singular_relaxation_check(Analysis(qubit_model(), MIXED2), 1e-9, 0.1)
    assert ok
