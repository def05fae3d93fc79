"""Per-sector solves against the whole-matrix references.

structure_report, the kernel split with the constants read from it, and the
curves of validate all solve the generator sector by sector.  Each is
checked here against one whole-space solve of the same matrix: on models
with many sectors (tfim, haar_gibbs), on two with a Hamiltonian that does
not commute with the state (a random GKSL generator at its non-uniform
stationary state, one sector, and the driven qubit), and at a state whose
invariance residual ties the identity into a sector.
"""

import numpy as np
import pytest
from exact_reference import apply_adjoint, whole_curves, whole_split, whole_structure

from lindgap import (
    Analysis,
    QuantumState,
    bohr_decompose,
    build_gksl,
    check_assumption,
    haar_avg_gibbs,
    hamiltonian_superop,
    semigroup_norm_curve,
    spectral_gap,
    structure_report,
    time_avg_check,
    tfim,
)
from lindgap.evolve import _random_mean_zero
from lindgap.lindblad import SECTOR_TOL, sector_blocks, sector_partition
from lindgap.models import PAULI_X, PAULI_Z, op_on_qubit


def _random_gksl_at_steady_state():
    # generic jumps and a Hamiltonian that does not commute with the
    # stationary state: one sector
    rng = np.random.default_rng(43)
    N = 3
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    jumps = [(float(rng.uniform(0.5, 2.0)),
              rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
             for _ in range(2)]
    L = build_gksl((A + A.conj().T) / 2, jumps, alpha=0.7)
    units = np.eye(N * N).reshape(N * N, N, N)
    schrodinger = np.stack([apply_adjoint(L, E).ravel() for E in units], axis=1)
    rho = np.linalg.svd(schrodinger)[2][-1].conj().reshape(N, N)
    rho = (rho + rho.conj().T) / 2
    return L, QuantumState(rho / np.trace(rho).real)


def _model(name):
    if name.startswith("tfim"):
        m = tfim(int(name[-1]), 0.9, 1.1)
        return m.lind, m.state
    if name == "haar_gibbs":
        m = haar_avg_gibbs([0.0, 0.4, 1.1, 1.7], 1.0)
        return m.lind, m.state
    if name == "random-gksl":
        return _random_gksl_at_steady_state()
    if name == "driven-qubit":
        st = QuantumState(np.array([[5.0, 2.0j], [-2.0j, 4.0]]) / 9.0)
        return build_gksl(PAULI_X, [(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))]), st
    if name == "perturbed-sigma":
        # tfim n=2 at a state 1e-9 off invariance: the identity's row of M
        # is above SECTOR_TOL, so the identity joins the sectors it touches
        m = tfim(2, 0.9, 1.1)
        return m.lind, QuantumState(np.diag([1.0 + 1e-9, 1.0 - 1e-9, 1.0, 1.0]) / 4.0)
    raise KeyError(name)


KMS = ["tfim2", "tfim3", "tfim4", "tfim5", "haar_gibbs"]
NON_COMMUTING = ["random-gksl", "driven-qubit"]


def _close(got, want, rel=1e-12):
    """Relative agreement, or agreement to 1e-15 for rounding-level values."""
    if abs(want) < 1e-13:
        return abs(got - want) <= 1e-15
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("name", KMS + NON_COMMUTING + ["perturbed-sigma"])
def test_structure_matches_the_whole_solves(name):
    L, st = _model(name)
    an = Analysis(L, st)
    rep = structure_report(an)
    cdim, kms, kdim = whole_structure(an)
    assert rep.commutant_dim == cdim
    assert rep.kernel_dim_LD == kdim
    assert _close(rep.kms_defect, kms)
    if name == "random-gksl":
        assert len(an.sectors) == 1 and an.sectors[0].shape[0] == 1
    elif name != "perturbed-sigma":
        assert sum(len(S) for S in an.sectors) > 1


def test_identity_joins_a_sector_off_invariance():
    an = Analysis(*_model("perturbed-sigma"))
    M = an.M_D + an.M_H
    row = np.abs(M[0, 1:]).max() / np.abs(M).max()
    assert 1e2 * SECTOR_TOL < row < 1e-6
    sizes = {S.shape[1] for S in sector_partition([an.M_D, an.M_H]) if 0 in S}
    assert len(sizes) == 1 and sizes.pop() > 1
    # with the exact state the identity is a sector of its own
    m = tfim(2, 0.9, 1.1)
    exact = Analysis(m.lind, m.state)
    assert [[0]] in [S.tolist() for S in sector_partition([exact.M_D, exact.M_H])]


@pytest.mark.parametrize("name", ["tfim3", "haar_gibbs6"])
def test_symmetric_part_per_block_is_the_whole_gather(name):
    # the split and the Bohr blocks take the symmetric part of M_D per block,
    # entry by entry the float operations of gathering (M_D + M_D^T)/2
    m = (tfim(3, 0.9, 1.1) if name == "tfim3"
         else haar_avg_gibbs([0.0, 0.3, 0.7, 1.2, 1.6, 2.0], 1.0))
    an = Analysis(m.lind, m.state)
    sym = (an.M_D + an.M_D.T) / 2.0
    # one eigh per stack of the whole symmetric part's blocks, keyed by sector
    ref = {}
    for S, B in zip(an.sectors, sector_blocks(-sym[1:, 1:], an.sectors)):
        w, V = np.linalg.eigh(B)
        ref.update((s[0], (ws, Vs)) for s, ws, Vs in zip(S, w, V))
    split = an.split
    for S, w, V, B in zip(split.sectors, split.values, split.vectors,
                          split.hamiltonian):
        assert np.array_equal(w, [ref[s[0]][0] for s in S])
        assert np.array_equal(V, [ref[s[0]][1] for s in S])
        assert np.array_equal(B, sector_blocks(an.M_Hr, [S])[0])
    # an analysis whose M_D is the whole symmetric part gathers it unchanged
    whole = Analysis(m.lind, m.state)
    whole.__dict__["M_D"] = sym
    assert np.array_equal([b.lambda_nu for b in bohr_decompose(an)],
                          [b.lambda_nu for b in bohr_decompose(whole)])


@pytest.mark.parametrize("name", KMS)
def test_kernel_split_matches_the_whole_eigh(name):
    an = Analysis(*_model(name))
    split = an.split
    rates, s_H, norm_plus = whole_split(an)
    scale = np.abs(rates).max()
    assert np.abs(split.rates - rates).max() <= 1e-12 * scale
    if s_H is None:  # haar_gibbs is coercive
        assert split.dim0 == 0
        return
    sc = an.constants
    assert sc.s_H == pytest.approx(s_H, rel=1e-12)
    assert sc.norm_LH_plus == pytest.approx(norm_plus, rel=1e-12)
    assert sc.lambda_D == pytest.approx(rates[split.dim0], rel=1e-12)
    assert sc.norm_LD == pytest.approx(scale, rel=1e-12)


def test_a_sector_with_more_kernel_than_complement_gives_s_H_zero():
    # the jumps X0 and Z1 keep X0, Z1 and X0 Z1, and H = X0 commutes with
    # all three: a sector that holds more kernel than complement contributes
    # s_H = 0 exactly, where the whole solve finds a rounding-level value
    st = QuantumState.maximally_mixed(4)
    X0 = op_on_qubit(PAULI_X, 0, 2)
    an = Analysis(build_gksl(X0, [(1.0, X0), (1.0, op_on_qubit(PAULI_Z, 1, 2))]), st)
    split = an.split
    ks = [(k, S.shape[1] - k) for S, k in zip(split.sectors, split.dims)]
    assert any(k > p for k, p in ks)
    assert split.dim0 <= split.dim_plus
    assert check_assumption(an)[0]
    _, s_H, _ = whole_split(an)
    assert s_H < 1e-14
    with pytest.raises(ValueError, match=r"s_H = 0\.000e\+00"):
        an.constants


def test_split_groups_sectors_by_kernel_dimension():
    # the X0/Z1 model above: seven singleton sectors, three of them kernel
    st = QuantumState.maximally_mixed(4)
    X0 = op_on_qubit(PAULI_X, 0, 2)
    an = Analysis(build_gksl(X0, [(1.0, X0), (1.0, op_on_qubit(PAULI_Z, 1, 2))]), st)
    split = an.split
    singles = [(k, S) for S, k in zip(split.sectors, split.dims) if S.shape[1] == 1]
    assert sorted(k for k, S in singles for _ in S) == [0, 0, 0, 0, 1, 1, 1]
    assert len(split.dims) == len({(S.shape[1], k) for S, k in zip(split.sectors, split.dims)})
    for S, w, V, k, B in zip(split.sectors, split.values, split.vectors, split.dims,
                             split.hamiltonian):
        assert w.shape == S.shape and V.shape == B.shape == S.shape + S.shape[1:]
        assert np.all(np.abs(w[:, :k]) < split.cutoff)
        assert np.all(split.cutoff <= np.abs(w[:, k:]))
        assert np.array_equal(B, sector_blocks(an.M_Hr, [S])[0])
    assert sum(len(S) * k for S, k in zip(split.sectors, split.dims)) == split.dim0
    assert sorted(np.concatenate([S.ravel() for S in split.sectors]).tolist()) == \
        list(range(len(split.rates)))


@pytest.mark.parametrize("name", ["tfim2", "tfim3", "tfim4", "haar_gibbs"] + NON_COMMUTING)
def test_validate_curves_match_the_whole_exponentials(name):
    L, st = _model(name)
    an = Analysis(L, st)
    X0 = _random_mean_zero(np.random.default_rng(7), an.state)
    gap = spectral_gap(an)
    T = 0.5 / gap
    rep = time_avg_check(an, X0, T, 1e-3, 1.0 / gap, 7, 1.0)
    norms = semigroup_norm_curve(an, 1.0 / gap, 6).norms
    points, windows, ref_norms = whole_curves(an, X0, T, rep.times)
    for got, want in ((rep.pointwise_values, points), (rep.window_values, windows),
                      (norms, ref_norms[1:])):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1e-2 * want[0]))


@pytest.mark.parametrize("name", ["tfim3", "tfim4", "haar_gibbs"])
def test_hamiltonian_matrix_by_formula(name):
    # in the joint frame M_H is a rotation on each pair, with no assembly
    an = Analysis(*_model(name))
    assert an.energies is not None
    ref = hamiltonian_superop(an.H, an.frame)
    assert np.abs(an.M_H - ref).max() <= 1e-14 * max(np.abs(ref).max(), 1.0)
