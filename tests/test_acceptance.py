"""Acceptance gate: one test per release criterion, one summary line each.

Every tolerance below is part of the release contract; loosening one here
without a ledger entry is not allowed.
"""

import functools
import math

import numpy as np
import pytest
from exact_reference import stp_worst_ratio

from lindgap import (
    GraphSpec,
    PAULI_X,
    PAULI_Z,
    QuantumState,
    StructuralConstants,
    alpha_gamma_scaling,
    birth_death_spectrum,
    build_gksl,
    c_constants,
    canonical_path_bound,
    certify,
    certify_coercive,
    cycle_graph,
    dephasing_jumps,
    dephasing_walk,
    dms_compare,
    graph_lindblad,
    haar_avg_gibbs,
    large_alpha_limit,
    matrix_unit,
    op_on_qubit,
    rate_from_constants,
    semigroup_norm_curve,
    singular_relaxation_check,
    spectral_gap,
    stp_verify,
    structural_constants,
    tfim,
    time_avg_check,
)

RESULTS: list[str] = []


def record(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    RESULTS.append(f"criterion {number:2d} {status}  {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def rand_hermitian(rng, N):
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (B + B.conj().T) / 2


# ---------------------------------------------------------------------------
# shared model suite


QUBIT_H = PAULI_X
QUBIT_LD = build_gksl(np.zeros((2, 2)), [(2.0, PAULI_Z)])


@functools.lru_cache(maxsize=None)
def suite_models():
    """(name, H, LD jumps carrier, full generator, state) for every suite member."""
    entries = []
    entries.append(("qubit", QUBIT_H, QUBIT_LD,
                    build_gksl(QUBIT_H, QUBIT_LD.jumps),
                    QuantumState.maximally_mixed(2)))
    walk = dephasing_walk(2, 1.0, cycle_graph(4))
    entries.append(("walk", walk.lind.hamiltonian, walk.lind.dissipator(),
                    walk.lind, walk.state))
    ising = tfim(2, 1.0, 1.0)
    entries.append(("tfim", ising.lind.hamiltonian, ising.lind.dissipator(),
                    ising.lind, ising.state))
    spec = GraphSpec(4, [(0, 2), (1, 3)])
    gstate = QuantumState(np.diag([0.3, 0.3, 0.2, 0.2]))
    gmodel = graph_lindblad(spec, gstate)
    gH = (matrix_unit(4, 0, 1) + matrix_unit(4, 1, 0)
          + matrix_unit(4, 2, 3) + matrix_unit(4, 3, 2))
    entries.append(("graph", gH, gmodel.lind,
                    build_gksl(gH, gmodel.lind.jumps), gstate))
    return entries


@functools.lru_cache(maxsize=None)
def haar_suite():
    return [("haar2", haar_avg_gibbs([0.0, 1.0], 1.0)),
            ("haar3", haar_avg_gibbs([0.0, 1.0, 2.5], 1.0))]


@functools.lru_cache(maxsize=None)
def suite_certificates():
    """Certificates for every suite model, hypocoercive and coercive alike."""
    certs = []
    for name, H, LD, full, state in suite_models():
        cert = certify(H, LD, state)
        certs.append((name, cert.nu, cert.T, cert.prefactor, full, state))
    for name, hm in haar_suite():
        cert = certify_coercive(hm.lind, hm.state)
        certs.append((name, cert.nu, cert.T, cert.prefactor, hm.lind, hm.state))
    return certs


def random_graph_model(rng):
    while True:
        n = int(rng.integers(3, 7))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        try:
            spec = GraphSpec(n, edges,
                             weights={e: float(rng.uniform(0.3, 2.0))
                                      for e in edges})
        except ValueError:
            continue
        if len(spec.components) != 1:
            continue
        mu = rng.uniform(0.2, 1.0, size=n)
        state = QuantumState(np.diag(mu / mu.sum()))
        return graph_lindblad(spec, state)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_large_coupling_limit():
    failures = []
    mixed = QuantumState.maximally_mixed(2)
    limit = large_alpha_limit(QUBIT_H, QUBIT_LD, mixed)
    if abs(limit - 2.0) > 1e-9:
        failures.append(f"qubit limit {limit} != 2")
    gap1000 = spectral_gap(build_gksl(QUBIT_H, QUBIT_LD.jumps, alpha=1000.0),
                           mixed).spectral_gap
    if abs(gap1000 - 2.0) >= 0.05:
        failures.append(f"qubit gap(1000) {gap1000} deviates from 2 by >= 0.05")

    rng = np.random.default_rng(101)
    st4 = QuantumState.maximally_mixed(4)
    jumps = dephasing_jumps(2, 1.0)
    LD = build_gksl(np.zeros((4, 4)), jumps)
    for k in range(3):
        H = rand_hermitian(rng, 4)
        lim = large_alpha_limit(H, LD, st4)
        gap = spectral_gap(build_gksl(H, jumps, alpha=1000.0),
                           st4).spectral_gap
        if abs(gap - lim) >= 0.05 * lim:
            failures.append(f"2-qubit model {k}: gap(1e3) {gap} vs limit {lim}")
    record(1, "strong-coupling gap limit matches the blockwise minimum",
           failures)


def test_criterion_02_coherent_acceleration():
    failures = []
    rng = np.random.default_rng(103)
    for k in range(10):
        m = random_graph_model(rng)
        base = spectral_gap(m.lind, m.state).spectral_gap
        H = np.diag(rng.uniform(-1.0, 1.0, size=m.state.dim)).astype(complex)
        for alpha in (0.1, 1.0, 10.0):
            gap = spectral_gap(build_gksl(H, m.lind.jumps, alpha=alpha),
                               m.state).spectral_gap
            if gap < base - 1e-9:
                failures.append(f"model {k} alpha={alpha}: "
                                f"gap {gap} < dissipative gap {base}")
    record(2, "commuting Hamiltonian never slows a detailed-balanced model",
           failures)


def test_criterion_03_closed_form_constants():
    failures = []
    for n in (1, 2, 3):
        for gamma in (0.7, 1.3):
            m = dephasing_walk(n, gamma, cycle_graph(2**n))
            sc = structural_constants(m.lind.hamiltonian, m.lind.dissipator(),
                                      m.state)
            if abs(sc.lambda_D - 2 * gamma) > 1e-9:
                failures.append(f"dephasing n={n}: lambda_D {sc.lambda_D}")
            if abs(sc.norm_LD - 2 * gamma * n) > 1e-9:
                failures.append(f"dephasing n={n}: norm {sc.norm_LD}")
    for n in (2, 3):
        for h in (0.5, 1.0, 2.0):
            m = tfim(n, h, 1.0)
            sc = structural_constants(m.lind.hamiltonian, m.lind.dissipator(),
                                      m.state)
            if abs(sc.s_H - 2 * h) > 1e-9:
                failures.append(f"tfim n={n} h={h}: s_H {sc.s_H}")
    for sizes in ([2], [3], [4], [2, 3, 4]):
        for beta in (0.0, 1.0, 2.0):
            bd = birth_death_spectrum(sizes, beta)
            mu = bd.model.mu
            D = np.sqrt(mu)
            S = (D[:, None] / D[None, :]) * bd.model.L_cl
            brute = np.sort(np.linalg.eigvalsh((S + S.T) / 2.0))
            closed = np.sort([x for b in bd.block_eigenvalues for x in b])
            if np.abs(brute - closed).max() > 1e-10:
                failures.append(f"birth-death {sizes} beta={beta}: spectrum")
            if abs(bd.model.lambda_D - bd.lambda_D_closed) > 1e-10 \
                    or abs(bd.model.norm_LD - bd.norm_LD_closed) > 1e-10:
                failures.append(f"birth-death {sizes} beta={beta}: constants")
    record(3, "closed-form constants match the generic machinery", failures)


def test_criterion_04_certificates_hold_dynamically():
    failures = []
    rng = np.random.default_rng(107)
    for name, nu, T, C_T, full, state in suite_certificates():
        lam = spectral_gap(full, state).spectral_gap
        if nu > lam + 1e-9:
            failures.append(f"{name}: certified nu {nu} exceeds gap {lam}")
        X0 = rand_hermitian(rng, state.dim)
        ts = np.linspace(0.0, min(4.0 / nu, 2000.0), 20)
        rep = time_avg_check(full, state, X0, T, nu, ts, C_T, slack=1e-6)
        if not rep.passed:
            failures.append(f"{name}: dynamics check failed "
                            f"(window {rep.worst_window_ratio}, "
                            f"pointwise {rep.worst_pointwise_ratio})")
    record(4, "every emitted certificate passes the exact-evolution check",
           failures)


def test_criterion_05_empirical_rates():
    failures = []
    for name, _, _, full, state in suite_models():
        lam = spectral_gap(full, state).spectral_gap
        horizon = 50.0 / lam
        ts = np.linspace(horizon / 40.0, horizon, 40)
        rate = semigroup_norm_curve(full, state, ts).empirical_rate
        if abs(rate - lam) > 0.05 * lam:
            failures.append(f"{name}: fitted rate {rate} vs gap {lam}")
    # self-adjoint members decay as a pure exponential
    chain = graph_lindblad(GraphSpec(3, [(0, 1), (1, 2)]),
                           QuantumState(np.diag([0.5, 0.3, 0.2])))
    sa_members = [("chain", chain.lind, chain.state)]
    sa_members += [(name, hm.lind, hm.state) for name, hm in haar_suite()]
    for name, lind, state in sa_members:
        lam = spectral_gap(lind, state).spectral_gap
        ts = np.linspace(0.2 / lam, 8.0 / lam, 12)
        nc = semigroup_norm_curve(lind, state, ts)
        dev = np.abs(nc.norms / np.exp(-lam * ts) - 1.0).max()
        if dev > 1e-8:
            failures.append(f"{name}: exponential deviation {dev}")
    record(5, "fitted decay rates match spectral gaps", failures)


def _stp_exactness(name, H, LD, state, rep) -> list[str]:
    exact = stp_worst_ratio(H, LD, state, rep)
    if abs(rep.worst_ratio - exact) > 1e-10 * exact:
        return [f"{name} beta={rep.beta}: worst ratio {rep.worst_ratio} "
                f"vs exact moments {exact}"]
    return []


def test_criterion_06_space_time_variance():
    failures = []
    for name, H, LD, full, state in suite_models():
        sc = structural_constants(H, LD, state)
        T = 3.0 / sc.s_H
        for beta in (0.1, 1.0):
            rep = stp_verify(H, LD, state, T, beta, n_samples=100,
                             poly_degree=3, seed=109, slack=1e-6)
            if not rep.passed:
                failures.append(f"{name} beta={beta}: "
                                f"worst ratio {rep.worst_ratio}")
            failures += _stp_exactness(name, H, LD, state, rep)
    name, hm = haar_suite()[1]
    T = certify_coercive(hm.lind, hm.state).T
    for beta in (0.1, 1.0):
        rep = stp_verify(np.zeros((3, 3)), hm.lind, hm.state, T, beta,
                         n_samples=100, poly_degree=3, seed=109, slack=1e-6)
        if not rep.passed or not rep.trivial_kernel:
            failures.append(f"{name} beta={beta}: worst ratio {rep.worst_ratio}")
        failures += _stp_exactness(name, np.zeros((3, 3)), hm.lind, hm.state,
                                   rep)
    record(6, "space-time variance inequality holds on random paths", failures)


def test_criterion_07_canonical_path_bounds():
    failures = []
    rng = np.random.default_rng(113)
    produced = 0
    while produced < 10:
        n = int(rng.integers(3, 9))
        A = (rng.random((n, n)) < 0.45).astype(float)
        A = np.triu(A, 1)
        A = A + A.T
        Hhat = A - np.diag(A.sum(axis=1))
        try:
            pb = canonical_path_bound(Hhat)
        except ValueError:
            continue
        produced += 1
        exact = math.sqrt(2.0 * np.linalg.eigvalsh(-Hhat)[1])
        if exact - pb.bound < -1e-9:
            failures.append(f"graph {produced}: bound {pb.bound} > s_H {exact}")
    for beta in (0.5, 1.5):
        bd = birth_death_spectrum([5], beta)
        mu = bd.model.mu
        cond = np.zeros((5, 5))
        for (r, s) in bd.model.spec.edges:
            cond[r, s] = cond[s, r] = math.sqrt(mu[r] * mu[s])
        Hhat = cond / mu[:, None]
        Hhat -= np.diag(Hhat.sum(axis=1))
        pb = canonical_path_bound(Hhat, mu_hat=mu)
        D = np.sqrt(mu)
        sym = (D[:, None] / D[None, :]) * Hhat
        exact = math.sqrt(2.0 * np.linalg.eigvalsh(-(sym + sym.T) / 2.0)[1])
        if exact - pb.bound < -1e-9:
            failures.append(f"weighted beta={beta}: bound {pb.bound} > {exact}")
    record(7, "congestion bounds never exceed the exact coupling strength",
           failures)


def test_criterion_08_coupling_scaling():
    failures = []
    sc = structural_constants(QUBIT_H, QUBIT_LD, QuantumState.maximally_mixed(2))
    rep = alpha_gamma_scaling(sc)
    bounds = np.array(rep.alpha_bounds)
    if np.any(np.diff(bounds) < -1e-15):
        failures.append("alpha bounds are not monotone")
    C1, _ = c_constants(sc, 3.0 / sc.s_H)
    limit = sc.lambda_D / C1**2
    if abs(rep.alphas[-1] - 1e4) > 1e-6:
        failures.append(f"grid does not end at 1e4 (got {rep.alphas[-1]})")
    if abs(bounds[-1] - limit) > 0.01 * limit:
        failures.append(f"bound at alpha=1e4 is {bounds[-1]}, limit {limit}")
    i = int(np.argmax(rep.gamma_bounds))
    lo = rep.gammas[max(i - 1, 0)]
    hi = rep.gammas[min(i + 1, len(rep.gammas) - 1)]
    if not (lo <= rep.gamma_star <= hi):
        failures.append(f"gamma* {rep.gamma_star} outside the max cell "
                        f"[{lo}, {hi}]")
    record(8, "rate bound scales correctly in the coupling strength", failures)


def test_criterion_09_dms_comparison():
    failures = []
    sc = StructuralConstants(lambda_D=0.05, s_H=0.05, norm_LD=1.0,
                             norm_LH_plus=1.0)
    nu = rate_from_constants(sc, 3.0 / sc.s_H)
    rep = dms_compare(sc)
    ratio = nu / rep.nu_dms
    if not (0.1 <= ratio <= 10.0):
        failures.append(f"rate ratio {ratio} outside [0.1, 10]")
    record(9, "rate stays within a decade of the reference construction",
           failures)


def test_criterion_10_singular_value_consistency():
    failures = []
    for name, nu, T, _, full, state in suite_certificates():
        ok, lhs, s = singular_relaxation_check(nu, T, full, state)
        if not ok:
            failures.append(f"{name}: 1/nu + T = {lhs} < 1/s = {1.0 / s}")
    record(10, "certified timescales respect the singular-value floor",
           failures)
