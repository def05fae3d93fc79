"""Property tests for the pure-float certificate algebra and spec handling."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lindgap import (
    GraphSpec,
    StructuralConstants,
    c_constants,
    rate_from_constants,
    simplified_rate,
)

pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                allow_infinity=False)


def make_sc(lam, s, nLD, nLH):
    # the dissipation norm can never sit below its gap
    return StructuralConstants(lambda_D=lam, s_H=s, norm_LD=max(nLD, lam),
                               norm_LH_plus=nLH)


@settings(deadline=None, max_examples=200)
@given(pos, pos, pos, pos, pos)
def test_constants_positive_and_rate_below_gap(lam, s, nLD, nLH, T):
    sc = make_sc(lam, s, nLD, nLH)
    C1, C2 = c_constants(sc, T)
    assert C1 > math.sqrt(2) + 14
    assert C2 > 0
    nu = rate_from_constants(sc, T)
    assert 0 < nu <= sc.lambda_D / C1**2
    assert nu < sc.lambda_D


@settings(deadline=None, max_examples=200)
@given(pos, pos, pos, pos)
def test_simplified_rate_is_a_lower_bound_at_reference_window(lam, s, nLD, nLH):
    sc = make_sc(lam, s, nLD, nLH)
    simple = simplified_rate(sc)
    exact = rate_from_constants(sc, 3.0 / sc.s_H)
    assert 0 < simple <= exact * (1 + 1e-12)


@settings(deadline=None, max_examples=200)
@given(pos, pos, pos, pos, pos, pos)
def test_regularization_only_weakens_c2(lam, s, nLD, nLH, T, beta):
    sc = make_sc(lam, s, nLD, nLH)
    C1_0, C2_0 = c_constants(sc, T)
    C1_b, C2_b = c_constants(sc, T, beta)
    assert C1_b == C1_0
    assert C2_b >= C2_0
    expected = C2_0 * math.sqrt((beta + sc.norm_LD) / sc.norm_LD)
    assert math.isclose(C2_b, expected, rel_tol=1e-12)


@settings(deadline=None, max_examples=200)
@given(pos, pos, pos, pos)
def test_trivial_kernel_constants_positive_and_monotone_in_T(lam, nLH, T, beta):
    sc = make_sc(lam, math.inf, lam, nLH)
    C1_a, C2_a = c_constants(sc, T, beta)
    C1_b, C2_b = c_constants(sc, 2.0 * T, beta)
    assert C1_a > 0 and C2_a > 0
    assert C1_b >= C1_a
    assert C2_b >= C2_a


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_graph_spec_normalizes_edges(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chain = [(i, i + 1) for i in range(n - 1)]
    extra = data.draw(st.lists(st.sampled_from(all_pairs), max_size=10))
    raw = chain + extra
    seen = set()
    edges = []
    for (u, v) in raw:
        if (u, v) not in seen:
            seen.add((u, v))
            flip = data.draw(st.booleans())
            edges.append((v, u) if flip else (u, v))
    spec = GraphSpec(n, edges)
    assert spec.edges == sorted(spec.edges)
    assert all(u < v for (u, v) in spec.edges)
    assert len(set(spec.edges)) == len(spec.edges)
    assert len(spec.components) == 1
    assert set(spec.weights) == set(spec.edges)
