import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from deltareg import counterexample as X
from deltareg.graphs import edges_between

DESK = dict(delta=Fraction(1, 2), q=Fraction(1, 10), k=30, m=3)


def recombine(terms, n):
    return [sum(w * int(y[i]) for w, y in terms) for i in range(n)]


def test_convex_decompose_symmetric_half():
    terms = X.convex_decompose([Fraction(1, 2), Fraction(1, 2)])
    assert sum(w for w, _ in terms) == 1
    assert recombine(terms, 2) == [Fraction(1, 2), Fraction(1, 2)]
    supports = {tuple(y.tolist()) for _, y in terms}
    assert supports <= {(1, 0), (0, 1)}


def test_convex_decompose_binary_identity():
    terms = X.convex_decompose([1, 0, 1, 1])
    assert len(terms) == 1
    w, y = terms[0]
    assert w == 1 and y.tolist() == [1, 0, 1, 1]


def test_convex_decompose_stated_example():
    x = [Fraction(3, 4), Fraction(1, 2), Fraction(3, 4)]
    terms = X.convex_decompose(x)
    assert recombine(terms, 3) == x
    assert all(int(y.sum()) == 2 for _, y in terms)
    assert sum(w for w, _ in terms) == 1


def test_convex_decompose_rejects_non_integral():
    with pytest.raises(ValueError):
        X.convex_decompose([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError):
        X.convex_decompose([Fraction(3, 2), Fraction(1, 2)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=2, max_size=7), st.integers(1, 6))
def test_convex_decompose_property(nums, den):
    x = [Fraction(v, 8) for v in nums]
    total = sum(x)
    if total.denominator != 1:
        # pad the last coordinate to the next integer when possible
        need = Fraction(total.denominator - total.numerator % total.denominator, total.denominator)
        if x[-1] + need > 1:
            return
        x[-1] += need
    terms = X.convex_decompose(x)
    assert sum(w for w, _ in terms) == 1
    assert all(w >= 0 for w, _ in terms)
    assert recombine(terms, len(x)) == x
    m = int(sum(x))
    assert all(int(y.sum()) == m for _, y in terms)
    assert len(terms) <= len(x) + 1


@pytest.fixture(scope="module")
def built():
    params = X.CounterexampleParams(seed=4, relaxed=True, **DESK)
    g, audit = X.build_triangle_free(params)
    base_params = X.CounterexampleParams(seed=4, relaxed=True, **{**DESK, "m": 1})
    base, _ = X.build_triangle_free(base_params)
    return params, g, audit, base


def test_output_triangle_free_exhaustively(built):
    _, g, _, base = built
    assert g.triangle_count() == 0
    assert base.triangle_count() == 0
    assert len(g.triangles()) == 0


def test_base_densities_at_least_p(built):
    params, _, audit, _ = built
    for name, d in audit.densities.items():
        assert d >= params.p, (name, d)


def test_deletion_ledger_balanced(built):
    params, _, audit, _ = built
    counts = list(audit.deletions.values())
    total = sum(counts)
    assert total <= audit.triangle_history[-1] if audit.triangle_history else True
    assert max(counts) - min(counts) <= 1
    for c in counts:
        assert abs(c - total / 3) <= 1


def test_blowup_preserves_density_and_freeness(built):
    params, g, audit, base = built
    for big, small in ((g.ab, base.ab), (g.ac, base.ac), (g.bc, base.bc)):
        assert big.edge_count() == params.m ** 2 * small.edge_count()
    assert g.triangle_count() == 0


def test_blowup_bilinear_equality_on_random_subsets(built):
    params, g, audit, base = built
    rep = X.verify_counterexample(g, params, base=base, subset_checks=25, seed=11)
    assert rep["blowup_decomposition_agrees"]


def test_strengthened_property_implies_pair_regularity():
    # whenever the (1 - delta) bound holds on all threshold-size subsets,
    # the half-density pair check also passes (cross-validation, tiny sizes)
    from deltareg.regularity import is_delta_regular_pair

    params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1, 4), k=10, m=1, seed=2, relaxed=True)
    base, _ = X.build_triangle_free(params)
    rep = X.verify_counterexample(base, params, base=base)
    for name, pair in (("ab", base.ab), ("ac", base.ac), ("bc", base.bc)):
        rr = rep["base_pair_property"][name]
        if rr.get("ok"):
            assert is_delta_regular_pair(pair, params.delta).status == "regular"


def test_strict_window_validation():
    params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1, 10), k=30, m=1, seed=0, relaxed=False)
    with pytest.raises(ValueError):
        params.validate_strict()
    # a window that does exist: delta = 1/2, p <= delta^5/1000 = 1/32000
    delta = Fraction(1, 2)
    q = 3 * Fraction(1, 40000)
    lo = 64 / (delta**2 * q)
    hi = delta**3 / (4 * q * q)
    assert lo <= hi  # the stated window is non-empty under the probability bound
    ok = X.CounterexampleParams(delta=delta, q=q, k=int(lo) + 1, m=1, seed=0, relaxed=False)
    ok.validate_strict()


def test_degenerate_all_edges_removed():
    # force a q=1 tiny instance: everything is one big triangle pile; after
    # deletion the graph is triangle free and the audit stays consistent
    params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1), k=4, m=1, seed=1, relaxed=True)
    g, audit = X.build_triangle_free(params)
    assert g.triangle_count() == 0
    assert sum(audit.deletions.values()) <= audit.triangle_history[-1]


def test_triangle_gate_is_exact(monkeypatch):
    """delta = q = 1/3, k = 9: the gate delta^3 k^2 q is exactly 1, which a
    float product puts at 0.9999999999999997; a base with one triangle
    meets it."""
    from deltareg.graphs import BipartiteGraph, VertexClass

    def one_triangle(n, q, rng):
        pair = lambda a, b: BipartiteGraph.from_edges(VertexClass(a, n), VertexClass(b, n), np.zeros((1, 2), dtype=np.int64))
        return X.TripartiteGraph(n=n, ab=pair("A", "B"), ac=pair("A", "C"), bc=pair("B", "C"))

    monkeypatch.setattr(X, "_sample_tripartite", one_triangle)
    params = X.CounterexampleParams(delta=Fraction(1, 3), q=Fraction(1, 3), k=9, m=1, seed=0, relaxed=True)
    g, audit = X.build_triangle_free(params)
    assert audit.triangle_history == [1] and g.triangle_count() == 0
    assert "triangle-gate-ok True" in audit.to_text()


def test_occupancy_and_subset_helper():
    rng = np.random.default_rng(0)
    S = X._random_subset_with_occupancy(6, 3, 9, rng)
    assert len(S) == 9
    occ = X._occupancy(S, 6, 3)
    assert sum(occ) == 3
    assert all(0 <= v <= 1 for v in occ)


def test_audit_serialization(built):
    _, _, audit, _ = built
    text = audit.to_text()
    assert text.startswith("counterexample-audit v1")
    assert "deletions" in text and "density" in text


def test_strengthened_check_min_density_is_the_exact_minimum():
    # the exact check reports min e(S, T) / (ab) over all a-subsets S and
    # b-subsets T at the minimal sizes; recount it over every pair (S, T)
    from itertools import combinations

    params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1, 4), k=8, m=1, seed=3, relaxed=True)
    base, _ = X.build_triangle_free(params)
    a = b = 4
    for pair in (base.ab, base.ac, base.bc):
        rep = X._strengthened_pair_check(pair, params.delta)
        assert rep["status"] == "checked"
        worst = min(
            edges_between(pair, list(S), list(T)) for S in combinations(range(8), a) for T in combinations(range(8), b)
        )
        assert rep["min_density"] == Fraction(worst, a * b)


def _sampled_reference(pair, delta):
    """The sampled floor counted pair by pair: 400 draws of seed 1, S then T."""
    import math

    n_l, n_r = pair.left.size, pair.right.size
    d = Fraction(pair.edge_count(), n_l * n_r)
    a, b = max(1, math.ceil(delta * n_l)), max(1, math.ceil(delta * n_r))
    rng = np.random.default_rng(1)
    worst = None
    for _ in range(400):
        S = rng.choice(n_l, size=a, replace=False)
        T = rng.choice(n_r, size=b, replace=False)
        r = Fraction(edges_between(pair, S, T), a * b)
        if worst is None or r < worst:
            worst = r
    return {"status": "sampled", "min_density": worst, "bound": (1 - delta) * d, "ok": worst >= (1 - delta) * d}


def test_sampled_floor_counts_each_draw_as_edges_between_does():
    from deltareg.graphs import BipartiteGraph, VertexClass

    params = X.CounterexampleParams(**DESK, seed=2)
    base, _ = X.build_triangle_free(params)
    rng = np.random.default_rng(8)
    skewed = BipartiteGraph.from_edges(VertexClass("L", 70), VertexClass("R", 9), np.argwhere(rng.random((70, 9)) < 0.3))
    for pair, delta in ((base.ab, params.delta), (base.bc, Fraction(1, 3)), (skewed, Fraction(1, 7))):
        rep = X._strengthened_pair_check(pair, delta, mode="sampled")
        assert rep == _sampled_reference(pair, delta)
        assert type(rep["min_density"]) is Fraction
