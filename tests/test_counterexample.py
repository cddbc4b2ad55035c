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
    params = X.CounterexampleParams(seed=4, **DESK)
    g, audit = X.build_triangle_free(params)
    base_params = X.CounterexampleParams(seed=4, **{**DESK, "m": 1})
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
    assert total <= audit.triangles
    assert max(counts) - min(counts) <= 1
    for c in counts:
        assert abs(c - total / 3) <= 1


def test_blowup_preserves_density_and_freeness(built):
    params, g, audit, base = built
    for big, small in ((g.ab, base.ab), (g.ac, base.ac), (g.bc, base.bc)):
        assert big.edge_count() == params.m ** 2 * small.edge_count()
    assert g.triangle_count() == 0


def test_blowup_exact_holds_and_one_flipped_bit_breaks_it(built):
    """An honest m = 3 build is its base's blowup bit for bit; one flipped
    bit in any pair, an added or a removed edge, is caught."""
    from deltareg.graphs import BipartiteGraph

    params, g, _, base = built
    assert X.verify_counterexample(g, params, base=base)["blowup_exact"] is True
    for name in ("ab", "ac", "bc"):
        for row in (0, 44):
            pair = getattr(g, name)
            rows = pair.rows.copy()
            rows[row, 0] ^= np.uint64(1)
            tampered = X.TripartiteGraph(**{**vars(g), name: BipartiteGraph(pair.left, pair.right, rows)})
            assert X.verify_counterexample(tampered, params, base=base)["blowup_exact"] is False


def test_bilinear_identity_on_the_exact_blowup(built):
    """What the exact claim stands for: on a blowup that equals blowup(base,
    m), e(S, T) = m^2 sum_ij a_i b_j (s_i^T A t_j) for the convex
    decompositions of the per-vertex occupancies of S and T."""
    params, g, _, base = built
    m, k = params.m, base.n
    rng = np.random.default_rng(11)
    A = np.array([[base.ab.has_edge(u, v) for v in range(k)] for u in range(k)], dtype=np.int64)
    for _ in range(10):
        S, T = (np.sort(rng.choice(k * m, size=int(rng.integers(1, k)) * m, replace=False)) for _ in range(2))
        s, t = ([Fraction(int(c), m) for c in np.bincount(U // m, minlength=k)] for U in (S, T))
        total = sum(w1 * w2 * int(y1 @ A @ y2) for w1, y1 in X.convex_decompose(s) for w2, y2 in X.convex_decompose(t))
        assert edges_between(g.ab, S, T) == m * m * total


def test_strengthened_property_implies_pair_regularity():
    # whenever the (1 - delta) bound holds on all threshold-size subsets,
    # the half-density pair check also passes (cross-validation, tiny sizes)
    from deltareg.regularity import is_delta_regular_pair

    params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1, 4), k=10, m=1, seed=2)
    base, _ = X.build_triangle_free(params)
    rep = X.verify_counterexample(base, params, base=base)
    for name, pair in (("ab", base.ab), ("ac", base.ac), ("bc", base.bc)):
        rr = rep["base_pair_property"][name]
        if rr.get("ok"):
            assert is_delta_regular_pair(pair, params.delta).status == "regular"


def test_strict_window_validation():
    params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1, 10), k=30, m=1, seed=0)
    with pytest.raises(ValueError):
        params.validate_strict()
    # a window that does exist: delta = 1/2, p <= delta^5/1000 = 1/32000
    delta = Fraction(1, 2)
    q = 3 * Fraction(1, 40000)
    lo = 64 / (delta**2 * q)
    hi = delta**3 / (4 * q * q)
    assert lo <= hi  # the stated window is non-empty under the probability bound
    ok = X.CounterexampleParams(delta=delta, q=q, k=int(lo) + 1, m=1, seed=0)
    ok.validate_strict()


def test_degenerate_all_edges_removed():
    # force a q=1 tiny instance: everything is one big triangle pile; after
    # deletion the graph is triangle free and the audit stays consistent
    params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1), k=4, m=1, seed=1)
    g, audit = X.build_triangle_free(params)
    assert g.triangle_count() == 0
    assert sum(audit.deletions.values()) <= audit.triangles


def test_triangle_gate_is_exact(monkeypatch):
    """delta = q = 1/3, k = 9: the gate delta^3 k^2 q is exactly 1, which a
    float product puts at 0.9999999999999997; a base with one triangle
    meets it."""
    from deltareg.graphs import BipartiteGraph, VertexClass

    def one_triangle(n, q, rng):
        pair = lambda a, b: BipartiteGraph.from_edges(VertexClass(a, n), VertexClass(b, n), np.zeros((1, 2), dtype=np.int64))
        return X.TripartiteGraph(n=n, ab=pair("A", "B"), ac=pair("A", "C"), bc=pair("B", "C"))

    monkeypatch.setattr(X, "_sample_tripartite", one_triangle)
    params = X.CounterexampleParams(delta=Fraction(1, 3), q=Fraction(1, 3), k=9, m=1, seed=0)
    g, audit = X.build_triangle_free(params)
    assert audit.triangles == 1 and g.triangle_count() == 0
    assert "triangle-gate-ok True" in audit.to_text()


# SHA-256 of ab.bin, ac.bin and bc.bin at the desk params, seed 5
DESK_SEED_5_PAIRS = {
    "ab": "8e2ebb6bd8615488466afa18ee4a957c467f49a882376eac2eee158fb30a1df9",
    "ac": "60a3ab959ea0882ca7025381ea45fc25b167c8d9bc0bbbcba3c7ced3b15e7211",
    "bc": "28cad7961cd30b6fb9ddb57bc8639532bb6c5a58ac30d5ce0b9737914b450d63",
}
DESK_SEED_5_AUDIT = """counterexample-audit v1
triangle-history 39
deletions 01 11
deletions 02 11
deletions 12 11
density ab 91/900
density ac 9/100
density bc 9/100
triangle-gate-ok False
"""


def test_desk_build_is_pinned_at_seed_5():
    """Every pair of the desk instance at seed 5, byte for byte, and its
    audit text: a change to the draw, the deletion order or the blowup
    shows here."""
    import hashlib

    from deltareg.graphs import bipartite_to_binary

    g, audit = X.build_triangle_free(X.CounterexampleParams(**DESK, seed=5))
    pairs = {name: hashlib.sha256(bipartite_to_binary(getattr(g, name))).hexdigest() for name in DESK_SEED_5_PAIRS}
    assert pairs == DESK_SEED_5_PAIRS
    assert audit.to_text() == DESK_SEED_5_AUDIT


def test_audit_serialization(built):
    _, _, audit, _ = built
    text = audit.to_text()
    assert text.startswith("counterexample-audit v1")
    assert "deletions" in text and "density" in text


def test_strengthened_check_min_density_is_the_exact_minimum():
    # the exact check reports min e(S, T) / (ab) over all a-subsets S and
    # b-subsets T at the minimal sizes; recount it over every pair (S, T)
    from itertools import combinations

    params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1, 4), k=8, m=1, seed=3)
    base, _ = X.build_triangle_free(params)
    a = b = 4
    for pair in (base.ab, base.ac, base.bc):
        rep = X._strengthened_pair_check(pair, params.delta)
        assert rep["status"] == "checked"
        worst = min(
            edges_between(pair, list(S), list(T)) for S in combinations(range(8), a) for T in combinations(range(8), b)
        )
        assert rep["min_density"] == Fraction(worst, a * b)


@pytest.mark.parametrize("chunk", [None, 24, 1])
@pytest.mark.parametrize("seed", [1373164102, 1224931870])  # the exact-pairs bases at its seed 5
def test_strengthened_check_branch_and_bound_reports_the_scanned_minimum(seed, chunk, monkeypatch):
    # k 14, m 1: the check takes the minimum over all C(14, 7) left
    # subsets by branch and bound; a 24- or 1-word chunk makes it expand
    # prefixes and skip them on the incumbent.  Reference: the b smallest
    # column sums of every 7-subset, one sort per subset
    from itertools import combinations

    if chunk is not None:
        monkeypatch.setattr(X._kernels, "_SUBSET_CHUNK", chunk)
    params = X.CounterexampleParams(seed=seed, delta=Fraction(1, 2), q=Fraction(1, 2), k=14, m=1)
    base, _ = X.build_triangle_free(params)
    S = np.array(list(combinations(range(14), 7)))
    for pair in (base.ab, base.ac, base.bc):
        bits = X._kernels.unpack_rows(pair.rows, 14).astype(np.int64)
        worst = int(np.sort(bits[S].sum(axis=1), axis=1)[:, :7].sum(axis=1).min())
        rep = X._strengthened_pair_check(pair, params.delta)
        assert rep["status"] == "checked" and rep["min_density"] == Fraction(worst, 49)


def test_strengthened_check_past_the_cap_is_undecided_without_drawing(monkeypatch):
    # C(30, 15) > 2^22: the desk base's pairs are past the default cap, so
    # the claim is neither scanned nor sampled
    def no_draws(*args, **kwargs):
        raise AssertionError("the pair check must not draw")

    base = _desk_base()
    monkeypatch.setattr(X.np.random, "default_rng", no_draws)
    monkeypatch.setattr(X._kernels, "subset_min_edges", no_draws)
    for pair in (base.ab, base.ac, base.bc):
        d = Fraction(pair.edge_count(), 30 * 30)
        assert X._strengthened_pair_check(pair, Fraction(1, 2)) == {"status": "undecided", "bound": d / 2}


def test_verify_counterexample_refuses_a_mode_other_than_exact():
    base = _desk_base()
    params = X.CounterexampleParams(**{**DESK, "m": 1}, seed=0)
    for mode in ("sampled", "Exact", None):
        with pytest.raises(ValueError):
            X.verify_counterexample(base, params, mode=mode, base=base)


def test_the_regularity_deciders_refuse_a_mode_other_than_exact():
    from deltareg import regularity as R
    from deltareg.partitions import VertexPartition

    g = _desk_base().ab
    halves = VertexPartition.blocks(30, 2)
    calls = [
        lambda mode: R.is_delta_regular_pair(g, Fraction(1, 2), mode=mode),
        lambda mode: R.is_eps_regular_graph(g, Fraction(1, 2), mode=mode),
        lambda mode: R.partition_edit_interval(g, halves, halves, Fraction(1, 2), mode=mode),
    ]
    for call in calls:
        for mode in ("sampled", "Exact"):
            with pytest.raises(ValueError):
                call(mode)


def test_descent_refutes_the_subset_floor_on_every_desk_pair():
    """Why no subset floor is claimed at the desk profile: on each pair of
    the seed-5 instance (k 30, m 3, q 1/10, delta 1/2) the witness search of
    the half-density check finds |S|, |T| >= 45 with e(S, T), recounted by
    edges_between, below (1 - delta) d |S||T|."""
    from deltareg.regularity import find_delta_witness

    delta = Fraction(1, 2)
    g, _ = X.build_triangle_free(X.CounterexampleParams(**DESK, seed=5))
    for pair in (g.ab, g.ac, g.bc):
        w = find_delta_witness(pair, delta)
        assert w is not None
        assert len(w.left) >= 45 and len(w.right) >= 45
        d = Fraction(pair.edge_count(), pair.left.size * pair.right.size)
        assert edges_between(pair, w.left, w.right) < (1 - delta) * d * len(w.left) * len(w.right)


def _desk_base():
    base, _ = X.build_triangle_free(X.CounterexampleParams(**{**DESK, "m": 1}, seed=5))
    return base
