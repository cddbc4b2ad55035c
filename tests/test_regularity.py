import itertools
import math

import numpy as np
import pytest
from fractions import Fraction

from deltareg import regularity as R
from deltareg import partitions as P
from deltareg.graphs import BipartiteGraph, KPartiteKGraph, VertexClass, VertexClassSet, edges_between

DELTAS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]


def random_bipartite(nl, nr, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(nl) for v in range(nr) if rng.random() < p]
    return BipartiteGraph.from_edges(VertexClass("A", nl), VertexClass("B", nr), edges)


def test_complete_regular_any_delta():
    g = BipartiteGraph.complete(VertexClass("A", 8), VertexClass("B", 8))
    for d in DELTAS:
        assert R.is_delta_regular_pair(g, d).status == "regular"


def test_isolated_block_gives_zero_ratio_witness():
    edges = [(u, v) for u in range(8) for v in range(8) if not (u < 2 and v < 2)]
    g = BipartiteGraph.from_edges(VertexClass("A", 8), VertexClass("B", 8), edges)
    v = R.is_delta_regular_pair(g, Fraction(1, 4))
    assert v.status == "irregular"
    assert v.witness.ratio == 0
    # witness re-verifies from scratch
    w = v.witness
    assert len(w.left) >= Fraction(1, 4) * 8 and len(w.right) >= Fraction(1, 4) * 8
    assert edges_between(g, w.left, w.right) == w.e_st


def test_zero_density_vacuous():
    g = BipartiteGraph.empty(VertexClass("A", 6), VertexClass("B", 6))
    v = R.is_delta_regular_pair(g, Fraction(1, 3))
    assert v.status == "regular" and v.vacuous_zero_density


@pytest.mark.parametrize("seed", range(12))
def test_exact_equals_all_subsets_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    nl, nr = int(rng.integers(4, 11)), int(rng.integers(4, 11))
    g = random_bipartite(nl, nr, float(rng.uniform(0.2, 0.9)), seed)
    for d in DELTAS:
        assert R.is_delta_regular_pair(g, d).status == R.naive_all_sizes_oracle(g, d).status


def test_monotone_in_delta():
    # pair-sense regular at delta stays regular at any larger delta
    rng = np.random.default_rng(5)
    for seed in range(10):
        g = random_bipartite(9, 9, 0.55, 300 + seed)
        statuses = [R.is_delta_regular_pair(g, d).status for d in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))]
        for a, b in zip(statuses, statuses[1:]):
            if a == "regular":
                assert b == "regular"


def test_minimal_size_reduction_matches_full_enumeration():
    # on a seeded corpus with sides <= 6, the minimum over qualifying sizes
    # equals the minimum over the exact minimal sizes, enumerated fully
    rng = np.random.default_rng(77)
    for trial in range(40):
        nl, nr = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        g = random_bipartite(nl, nr, float(rng.uniform(0.15, 0.95)), 500 + trial)
        e_total = g.edge_count()
        if e_total == 0:
            continue
        for delta in DELTAS:
            a0 = max(1, math.ceil(delta * nl))
            b0 = max(1, math.ceil(delta * nr))
            best_all = None
            best_min = None
            for a in range(a0, nl + 1):
                for S in itertools.combinations(range(nl), a):
                    for b in range(b0, nr + 1):
                        for T in itertools.combinations(range(nr), b):
                            dd = Fraction(edges_between(g, list(S), list(T)), a * b)
                            if best_all is None or dd < best_all:
                                best_all = dd
                            if a == a0 and b == b0 and (best_min is None or dd < best_min):
                                best_min = dd
            assert best_all == best_min, (trial, delta)


def test_sampled_mode_witness_sound():
    edges = [(u, v) for u in range(12) for v in range(12) if not (u < 3 and v < 3)]
    g = BipartiteGraph.from_edges(VertexClass("A", 12), VertexClass("B", 12), edges)
    w = R.find_delta_witness(g, Fraction(1, 4))
    if w is not None:
        assert edges_between(g, w.left, w.right) == w.e_st
        assert w.ratio < Fraction(1, 2)


def test_sampled_witness_with_a_disagreeing_recount_is_never_returned(monkeypatch):
    edges = [(u, v) for u in range(12) for v in range(12) if not (u < 3 and v < 3)]
    g = BipartiteGraph.from_edges(VertexClass("A", 12), VertexClass("B", 12), edges)
    assert R.find_delta_witness(g, Fraction(1, 4)) is not None
    monkeypatch.setattr(R, "edges_between", lambda *args: edges_between(*args) + 1)
    with pytest.raises(AssertionError, match="recount"):
        R.find_delta_witness(g, Fraction(1, 4))


def naive_eps_oracle(g, eps):
    """All-subset-pairs two-sided deviation scan."""
    p = Fraction(g.edge_count(), g.left.size * g.right.size)
    if p in (0, 1):
        return "regular"
    a0 = max(1, math.ceil(eps * g.left.size))
    b0 = max(1, math.ceil(eps * g.right.size))
    for a in range(a0, g.left.size + 1):
        for S in itertools.combinations(range(g.left.size), a):
            for b in range(b0, g.right.size + 1):
                for T in itertools.combinations(range(g.right.size), b):
                    d = Fraction(edges_between(g, list(S), list(T)), a * b)
                    if abs(d - p) > eps * p:
                        return "irregular"
    return "regular"


@pytest.mark.parametrize("seed", range(6))
def test_eps_regular_exact_equals_all_subsets_oracle(seed):
    rng = np.random.default_rng(4000 + seed)
    nl, nr = int(rng.integers(4, 8)), int(rng.integers(4, 8))
    g = random_bipartite(nl, nr, float(rng.uniform(0.3, 0.8)), 4100 + seed)
    for eps in (Fraction(1, 3), Fraction(1, 2)):
        got = R.is_eps_regular_graph(g, eps, mode="exact")["status"]
        assert got == naive_eps_oracle(g, eps), (seed, eps)


def test_cap_exceeded():
    g = random_bipartite(30, 30, 0.5, 9)
    with pytest.raises(R.CapExceeded):
        R.is_delta_regular_pair(g, Fraction(1, 2), cap=100)


def test_wide_pair_is_decided_though_its_right_binomial_passes_the_cap():
    """The scan enumerates the C(12, 3) = 220 left subsets only, so the
    C(200, 50) right subsets must not refuse the pair."""
    g = random_bipartite(12, 200, 0.5, 11)
    assert math.comb(200, 50) > R.DEFAULT_CAP
    v = R.is_delta_regular_pair(g, Fraction(1, 4))
    assert v.status == R.naive_all_sizes_oracle(g, Fraction(1, 4)).status
    if v.witness is not None:
        assert v.witness.is_valid() and edges_between(g, v.witness.left, v.witness.right) == v.witness.e_st


def test_eps_cap_counts_left_subsets_only(monkeypatch):
    """At eps 1/2 a 4 x 7 pair scans C(4, 2) = 6 left subsets, below a cap
    of 10, though C(7, 4) = 35 is above it; its 7 x 4 transpose is refused."""
    monkeypatch.setattr(R, "DEFAULT_CAP", 10)
    eps = Fraction(1, 2)
    seen = set()
    for seed in range(8):
        g = random_bipartite(4, 7, 0.8, 4200 + seed)
        status = R.is_eps_regular_graph(g, eps)["status"]
        assert status == naive_eps_oracle(g, eps), seed
        seen.add(status)
        if 0 < g.edge_count() < 28:
            with pytest.raises(R.CapExceeded):
                R.is_eps_regular_graph(g.transposed(), eps)
    assert seen == {"regular", "irregular"}


def test_edit_interval_regular_graph():
    g = BipartiteGraph.complete(VertexClass("A", 8), VertexClass("B", 8))
    part = P.VertexPartition.blocks(8, 2)
    iv = R.partition_edit_interval(g, part, part, Fraction(1, 4))
    assert (iv.lower, iv.upper, iv.verdict) == (0, 0, "regular")


def test_edit_interval_planted_lower_bound():
    edges = [(u, v) for u in range(8) for v in range(8) if not (u < 2 and v < 2)]
    g = BipartiteGraph.from_edges(VertexClass("A", 8), VertexClass("B", 8), edges)
    one = P.VertexPartition(8, [range(8)])
    iv = R.partition_edit_interval(g, one, one, Fraction(1, 4))
    assert iv.lower > 0
    assert iv.lower <= iv.upper


def test_edit_interval_degenerate_budget():
    # at tolerance 1 only the full subsets qualify, so every pair is
    # regular with zero edits
    g = random_bipartite(8, 8, 0.5, 3)
    one = P.VertexPartition(8, [range(8)])
    iv = R.partition_edit_interval(g, one, one, Fraction(1, 1))
    assert iv.verdict == "regular"
    assert (iv.lower, iv.upper) == (0, 0)


def test_edit_interval_soundness_against_explicit_repair():
    # constructing any explicit repaired graph with c edits forces lower <= c
    edges = [(u, v) for u in range(8) for v in range(8) if not (u < 2 and v < 2)]
    g = BipartiteGraph.from_edges(VertexClass("A", 8), VertexClass("B", 8), edges)
    one = P.VertexPartition(8, [range(8)])
    iv = R.partition_edit_interval(g, one, one, Fraction(1, 4))
    # repair: complete the missing block -> complete graph, trivially regular
    edits = 4
    assert iv.lower <= edits


def test_is_delta_good_trivial_and_complete():
    cs = VertexClassSet([("V1", 4), ("V2", 4), ("V3", 4)])
    kp1 = P.KPartition(cs, P.VertexPartition.blocks(12, 3), {})
    ok, failing = R.is_delta_good(kp1, Fraction(1, 8))
    assert ok and not failing  # a vertex-only partition is always good
    kp2 = P.complete_kpartition(cs, 2, 2)
    ok2, failing2 = R.is_delta_good(kp2, Fraction(1, 4))
    assert ok2, failing2


def test_is_delta_good_planted_irregular_cell():
    # one sparse-block bipartite cell between two clusters
    cs = VertexClassSet([("V1", 8), ("V2", 8)])
    vp = P.VertexPartition(16, [range(0, 8), range(8, 16)])
    edges = [(u, v + 8) for u in range(8) for v in range(8) if not (u < 2 and v < 2)]
    cell = np.array(sorted((min(a, b), max(a, b)) for a, b in edges), dtype=np.int64)
    comp = np.array(sorted((u, v + 8) for u in range(8) for v in range(8) if (u < 2 and v < 2)), dtype=np.int64)
    kp = P.KPartition(cs, vp, {2: [cell, comp]})
    ok, failing = R.is_delta_good(kp, Fraction(1, 4))
    assert not ok
    assert any(f[1] == 0 for f in failing)  # the planted cell is reported


def test_kpartition_regularity_reduces_to_pair_for_k2():
    cs = VertexClassSet([("V1", 8), ("V2", 8)])
    h = KPartiteKGraph(cs, [[u, v] for u in range(8) for v in range(8)])
    kp = P.KPartition(cs, P.VertexPartition(16, [range(0, 4), range(4, 8), range(8, 12), range(12, 16)]), {})
    rep = R.is_delta_regular_kpartition(h, kp, Fraction(1, 4))
    assert rep["verdict"] == "regular"
    # empty k-graph: regular with zero budget and zero edits
    h0 = KPartiteKGraph(cs, np.empty((0, 2), dtype=np.int64))
    rep0 = R.is_delta_regular_kpartition(h0, kp, Fraction(1, 4))
    assert rep0["verdict"] == "regular"


def test_restriction_scaling_property():
    # restriction with an edge fraction beta passes the delta/beta check
    # whenever the original passes the delta check, on seeded bipartite data
    rng = np.random.default_rng(21)
    for seed in range(6):
        g = random_bipartite(8, 8, 0.7, 800 + seed)
        Pp = P.VertexPartition(8, [range(0, 4), range(4, 8)])
        delta = Fraction(1, 4)
        iv = R.partition_edit_interval(g, Pp, Pp, delta)
        if iv.verdict != "regular":
            continue
        # restrict to the first halves of both sides
        sub = R._induced_pair(g, np.arange(4), np.arange(4))
        beta = Fraction(sub.edge_count(), g.edge_count())
        if beta == 0:
            continue
        Ps = P.VertexPartition(4, [range(0, 4)])
        iv_sub = R.partition_edit_interval(sub, Ps, Ps, delta / beta if delta / beta <= 1 else Fraction(1))
        assert iv_sub.verdict in ("regular", "undecided")


@pytest.mark.parametrize("nl, nr, delta, want", [
    (8, 8, Fraction(1, 4), (2, 2)),
    (7, 5, Fraction(1, 3), (3, 2)),
    (3, 100, Fraction(1, 256), (1, 1)),
    (16, 9, Fraction(1, 2), (8, 5)),
])
def test_min_sizes_are_the_ceiling_of_delta_n_and_at_least_one(nl, nr, delta, want):
    """The exact search only tries subsets of exactly these sizes; the
    all-sizes oracle checks that this is enough."""
    assert R._min_sizes(nl, nr, delta) == want


def test_parity_halves_are_irregular_and_their_union_regular():
    """Each parity half of K_{8,8} has 2 x 2 subsets with no edge between
    them, so both are irregular at 1/4; their union is complete."""
    a, b = VertexClass("A", 8), VertexClass("B", 8)
    halves = [BipartiteGraph.from_edges(a, b, [(u, v) for u in range(8) for v in range(8) if (u + v) % 2 == par]) for par in (0, 1)]
    for g in halves:
        assert g.edge_count() == 32
        w = R.is_delta_regular_pair(g, Fraction(1, 4)).witness
        assert R.naive_all_sizes_oracle(g, Fraction(1, 4)).status == "irregular"
        assert w is not None and w.is_valid() and w.e_st == 0 == edges_between(g, w.left, w.right) and w.ratio == 0
        assert (len(w.left), len(w.right)) == R._min_sizes(8, 8, Fraction(1, 4))
    union = BipartiteGraph(a, b, halves[0].rows | halves[1].rows)
    assert union == BipartiteGraph.complete(a, b)
    assert R.is_delta_regular_pair(union, Fraction(1, 4)).status == "regular"


def test_e_layer_cells_and_axis_partitions_follow_the_classes():
    cs = VertexClassSet([("V1", 4), ("V2", 4), ("V3", 4)])
    kp = P.complete_kpartition(cs, 2, 2)
    classes_of = lambda ci: {cs.class_of(int(v)) for v in kp.layers[2][ci][0]}
    picked = {pair: R.e_layer_cells(kp, list(pair)) for pair in itertools.combinations(range(3), 2)}
    for pair, cells in picked.items():
        assert len(cells) == 4 and all(classes_of(ci) == set(pair) for ci in cells)
    # the other three cells pair two vertex cells of one class
    assert sorted(sum(picked.values(), [])) == [ci for ci in range(15) if len(classes_of(ci)) == 2]
    h = KPartiteKGraph(cs, list(itertools.product(range(4), repeat=3)))
    for axis in (1, 2, 3):
        left, right = R.axis_partitions(h, kp, axis)
        others = [j for j in range(3) if j != axis - 1]
        assert len(left) == len(picked[tuple(others)]) and left.n == 16 and left.is_equitable()
        assert right == P.VertexPartition.blocks(4, 2)


@pytest.mark.parametrize(
    "keep", [lambda t: True, lambda t: t[0] == 0, lambda t: sum(t) % 2 == 0], ids=["complete", "half", "parity"]
)
def test_a_partition_with_layer_k_gives_the_verdicts_without_it(keep):
    """The axis views of a 3-graph read layer 2; a partition that also
    carries layer 3 gives the depth-2 verdicts, not a failed cover."""
    from deltareg import epsreg as E

    cs = VertexClassSet([("V1", 2), ("V2", 2), ("V3", 2)])
    h = KPartiteKGraph(cs, [t for t in itertools.product(range(2), repeat=3) if keep(t)])
    delta = Fraction(1, 16)
    verdicts = []
    for depth in (2, 3):
        kp = P.complete_kpartition(cs, 1, depth)
        assert kp.k == depth
        verdicts.append((R.is_delta_regular_kpartition(h, kp, delta), E.reduction_check(h, kp, delta)))
    assert verdicts[0] == verdicts[1]
    assert [len(R.e_layer_cells(P.complete_kpartition(cs, 1, 3), list(pair))) for pair in itertools.combinations(range(3), 2)] == [1, 1, 1]
