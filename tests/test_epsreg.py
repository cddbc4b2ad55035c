import itertools

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from deltareg import epsreg as E
from deltareg.graphs import KPartiteKGraph, VertexClassSet
from deltareg.partitions import KPartition, Polyad, VertexPartition, clique_set, complete_kpartition
from deltareg.regularity import CapExceeded


def tripartite_polyad(n, edges_by_span):
    cs = VertexClassSet([("V1", n), ("V2", n), ("V3", n)])
    parts = []
    for span in [(1, 2), (0, 2), (0, 1)]:
        sub = VertexClassSet([(f"V{j+1}", n) for j in span])
        parts.append(KPartiteKGraph(sub, edges_by_span[span]))
    return cs, Polyad(3, cs, parts)


def complete_tripartite_polyad(n):
    full = np.array(list(itertools.product(range(n), range(n))), dtype=np.int64)
    return tripartite_polyad(n, {sp: full for sp in [(1, 2), (0, 2), (0, 1)]})


def test_relative_density_conventions():
    cs, poly = complete_tripartite_polyad(2)
    ks = clique_set(poly)
    h = KPartiteKGraph(cs, ks.edges())
    assert E.relative_density(h, poly) == 1
    empty_parts = {sp: np.empty((0, 2), dtype=np.int64) for sp in [(1, 2), (0, 2), (0, 1)]}
    _, empty_poly = tripartite_polyad(2, empty_parts)
    assert E.relative_density(h, empty_poly) == 0  # zero-denominator convention
    # brute-force triangle classification oracle on a seeded instance
    rng = np.random.default_rng(4)
    parts = {sp: np.array([e for e in itertools.product(range(3), range(3)) if rng.random() < 0.7], dtype=np.int64)
             for sp in [(1, 2), (0, 2), (0, 1)]}
    cs3, poly3 = tripartite_polyad(3, parts)
    tris = clique_set(poly3)
    hedges = [t for t in tris.edges() if rng.random() < 0.5]
    h3 = KPartiteKGraph(cs3, np.array(hedges, dtype=np.int64).reshape(-1, 3))
    expected = Fraction(len(hedges), tris.edge_count()) if tris.edge_count() else Fraction(0)
    assert E.relative_density(h3, poly3) == expected


def test_eps_d_regular_trivial_cases():
    cs, poly = complete_tripartite_polyad(2)
    h = KPartiteKGraph(cs, clique_set(poly).edges())
    for eps in (Fraction(1, 10), Fraction(1, 2)):
        assert E.is_eps_d_regular(h, poly, eps, d=1)["status"] == "regular"
    # empty clique set: vacuously regular
    empty_parts = {sp: np.empty((0, 2), dtype=np.int64) for sp in [(1, 2), (0, 2), (0, 1)]}
    _, empty_poly = tripartite_polyad(2, empty_parts)
    assert E.is_eps_d_regular(h, empty_poly, Fraction(1, 4))["status"] == "regular"


def test_eps_d_regular_planted_witness_reverifies():
    cs, poly = complete_tripartite_polyad(2)
    h = KPartiteKGraph(cs, np.empty((0, 3), dtype=np.int64))
    rep = E.is_eps_d_regular(h, poly, Fraction(1, 4), d=1)
    assert rep["status"] == "irregular"
    # recompute the witness density from scratch
    assert E.relative_density(h, rep["witness"]) == rep["density"]
    assert abs(rep["density"] - rep["d"]) > Fraction(1, 4)


def test_eps_regular_partition_monotone_mass():
    cs = VertexClassSet([("V1", 4), ("V2", 4), ("V3", 4)])
    rng = np.random.default_rng(7)
    edges = [t for t in itertools.product(range(4), repeat=3) if (t[0] + 2 * t[1] + 3 * t[2]) % 3 == 0]
    h = KPartiteKGraph(cs, np.array(edges, dtype=np.int64))
    kp = complete_kpartition(cs, 2, 2)
    masses = []
    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        rep = E.is_eps_regular_partition(h, kp, eps)
        masses.append(rep["irregular_mass"])
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    assert masses == [64, 64, 0, 0]
    # eps = 1 is always regular
    rep1 = E.is_eps_regular_partition(h, kp, Fraction(1))
    assert rep1["ok"]


def _skewed_single_polyad(n):
    cs = VertexClassSet([("V1", n), ("V2", n), ("V3", n)])
    edges = [t for t in itertools.product(range(n), repeat=3) if t[0] < n // 2]
    return KPartiteKGraph(cs, np.array(edges, dtype=np.int64)), complete_kpartition(cs, 1, 2)


def test_eps_regular_partition_single_irregular_polyad_mass():
    # one polyad total; planting a skewed piece makes the failing mass equal
    # that polyad's clique count exactly
    h, kp = _skewed_single_polyad(2)
    rep = E.is_eps_regular_partition(h, kp, Fraction(1, 8))
    assert rep["irregular_mass"] == 8  # |K(P)| of the single complete polyad
    assert len(rep["details"]) == 1
    # on classes of 4 the polyad's parts hold 3 x 16 edges: its 2^48
    # sub-polyads pass LATTICE_CAP, and the partition is refused
    with pytest.raises(CapExceeded):
        E.is_eps_regular_partition(*_skewed_single_polyad(4), Fraction(1, 8))


def test_eps_regular_partition_all_regular_zero_mass():
    cs = VertexClassSet([("V1", 2), ("V2", 2), ("V3", 2)])
    edges = np.array(list(itertools.product(range(2), repeat=3)), dtype=np.int64)
    h = KPartiteKGraph(cs, edges)  # complete
    kp = complete_kpartition(cs, 1, 2)
    rep = E.is_eps_regular_partition(h, kp, Fraction(1, 4))
    assert rep["irregular_mass"] == 0 and rep["ok"]


def test_dense_counting_complete_zero_slack():
    cx = E.complete_complex(VertexClassSet([("A", 3), ("B", 4), ("C", 2)]))
    rep = E.dense_counting_check(cx, Fraction(1, 100), {2: Fraction(1)})
    assert rep["count"] == 24 and rep["predicted"] == 24
    assert rep["in_band"] and rep["exceptional_fraction"] == 0


def test_dense_counting_seeded_band_reported():
    # three independent rank-2 layers of density about 1/2 on classes of 8
    rng = np.random.default_rng(0)
    classes = VertexClassSet([("A", 8), ("B", 8), ("C", 8)])
    pairs = np.array(list(itertools.product(range(8), range(8))), dtype=np.int64)
    layers = {2: {}}
    for span in itertools.combinations(range(3), 2):
        cls = VertexClassSet([(classes.classes[j].name, 8) for j in span])
        layers[2][frozenset(span)] = KPartiteKGraph(cls, pairs[rng.random(len(pairs)) < 0.5])
    cx = E.RankedComplex(classes, layers)
    rep = E.dense_counting_check(cx, Fraction(1, 2), {2: Fraction(1, 2)})
    # against an independent recount
    count = 0
    for a in range(8):
        for b in range(8):
            if not cx.layer((0, 1)).contains([a, b]):
                continue
            for c in range(8):
                if cx.layer((0, 2)).contains([a, c]) and cx.layer((1, 2)).contains([b, c]):
                    count += 1
    assert rep["count"] == count > 0
    assert isinstance(rep["in_band"], (bool, np.bool_))


def test_dense_counting_empty_top_layer():
    classes = VertexClassSet([("A", 2), ("B", 2), ("C", 2)])
    layers = {2: {}}
    import itertools as it

    for span in it.combinations(range(3), 2):
        cls = VertexClassSet([(classes.classes[j].name, 2) for j in span])
        layers[2][frozenset(span)] = KPartiteKGraph(cls, np.empty((0, 2), dtype=np.int64))
    cx = E.RankedComplex(classes, layers)
    rep = E.dense_counting_check(cx, Fraction(1, 10), {2: Fraction(1, 2)})
    assert rep["count"] == 0 and not rep["in_band"]
    rep0 = E.dense_counting_check(cx, Fraction(1, 10), {2: Fraction(0)})
    assert rep0["count"] == 0 and rep0["in_band"]


def test_complex_closure_validation():
    classes = VertexClassSet([("A", 2), ("B", 2), ("C", 2), ("D", 2)])
    cx = E.complete_complex(classes)
    assert cx.k == 4
    # drop one rank-2 edge without touching rank 3: closure violated
    layers = {r: dict(v) for r, v in cx.layers.items()}
    span = frozenset({0, 1})
    g = layers[2][span]
    layers[2][span] = KPartiteKGraph(g.classes, g.edges()[1:])
    with pytest.raises(ValueError):
        E.RankedComplex(classes, layers)


def test_reduction_check_k2_degenerate():
    # for uniformity 2 the conclusion is plain pair checks on the cells
    cs = VertexClassSet([("V1", 4), ("V2", 4)])
    h = KPartiteKGraph(cs, [[u, v] for u in range(4) for v in range(4)])
    kp = KPartition(cs, VertexPartition(8, [range(0, 4), range(4, 8)]), {})
    rep = E.reduction_check(h, kp, Fraction(1, 16))
    assert rep["threshold"] == Fraction(1, 2)
    assert rep["hypothesis_ok"] and rep["conclusion_ok"]


def test_reduction_check_planted_hypothesis_violation():
    cs = VertexClassSet([("V1", 4), ("V2", 4)])
    # half the block is empty: a large sparse sub-polyad violates the
    # two-thirds density floor
    edges = [[u, v] for u in range(4) for v in range(4) if u < 2]
    h = KPartiteKGraph(cs, edges)
    kp = KPartition(cs, VertexPartition(8, [range(0, 4), range(4, 8)]), {})
    rep = E.reduction_check(h, kp, Fraction(1, 16))
    assert not rep["hypothesis_ok"]
    assert rep["hypothesis_details"]


def test_reduction_check_capped_hypothesis_is_undecided(monkeypatch):
    """The planted violation is found when the 2^8 sub-polyads of the one
    4 x 4 polyad fit LATTICE_CAP; past the cap the hypothesis is undecided
    (None), not proven."""
    cs = VertexClassSet([("V1", 4), ("V2", 4)])
    h = KPartiteKGraph(cs, [[u, v] for u in range(4) for v in range(4) if u < 2])
    kp = KPartition(cs, VertexPartition(8, [range(0, 4), range(4, 8)]), {})
    assert E.reduction_check(h, kp, Fraction(1, 16))["hypothesis_ok"] is False
    monkeypatch.setattr(E, "LATTICE_CAP", 255)
    capped = E.reduction_check(h, kp, Fraction(1, 16))
    assert capped["hypothesis_ok"] is None
    assert capped["hypothesis_details"] == [{"cap": True}]


def test_reduction_conclusion_agrees_with_pair_checker():
    from deltareg.regularity import is_delta_regular_pair
    from deltareg.graphs import aux_graph

    cs = VertexClassSet([("V1", 4), ("V2", 4)])
    h = KPartiteKGraph(cs, [[u, v] for u in range(4) for v in range(4) if (u + v) % 2 == 0])
    kp = KPartition(cs, VertexPartition(8, [range(0, 4), range(4, 8)]), {})
    rep = E.reduction_check(h, kp, Fraction(1, 16))
    view = aux_graph(h, 2)
    direct = is_delta_regular_pair(view.graph, Fraction(1, 2)).status
    assert rep["conclusion_ok"] == (direct == "regular")


@pytest.mark.parametrize("k", [2, 3])
def test_partition_polyads_tile_the_crossing_tuples(k):
    """Over a complete layered partition the polyads' clique sets, mapped
    back to global vertices, hold every k-tuple with one vertex per class
    exactly once."""
    cs = VertexClassSet([(f"V{j + 1}", 4) for j in range(k)])
    kp = complete_kpartition(cs, 2, k - 1 if k > 2 else 2)
    seen = []
    for poly, span in E.partition_polyads(kp, k):
        assert [cs.class_of(int(cell[0])) for cell in span] == list(range(k))
        for row in clique_set(poly).edges().tolist():
            seen.append(tuple(int(span[j][x]) for j, x in enumerate(row)))
    want = [tuple(c.offset + x for c, x in zip(cs.classes, t)) for t in itertools.product(range(4), repeat=k)]
    assert sorted(seen) == sorted(want) and len(set(seen)) == len(seen)


def test_induced_subgraph_on_cells_keeps_exactly_the_edges_inside():
    rng = np.random.default_rng(5)
    cs = VertexClassSet([("A", 5), ("B", 6), ("C", 4)])
    all_triples = np.array(list(itertools.product(range(5), range(6), range(4))), dtype=np.int64)
    h = KPartiteKGraph(cs, all_triples[rng.random(len(all_triples)) < 0.4])
    cells = [np.array([4, 1, 3]), np.array([0, 5]), np.array([2, 3, 1])]
    got = E.induced_subgraph_on_cells(h, cells)
    assert [c.size for c in got.classes.classes] == [3, 2, 3]
    want = [[int(np.flatnonzero(cells[j] == e[j])[0]) for j in range(3)] for e in h.edges().tolist() if all(e[j] in cells[j] for j in range(3))]
    assert got == KPartiteKGraph(got.classes, want) and got.edge_count() == len(want) > 0


def test_extension_counts_sum_to_the_clique_count():
    """Every clique extends exactly one edge of each rank-(k-1) layer."""
    rng = np.random.default_rng(3)
    classes = VertexClassSet([("A", 4), ("B", 4), ("C", 4)])
    pairs = np.array(list(itertools.product(range(4), range(4))), dtype=np.int64)
    layers = {2: {}}
    for span in itertools.combinations(range(3), 2):
        cls = VertexClassSet([(classes.classes[j].name, 4) for j in span])
        layers[2][frozenset(span)] = KPartiteKGraph(cls, pairs[rng.random(len(pairs)) < 0.6])
    cx = E.RankedComplex(classes, layers)
    total = E.complex_clique_count(cx)
    assert total > 0
    for span in itertools.combinations(range(3), 2):
        counts = E.complex_extension_counts(cx, span)
        assert len(counts) == cx.layer(span).edge_count() and sum(counts.values()) == total
    assert E.complex_clique_count(E.complete_complex(classes)) == 4 ** 3


def test_reduction_check_refuses_a_partition_without_the_top_layer():
    """A 3-graph's polyads live on layer 2; a partition with vertex cells
    only is refused by name, not with a bare KeyError."""
    cs = VertexClassSet([("V1", 2), ("V2", 2), ("V3", 2)])
    h = KPartiteKGraph(cs, list(itertools.product(range(2), repeat=3)))
    kp = KPartition(cs, VertexPartition(6, [range(0, 2), range(2, 4), range(4, 6)]), {})
    with pytest.raises(ValueError, match="no layer 2"):
        E.reduction_check(h, kp, Fraction(1, 16))


# -- the counting engine against a brute-force reference --------------------


def _subsets(items):
    return list(itertools.chain.from_iterable(itertools.combinations(items, s) for s in range(len(items) + 1)))


def _reference_first_deviation(h, p, share, lo, hi):
    """Every sub-polyad, built as a Polyad and counted through clique_set
    and relative_density; the first one that qualifies and deviates, or
    None.  Shares no code with the engine."""
    total = clique_set(p).edge_count()
    if p.r == 2:
        sizes = p.classes.sizes()
        choices = [_subsets(v.tolist()) for v in p.vertex_sets]

        def build(sa, sb):
            return Polyad.pair(np.array(sa, dtype=np.int64), np.array(sb, dtype=np.int64), sizes=sizes)
    else:
        choices = [_subsets(part.encoded.tolist()) for part in p.parts]

        def build(*codes):
            return Polyad(p.r, p.classes, [KPartiteKGraph.from_codes(part.classes, c) for part, c in zip(p.parts, codes)])

    for combo in itertools.product(*choices):
        s = build(*combo)
        if clique_set(s).edge_count() < share * total:
            continue
        ds = E.relative_density(h, s)
        if ds < lo or (hi is not None and ds > hi):
            return s
    return None


@st.composite
def _polyad_cases(draw):
    """A random r = 2 or r = 3 polyad with at most 9 elements, a random
    hypergraph on its classes, and a random (share, lo, hi)."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4 if r == 2 else 3))
    cs = VertexClassSet([(f"V{j}", n) for j in range(r)])
    if r == 2:
        a, b = (np.array(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)), dtype=np.int64) for _ in range(2))
        p = Polyad.pair(a, b, sizes=(n, n))
    else:
        # the faces of up to two triangles, and up to one more edge per part
        triangles = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=2))
        pairs = list(itertools.product(range(n), repeat=2))
        parts = []
        for span in [(1, 2), (0, 2), (0, 1)]:
            edges = {tuple(t[j] for j in span) for t in triangles} | set(draw(st.lists(st.sampled_from(pairs), max_size=1)))
            parts.append(KPartiteKGraph(VertexClassSet([(f"V{j}", n) for j in span]), np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)))
        p = Polyad(3, cs, parts)
    tuples = list(itertools.product(range(n), repeat=r))
    h = KPartiteKGraph(cs, np.array(draw(st.lists(st.sampled_from(tuples), unique=True)), dtype=np.int64).reshape(-1, r))
    d, eps = Fraction(draw(st.integers(0, 6)), 6), Fraction(draw(st.integers(0, 8)), 8)
    two_sided = draw(st.booleans())
    return h, p, eps, d - eps, (d + eps) if two_sided else None


@settings(max_examples=150, deadline=None)
@given(_polyad_cases())
def test_engine_agrees_with_the_reference_and_its_witness_recounts(case):
    h, p, share, lo, hi = case
    masks = E._first_deviation(p, E._clique_table(h, p), share, lo, hi)
    assert (masks is None) == (_reference_first_deviation(h, p, share, lo, hi) is None)
    total = clique_set(p).edge_count()
    if masks is not None:
        s = E._sub_polyad(p, masks)
        assert clique_set(s).edge_count() >= share * total
        ds = E.relative_density(h, s)
        assert ds < lo or (hi is not None and ds > hi)
    if hi is not None and total:
        # the (eps, d) band of is_eps_d_regular is this (share, lo, hi)
        eps, d = share, (lo + hi) / 2
        rep = E.is_eps_d_regular(h, p, eps, d)
        assert rep["status"] == ("regular" if masks is None else "irregular")
        if masks is not None:
            assert E.relative_density(h, rep["witness"]) == rep["density"] and abs(rep["density"] - d) > eps
