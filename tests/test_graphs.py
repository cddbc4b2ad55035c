import itertools
import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from deltareg import graphs as G

SEEDS = [0x5EED, 0xBEEF, 0xACE5, 17, 99]


def random_bipartite(nl, nr, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(nl) for v in range(nr) if rng.random() < p]
    return G.BipartiteGraph.from_edges(G.VertexClass("A", nl), G.VertexClass("B", nr), edges)


def test_density_complete_and_empty():
    a, b = G.VertexClass("A", 4), G.VertexClass("B", 4)
    assert G.density(G.BipartiteGraph.complete(a, b)) == 1
    assert G.density(G.BipartiteGraph.empty(a, b)) == 0


def test_density_exact_rational():
    g = random_bipartite(6, 7, 0.4, 3)
    assert G.density(g) == Fraction(g.edge_count(), 42)


@pytest.mark.parametrize("seed", SEEDS)
def test_codegree_matches_neighborhood_intersection(seed):
    g = random_bipartite(16, 16, 0.5, seed)
    rng = np.random.default_rng(seed + 1)
    for _ in range(10):
        v, w = rng.integers(0, 16, size=2)
        brute = len(set(g.neighbors(int(v)).tolist()) & set(g.neighbors(int(w)).tolist()))
        assert G.codegree(g, int(v), int(w)) == brute


@pytest.mark.parametrize("nl, nr", [(1, 1), (7, 130), (64, 64), (129, 9), (200, 65)])
def test_transposed_swaps_every_edge(nl, nr):
    g = random_bipartite(nl, nr, 0.5, nl * 1000 + nr)
    t = g.transposed()
    swapped = G.BipartiteGraph.from_edges(g.right, g.left, [(v, u) for u, v in g.edges()])
    assert np.array_equal(t.rows, swapped.rows)
    back = G.BipartiteGraph(t.left, t.right, t.rows.copy()).transposed()  # uncached
    assert np.array_equal(back.rows, g.rows)


def test_codegree_identity_and_zero():
    g = random_bipartite(8, 8, 0.5, 1)
    assert G.codegree(g, 3, 3) == len(g.neighbors(3))
    h = G.BipartiteGraph.from_edges(G.VertexClass("A", 4), G.VertexClass("B", 4), [(0, 0), (1, 1)])
    assert G.codegree(h, 0, 1) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_edges_between_matches_double_loop(seed):
    g = random_bipartite(12, 12, 0.45, seed)
    rng = np.random.default_rng(seed + 2)
    S = rng.choice(12, size=5, replace=False)
    T = rng.choice(12, size=7, replace=False)
    naive = sum(1 for u in S for v in T if g.has_edge(int(u), int(v)))
    assert G.edges_between(g, S, T) == naive
    assert G.edges_between(g, [], T) == 0
    assert G.edges_between(g, range(12), range(12)) == g.edge_count()


def test_edges_between_range_check():
    g = random_bipartite(4, 4, 0.5, 0)
    with pytest.raises(IndexError):
        G.edges_between(g, [5], [0])


def test_aux_graph_k2_isomorphic():
    cs = G.VertexClassSet([("V1", 3), ("V2", 4)])
    edges = [[0, 1], [2, 3], [1, 0]]
    h = G.KPartiteKGraph(cs, edges)
    for axis in (1, 2):
        av = G.aux_graph(h, axis)
        assert av.edge_count() == h.edge_count()
    a1 = G.aux_graph(h, 2)
    for (u, v) in [(0, 1), (2, 3), (1, 0)]:
        assert a1.graph.has_edge(u, v)


def test_aux_graph_single_edge_axis3():
    cs = G.VertexClassSet([("V1", 2), ("V2", 2), ("V3", 2)])
    h = G.KPartiteKGraph(cs, [[0, 1, 1]])
    av = G.aux_graph(h, 3)
    assert av.edge_count() == 1
    left = av.product.encode((0, 1))
    assert av.graph.has_edge(left, 1)


def test_aux_graph_axis_out_of_range():
    cs = G.VertexClassSet([("V1", 2), ("V2", 2)])
    h = G.KPartiteKGraph(cs, [[0, 0]])
    with pytest.raises(ValueError):
        G.aux_graph(h, 3)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_aux_edge_count_invariant(axis):
    rng = np.random.default_rng(6)
    cs = G.VertexClassSet([("V1", 3), ("V2", 3), ("V3", 3)])
    edges = [t for t in itertools.product(range(3), repeat=3) if rng.random() < 0.4]
    h = G.KPartiteKGraph(cs, np.array(edges).reshape(-1, 3))
    assert G.aux_graph(h, axis).edge_count() == h.edge_count()


def test_lift_round_trip_enumerated():
    # 2x2x2 instance with 3 edges: tuple set checked by enumeration
    cs = G.VertexClassSet([("V1", 2), ("V2", 2), ("V3", 2)])
    h = G.KPartiteKGraph(cs, [[0, 0, 0], [0, 1, 1], [1, 1, 0]])
    av = G.aux_graph(h, 3)
    lifted = G.lift_graph_to_kgraph(av.graph, av.product)
    assert lifted == h
    expected = {(0, 0, 0), (0, 1, 1), (1, 1, 0)}
    got = {tuple(int(x) for x in row) for row in lifted.edges_arr}
    assert got == expected


def test_lift_empty():
    prod = G.ProductClass.of([G.VertexClass("V1", 2), G.VertexClass("V2", 2)])
    g = G.BipartiteGraph.empty(G.VertexClass(prod.name, prod.size), G.VertexClass("V3", 2))
    h = G.lift_graph_to_kgraph(g, prod)
    assert h.edge_count() == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_blowup(m):
    g = random_bipartite(5, 6, 0.5, 8)
    bg = G.blowup(g, m)
    assert bg.edge_count() == m * m * g.edge_count()
    assert G.density(bg) == G.density(g)
    if m == 2:
        single = G.BipartiteGraph.from_edges(G.VertexClass("A", 1), G.VertexClass("B", 1), [(0, 0)])
        k22 = G.blowup(single, 2)
        assert k22.edge_count() == 4


def test_blowup_zero_rejected():
    g = random_bipartite(3, 3, 0.5, 0)
    with pytest.raises(ValueError):
        G.blowup(g, 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_serialization_round_trips(seed):
    g = random_bipartite(10, 13, 0.37, seed)
    assert G.bipartite_from_binary(G.bipartite_to_binary(g)) == g
    assert G.bipartite_from_text(G.bipartite_to_text(g)) == g
    assert G.graph_hash(g) == G.graph_hash(G.bipartite_from_binary(G.bipartite_to_binary(g)))


def test_kgraph_text_round_trip():
    cs = G.VertexClassSet([("V1", 3), ("V2", 2), ("V3", 4)])
    h = G.KPartiteKGraph(cs, [[0, 0, 0], [2, 1, 3], [1, 1, 2]])
    assert G.kgraph_from_text(G.kgraph_to_text(h)) == h


def test_product_class_codec():
    prod = G.ProductClass.of([G.VertexClass("A", 3), G.VertexClass("B", 4), G.VertexClass("C", 2)])
    assert prod.size == 24
    for idx in range(24):
        assert prod.encode(prod.decode(idx)) == idx
    arr = np.arange(24)
    assert np.array_equal(prod.encode_array(prod.decode_array(arr)), arr)


def test_vertex_class_set_disjoint_contiguous():
    cs = G.VertexClassSet([("A", 3), ("B", 5)])
    assert cs.classes[0].offset == 0 and cs.classes[1].offset == 3
    assert cs.class_of(4) == 1
    with pytest.raises(ValueError):
        G.VertexClassSet([("A", 3), ("A", 2)])
    with pytest.raises(ValueError):
        G.VertexClass("X", 0)


def test_kgraph_binary_round_trip():
    cs = G.VertexClassSet([("V1", 3), ("V2", 2), ("V3", 4)])
    h = G.KPartiteKGraph(cs, [[0, 0, 0], [2, 1, 3], [1, 1, 2]])
    back = G.kgraph_from_binary(G.kgraph_to_binary(h))
    assert back == h
    assert [c.name for c in back.classes.classes] == ["V1", "V2", "V3"]
    empty = G.KPartiteKGraph(cs, np.empty((0, 3), dtype=np.int64))
    assert G.kgraph_from_binary(G.kgraph_to_binary(empty)) == empty


def test_aux_graph_empty_source():
    cs = G.VertexClassSet([("V1", 2), ("V2", 3), ("V3", 2)])
    h = G.KPartiteKGraph(cs, np.empty((0, 3), dtype=np.int64))
    for axis in (1, 2, 3):
        assert G.aux_graph(h, axis).edge_count() == 0


# -- whole-array text codec and lift against per-line / per-row references ----

# class sizes whose largest id has 1 to 7 digits
_SIZES = st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 1000, 10**4 + 1, 10**5, 10**6, 10**7 - 1])


def _reference_kgraph_text(h):
    """The per-line formatter the codec replaced."""
    lines = ["kgraph v1", f"k {h.k}"]
    for c in h.classes.classes:
        lines.append(f"class {c.name} {c.size}")
    lines.append(f"edges {h.edge_count()}")
    for row in h.edges_arr:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def _reference_bipartite_text(g):
    lines = ["bipartite v1", f"left {g.left.name} {g.left.size}", f"right {g.right.name} {g.right.size}", f"edges {g.edge_count()}"]
    for u in range(g.left.size):
        for v in G.unpack_row(g.rows[u], g.right.size):
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _reference_lift(g, product, right_class):
    """The per-row lift the whole-array one replaced."""
    classes = G.VertexClassSet(list(product.factors) + [G.VertexClass(right_class.name, right_class.size)])
    rows = [tuple(product.decode(u)) + (int(v),) for u in range(g.left.size) for v in g.neighbors(u)]
    return G.KPartiteKGraph(classes, np.array(rows, dtype=np.int64).reshape(-1, len(product.factors) + 1))


@st.composite
def kgraphs(draw, min_edges=0, max_edges=40):
    k = draw(st.sampled_from([2, 3, 4]))
    sizes = draw(st.lists(_SIZES, min_size=k, max_size=k))
    tuples = draw(st.lists(st.tuples(*[st.integers(0, s - 1) for s in sizes]), min_size=min_edges, max_size=max_edges, unique=True))
    cs = G.VertexClassSet([(f"V{j}", s) for j, s in enumerate(sizes)])
    return G.KPartiteKGraph(cs, np.array(tuples, dtype=np.int64).reshape(-1, k))


@st.composite
def bipartites(draw, min_edges=0, max_side=150):
    nl, nr = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    edges = draw(st.lists(st.tuples(st.integers(0, nl - 1), st.integers(0, nr - 1)), min_size=min_edges, max_size=200))
    return G.BipartiteGraph.from_edges(G.VertexClass("A", nl), G.VertexClass("B", nr), edges)


@settings(max_examples=300, deadline=None)
@given(kgraphs())
def test_kgraph_text_matches_per_line_formatter(h):
    text = G.kgraph_to_text(h)
    assert text == _reference_kgraph_text(h)
    back = G.kgraph_from_text(text)
    assert back == h
    assert [c.name for c in back.classes.classes] == [c.name for c in h.classes.classes]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kgraph_text_empty_and_single_edge(k):
    cs = G.VertexClassSet([(f"V{j}", 10**7 - 1) for j in range(k)])
    for edges in ([], [[10**7 - 2] * k], [[0] * k]):
        h = G.KPartiteKGraph(cs, np.array(edges, dtype=np.int64).reshape(-1, k))
        assert G.kgraph_to_text(h) == _reference_kgraph_text(h)
        assert G.kgraph_from_text(G.kgraph_to_text(h)) == h


def test_kgraph_text_spans_several_row_chunks():
    rng = np.random.default_rng(4)
    cs = G.VertexClassSet([("V1", 100), ("V2", 1000), ("V3", 1001)])
    edges = np.unique(np.stack([rng.integers(0, c.size, 150_000) for c in cs.classes], axis=1), axis=0)
    h = G.KPartiteKGraph(cs, edges)
    assert h.edge_count() > 2 * G._CHUNK_ROWS
    assert G.kgraph_to_text(h) == _reference_kgraph_text(h)
    assert G.kgraph_from_text(G.kgraph_to_text(h)) == h


@settings(max_examples=200, deadline=None)
@given(bipartites())
def test_bipartite_text_matches_per_line_formatter(g):
    text = G.bipartite_to_text(g)
    assert text == _reference_bipartite_text(g)
    assert G.bipartite_from_text(text) == g
    assert [tuple(e) for e in g.edges().tolist()] == [(u, int(v)) for u in range(g.left.size) for v in g.neighbors(u)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(1, 70), st.data())
def test_lift_matches_per_row_reference(factor_sizes, nr, data):
    product = G.ProductClass.of([G.VertexClass(f"F{j}", s) for j, s in enumerate(factor_sizes)])
    bits = np.array(data.draw(st.lists(st.booleans(), min_size=product.size * nr, max_size=product.size * nr)))
    g = G.BipartiteGraph.from_edges(G.VertexClass(product.name, product.size), G.VertexClass("R", nr), np.argwhere(bits.reshape(product.size, nr)))
    right = G.VertexClass("Z", nr)
    lifted = G.lift_graph_to_kgraph(g, product, right_class=right)
    ref = _reference_lift(g, product, right_class=right)
    assert lifted == ref
    assert np.array_equal(lifted.edges_arr, ref.edges_arr)
    assert [c.name for c in lifted.classes.classes] == [c.name for c in ref.classes.classes]
    assert np.array_equal(G.aux_graph(lifted, lifted.k).graph.rows, g.rows)



@st.composite
def edge_lists(draw):
    """Class sizes whose product fits the int64 codes, and a list of
    distinct in-range tuples, in sorted order, shuffled, or with one tuple
    repeated."""
    k = draw(st.sampled_from([2, 3, 4]))
    sizes = draw(st.lists(_SIZES, min_size=k, max_size=k).filter(lambda s: math.prod(s) < 1 << 63))
    tuples = sorted(set(draw(st.lists(st.tuples(*[st.integers(0, s - 1) for s in sizes]), max_size=40))))
    order = draw(st.sampled_from(["sorted", "shuffled", "duplicated"]))
    if order != "sorted":
        tuples = draw(st.permutations(tuples))
    if order == "duplicated" and tuples:
        tuples.insert(draw(st.integers(0, len(tuples))), draw(st.sampled_from(tuples)))
    return sizes, tuples, order


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_kgraph_constructor_matches_sort_then_unique(case):
    sizes, tuples, order = case
    k = len(sizes)
    cs = G.VertexClassSet([(f"V{j}", s) for j, s in enumerate(sizes)])
    edges = np.array(tuples, dtype=np.int64).reshape(-1, k)
    if order == "duplicated" and tuples:
        with pytest.raises(ValueError, match="duplicate"):
            G.KPartiteKGraph(cs, edges)
        return
    h = G.KPartiteKGraph(cs, edges)
    ref = sorted(set(tuples))
    codes = []
    for t in ref:
        c = 0
        for v, s in zip(t, sizes):
            c = c * s + v
        codes.append(c)
    assert h.edges_arr.tolist() == [list(t) for t in ref]
    assert h.encoded.tolist() == codes
    assert h.edges_arr.dtype == h.encoded.dtype == np.int64
    for j, bad in ((k - 1, sizes[-1]), (0, -1)):
        out = np.concatenate([edges, np.zeros((1, k), dtype=np.int64)])
        out[-1, j] = bad
        with pytest.raises(ValueError, match="out of range"):
            G.KPartiteKGraph(cs, out)


@pytest.mark.parametrize("edges", [[[0, 1, 2], [0, 2, 0], [1, 0, 0]], [[1, 0, 0], [0, 1, 2], [0, 2, 0]]], ids=["sorted", "unsorted"])
def test_kgraph_keeps_no_view_of_the_callers_edges(edges):
    cs = G.VertexClassSet([("V1", 2), ("V2", 3), ("V3", 3)])
    arr = np.array(edges, dtype=np.int64)
    h = G.KPartiteKGraph(cs, arr)
    before = h.edges_arr.tolist(), h.encoded.tolist()
    arr[:] = 0
    assert (h.edges_arr.tolist(), h.encoded.tolist()) == before
    assert not h.edges_arr.flags.writeable and not h.encoded.flags.writeable

def _malformed(text: str, kind: str, at: int) -> str:
    """text with one defect of the given kind; ``at`` picks the edge line."""
    lines = text.split("\n")[:-1]
    head = next(j for j, ln in enumerate(lines) if ln.startswith("edges ")) + 1
    m = int(lines[head - 1].split()[1])
    i = head + at % m
    line = lines[i]
    if kind == "header":
        lines[0] = lines[0].replace("v1", "v2")
    elif kind == "count-up":
        lines[head - 1] = f"edges {m + 1}"
    elif kind == "count-down":
        lines[head - 1] = f"edges {m - 1}"
    elif kind == "extra-field":
        lines[i] = line + " 0"
    elif kind == "missing-field":
        lines[i] = line.rsplit(" ", 1)[0]
    elif kind == "non-digit":
        lines[i] = "x-+\t\ré"[at % 6] + line[1:]
    elif kind == "moved-field":  # one line loses a field and another gains it
        j = i + 1 if i + 1 < head + m else i - 1
        if j < head:
            lines[i] = line + " 0"
        else:
            lines[i], last = line.rsplit(" ", 1)
            lines[j] += " " + last
    elif kind == "double-space":
        lines[i] = line.replace(" ", "  ", 1)
    elif kind == "empty-field":  # k separators, the first field empty
        lines[i] = line[line.index(" ") :]
    elif kind == "leading-space":
        lines[i] = " " + line
    elif kind == "trailing-space":
        lines[i] = line + " "
    elif kind == "out-of-range":
        lines[i] = line.rsplit(" ", 1)[0] + " 10000000"
    elif kind == "duplicate":
        lines[head - 1] = f"edges {m + 1}"
        lines.insert(i, line)
    elif kind == "trailing-line":
        lines.append("5 5 5\nfoo bar")
    elif kind == "trailing-text":
        return text + "1"
    elif kind == "no-final-newline":
        return text[:-1]
    return "\n".join(lines) + "\n"


_DEFECTS = ["header", "count-up", "count-down", "extra-field", "missing-field", "moved-field", "non-digit", "double-space", "empty-field", "leading-space",
            "trailing-space", "out-of-range", "duplicate", "trailing-line", "trailing-text", "no-final-newline"]


def test_readers_reject_text_after_an_empty_edge_list():
    cs = G.VertexClassSet([("V1", 3), ("V2", 3)])
    empty = G.kgraph_to_text(G.KPartiteKGraph(cs, np.empty((0, 2), dtype=np.int64)))
    assert empty.endswith("edges 0\n")
    for bad in (empty + "0 0\n", empty + "\n", empty[:-1], empty.replace("k 2", "k 1")):
        with pytest.raises(ValueError):
            G.kgraph_from_text(bad)
    bip = G.bipartite_to_text(G.BipartiteGraph.empty(G.VertexClass("A", 2), G.VertexClass("B", 2)))
    with pytest.raises(ValueError):
        G.bipartite_from_text(bip + "0 0\n")


@settings(max_examples=300, deadline=None)
@given(kgraphs(min_edges=1, max_edges=12), st.sampled_from(_DEFECTS), st.integers(0, 1000))
def test_kgraph_reader_rejects_malformed_text(h, kind, at):
    with pytest.raises(ValueError):
        G.kgraph_from_text(_malformed(G.kgraph_to_text(h), kind, at))


@settings(max_examples=300, deadline=None)
@given(bipartites(min_edges=1, max_side=12), st.sampled_from(_DEFECTS), st.integers(0, 1000))
def test_bipartite_reader_rejects_malformed_text(g, kind, at):
    with pytest.raises(ValueError):
        G.bipartite_from_text(_malformed(G.bipartite_to_text(g), kind, at))
