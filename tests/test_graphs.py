import itertools
import math
import struct
import tracemalloc

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


@pytest.mark.parametrize("nl, nr", [(1, 1), (7, 130), (64, 64), (129, 9), (200, 65), (128, 7), (192, 65), (64, 1)])
def test_transposed_swaps_every_edge(nl, nr):
    """Row counts off and on whole words (multiples of 64, where no padded
    buffer is made), column counts off whole bytes."""
    g = random_bipartite(nl, nr, 0.5, nl * 1000 + nr)
    t = g.transposed()
    swapped = G.BipartiteGraph.from_edges(g.right, g.left, [(v, u) for u, v in g.edges()])
    assert np.array_equal(t.rows, swapped.rows)
    back = G.BipartiteGraph(t.left, t.right, t.rows.copy()).transposed()  # uncached
    assert np.array_equal(back.rows, g.rows)


def test_a_graph_and_its_transpose_are_freed_without_the_cycle_collector():
    """The transpose is cached both ways, on the rows, not the graphs: the
    transpose of the transpose is a graph on the same rows, cached too, and
    dropping the graphs frees them with the cycle collector off."""
    import gc
    import weakref

    g = random_bipartite(70, 9, 0.5, 3)
    t = g.transposed()
    assert t is g.transposed() and t.transposed() is t.transposed()
    assert t.transposed() == g and t.transposed().rows is g.rows
    gone = [weakref.ref(x) for x in (g, t, t.transposed())]
    gc.disable()
    try:
        del g, t
        assert [ref() for ref in gone] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("n_rows, n_cols", [(65536, 128), (128, 65536), (0, 5), (5, 0)])
def test_transpose_bits_matches_unpack_transpose_pack(n_rows, n_cols):
    """The desk quotient shapes and their transposes, against unpack, .T
    and pack; the result is a fresh array, so writing it leaves the input
    as it was."""
    from deltareg import _kernels as K

    bits = np.random.default_rng(n_rows + n_cols).integers(0, 2, (n_rows, n_cols), dtype=np.uint8)
    rows = K.pack_rows(bits) if n_rows else K.zero_rows(0, n_cols)
    kept = rows.copy()
    out = K.transpose_bits(rows, n_cols)
    assert out.dtype == np.uint64 and out.shape == (n_cols, K.row_words(n_rows))
    assert np.array_equal(out, K.pack_rows(bits.T)) if n_cols else out.size == 0
    out ^= ~np.uint64(0)
    assert np.array_equal(rows, kept)


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
    got = {tuple(int(x) for x in row) for row in lifted.edges()}
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
    assert G.graph_hash(g) == G.graph_hash(G.bipartite_from_binary(G.bipartite_to_binary(g)))


def test_binary_readers_refuse_every_proper_prefix():
    """A truncated container raises ValueError wherever it is cut, also
    inside the fixed header, where struct alone would raise struct.error."""
    g = random_bipartite(5, 70, 0.4, 3)
    blob = G.bipartite_to_binary(g)
    assert G.bipartite_from_binary(blob) == g
    for size in range(len(blob)):
        with pytest.raises(ValueError):
            G.bipartite_from_binary(blob[:size])


def test_kgraph_text_round_trip():
    cs = G.VertexClassSet([("V1", 3), ("V2", 2), ("V3", 4)])
    h = G.KPartiteKGraph(cs, [[0, 0, 0], [2, 1, 3], [1, 1, 2]])
    assert G.kgraph_from_text(G.kgraph_to_text(h)) == h


def _kcontainer(sizes, names, body, magic=b"DRKG", version=1, k=None):
    """A k-graph container laid out by hand: the header, the names block
    and the body as given."""
    k = len(sizes) if k is None else k
    return struct.pack(f"<4sHI{len(sizes)}QI", magic, version, k, *sizes, len(names)) + names + body


def _random_kgraph(sizes, p, seed):
    rng = np.random.default_rng(seed)
    cs = G.VertexClassSet([(f"V{j}", size) for j, size in enumerate(sizes)])
    return G.KPartiteKGraph.from_codes(cs, np.flatnonzero(rng.random(math.prod(sizes)) < p))


KGRAPH_BINARY_CASES = [
    ((3, 4), 0.5, 1),
    ((2, 3), 1.0, 2),  # complete, 6 bits
    ((5, 6, 7), 0.0, 3),  # empty, 210 bits
    ((3, 5, 7), 0.3, 4),  # 105 bits
    ((4, 4, 4), 0.25, 5),  # 64 bits, one whole word
    ((8, 8, 8), 1.0, 6),  # complete, 8 whole words
    ((2, 3, 4, 5), 0.5, 7),
    ((1, 1, 1, 1), 1.0, 8),
    ((9, 7, 5, 3), 0.1, 9),
]


@pytest.mark.parametrize("sizes, p, seed", KGRAPH_BINARY_CASES)
def test_kgraph_binary_round_trips_with_bit_c_for_code_c(sizes, p, seed):
    h = _random_kgraph(sizes, p, seed)
    blob = G.kgraph_to_binary(h)
    names = "".join(f"V{j}\n" for j in range(len(sizes))).encode()
    n = math.prod(sizes)
    body = blob[len(_kcontainer(sizes, names, b"")):]
    assert blob == _kcontainer(sizes, names, body) and len(body) == 8 * ((n + 63) // 64)
    # bit c of the little-endian body is set exactly for the edge codes c
    bits = int.from_bytes(body, "little")
    assert [c for c in range(len(body) * 8) if bits >> c & 1] == h.encoded.tolist()
    back = G.kgraph_from_binary(blob)
    assert back == h and G.kgraph_to_binary(back) == blob


@pytest.mark.parametrize("sizes, p, seed", KGRAPH_BINARY_CASES)
def test_kgraph_binary_reader_refuses_every_proper_prefix(sizes, p, seed):
    blob = G.kgraph_to_binary(_random_kgraph(sizes, p, seed))
    for size in range(len(blob)):
        with pytest.raises(ValueError):
            G.kgraph_from_binary(blob[:size])


NAMES_3 = b"A\nB\nC\n"


@pytest.mark.parametrize(
    "blob, says",
    [
        pytest.param(_kcontainer((3, 5, 7), NAMES_3, bytes(16), magic=b"DRBG"), "not a v1 k-graph container", id="magic"),
        pytest.param(_kcontainer((3, 5, 7), NAMES_3, bytes(16), version=2), "not a v1 k-graph container", id="version"),
        # refused before the names and the body are read
        pytest.param(_kcontainer((3,), b"A\n", b""), "uniformity must be at least 2", id="k-1"),
        pytest.param(_kcontainer((), b"", b""), "uniformity must be at least 2", id="k-0"),
        pytest.param(_kcontainer((3000000, 3000000, 3000000), NAMES_3, b""), "2\\^63", id="sizes-past-2^63"),
        pytest.param(_kcontainer((2**31, 2**32), b"A\nB\n", b""), "2\\^63", id="sizes-at-2^63"),
        pytest.param(_kcontainer((3, 5, 7), b"A\nB\n", bytes(16)), "names block", id="two-names"),
        pytest.param(_kcontainer((3, 5, 7), b"A\nB\nC", bytes(16)), "names block", id="no-last-newline"),
        pytest.param(_kcontainer((3, 5, 7), b"A\nB\nC\nD\n", bytes(16)), "names block", id="four-names"),
        pytest.param(_kcontainer((3, 5, 7), b"A\n\nC\n", bytes(16)), "names block", id="empty-name"),
        pytest.param(_kcontainer((3, 5, 7), b"A\nA\nC\n", bytes(16)), "distinct", id="repeated-name"),
        pytest.param(_kcontainer((3, 5, 7), b"A\n\xff\nC\n", bytes(16)), "utf-8", id="not-utf-8"),
        pytest.param(_kcontainer((3, 0, 7), NAMES_3, b""), "non-empty", id="empty-class"),
        pytest.param(_kcontainer((3, 5, 7), NAMES_3, bytes(8)), "body of 8 bytes, 16 expected for 105 bits", id="short-body"),
        pytest.param(_kcontainer((3, 5, 7), NAMES_3, bytes(17)), "body of 17 bytes, 16 expected", id="trailing-byte"),
        pytest.param(_kcontainer((3, 5, 7), NAMES_3, bytes(15) + b"\x02"), "stray bits at or past bit 105", id="stray-bit"),
        pytest.param(_kcontainer((4, 4, 4), NAMES_3, bytes(16)), "body of 16 bytes, 8 expected", id="long-body"),
        # 2^62 bits: the body length is refused before anything is allocated
        pytest.param(_kcontainer((2**31, 2**31), b"A\nB\n", bytes(8)), "body of 8 bytes", id="2^62-bits"),
        # a header claiming 2^32 - 1 classes is cut short, not unpacked
        pytest.param(_kcontainer((3, 5), b"A\nB\n", b"", k=2**32 - 1), "truncated", id="k-2^32-1"),
    ],
)
def test_kgraph_binary_reader_refuses_malformed_containers(blob, says):
    with pytest.raises(ValueError, match=says):
        G.kgraph_from_binary(blob)


def test_kgraph_binary_tampers_read_as_other_graphs():
    """A flipped body bit, a renamed class or another graph's container in
    its place reads as a graph, but never as the one written."""
    h = _random_kgraph((3, 5, 7), 0.3, 4)
    blob = bytearray(G.kgraph_to_binary(h))
    flipped = bytearray(blob)
    flipped[-16] ^= 1
    g = G.kgraph_from_binary(bytes(flipped))
    assert g != h and set(g.encoded.tolist()) ^ set(h.encoded.tolist()) == {0}
    renamed = G.kgraph_from_binary(bytes(blob).replace(b"V1\n", b"Z1\n", 1))
    assert renamed != h and np.array_equal(renamed.encoded, h.encoded)
    other = _random_kgraph((3, 5, 7), 0.3, 5)
    assert G.kgraph_from_binary(G.kgraph_to_binary(other)) == other != h


def test_kgraph_binary_writer_refuses_names_it_cannot_read_back():
    for name in ("", "a\nb"):
        h = G.KPartiteKGraph(G.VertexClassSet([(name, 2), ("B", 2)]), [[0, 1]])
        with pytest.raises(ValueError, match="class names"):
            G.kgraph_to_binary(h)


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


def test_aux_graph_empty_source():
    cs = G.VertexClassSet([("V1", 2), ("V2", 3), ("V3", 2)])
    h = G.KPartiteKGraph(cs, np.empty((0, 3), dtype=np.int64))
    for axis in (1, 2, 3):
        assert G.aux_graph(h, axis).edge_count() == 0


# -- text codec, lift and constructor against per-line / per-row references --

# class sizes whose largest id has 1 to 7 digits
_SIZES = st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 1000, 10**4 + 1, 10**5, 10**6, 10**7 - 1])


def _reference_kgraph_text(h):
    """The v1 text of h, one decimal line per edge: the format that the
    hex body replaced, which the pinned hashes of built graphs render."""
    lines = ["kgraph v1", f"k {h.k}"]
    for c in h.classes.classes:
        lines.append(f"class {c.name} {c.size}")
    lines.append(f"edges {h.edge_count()}")
    for row in h.edges().tolist():
        lines.append(" ".join(map(str, row)))
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
def bipartites(draw):
    nl, nr = draw(st.integers(1, 150)), draw(st.integers(1, 150))
    edges = draw(st.lists(st.tuples(st.integers(0, nl - 1), st.integers(0, nr - 1)), max_size=200))
    return G.BipartiteGraph.from_edges(G.VertexClass("A", nl), G.VertexClass("B", nr), edges)


@pytest.mark.parametrize("sizes", [(2**31, 2**32), (4, 2**61), (10**7, 10**7, 10**5)])
def test_codes_refuse_products_of_2_to_the_63(sizes):
    """Mixed-radix codes are int64: at 2^63 tuples and more they would wrap,
    so both encoders refuse; just below, the largest tuple encodes exactly."""
    cs = G.VertexClassSet([(f"V{j}", s) for j, s in enumerate(sizes)])
    with pytest.raises(ValueError, match="2\\^63"):
        G.KPartiteKGraph(cs, np.zeros((0, len(sizes)), dtype=np.int64))
    product = G.ProductClass.of([G.VertexClass(f"F{j}", s) for j, s in enumerate(sizes)])
    with pytest.raises(ValueError, match="2\\^63"):
        product.encode_array(np.zeros((1, len(sizes)), dtype=np.int64))
    below = G.VertexClassSet([("A", 2**31 - 1), ("B", 2**32)])
    top = np.array([[2**31 - 2, 2**32 - 1]], dtype=np.int64)
    assert G.KPartiteKGraph(below, top).encoded.tolist() == [(2**31 - 2) * 2**32 + 2**32 - 1]


@settings(max_examples=200, deadline=None)
@given(bipartites())
def test_bipartite_text_matches_per_line_formatter(g):
    text = G.bipartite_to_text(g)
    assert text == _reference_bipartite_text(g)
    assert [tuple(e) for e in g.edges().tolist()] == [(u, int(v)) for u in range(g.left.size) for v in g.neighbors(u)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(1, 70), st.data())
def test_lift_matches_per_row_reference(factor_sizes, nr, data):
    product = G.ProductClass.of([G.VertexClass(f"F{j}", s) for j, s in enumerate(factor_sizes)])
    # drawn as bytes: a list of up to 125 * 70 booleans exceeds what hypothesis draws in one list
    n_bits = product.size * nr
    raw = data.draw(st.binary(min_size=(n_bits + 7) // 8, max_size=(n_bits + 7) // 8))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n_bits].astype(bool)
    g = G.BipartiteGraph.from_edges(G.VertexClass(product.name, product.size), G.VertexClass("R", nr), np.argwhere(bits.reshape(product.size, nr)))
    right = G.VertexClass("Z", nr)
    lifted = G.lift_graph_to_kgraph(g, product, right_class=right)
    ref = _reference_lift(g, product, right_class=right)
    assert lifted == ref
    assert np.array_equal(lifted.edges(), ref.edges())
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
    assert h.edges().tolist() == [list(t) for t in ref]
    assert h.encoded.tolist() == codes
    assert h.edges().dtype == h.encoded.dtype == np.int64
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
    before = h.edges().tolist(), h.encoded.tolist()
    arr[:] = 0
    assert (h.edges().tolist(), h.encoded.tolist()) == before
    assert not h.encoded.flags.writeable
    # edges() decodes a fresh array: writing to it leaves the graph as it was
    out = h.edges()
    out[:] = 0
    assert (h.edges().tolist(), h.encoded.tolist()) == before
    codes = np.array(before[1], dtype=np.int64)
    g = G.KPartiteKGraph.from_codes(cs, codes)
    codes[:] = 0
    assert g == h and not g.encoded.flags.writeable


@pytest.mark.parametrize("codes", [[3, 1], [1, 1], [-1, 2], [0, 18], [17, 18]], ids=["unsorted", "repeated", "negative", "product", "beyond"])
def test_from_codes_refuses_codes_that_are_not_a_sorted_set_in_range(codes):
    cs = G.VertexClassSet([("V1", 2), ("V2", 3), ("V3", 3)])
    with pytest.raises(ValueError):
        G.KPartiteKGraph.from_codes(cs, np.array(codes, dtype=np.int64))
    assert G.KPartiteKGraph.from_codes(cs, [0, 17]).edges().tolist() == [[0, 0, 0], [1, 2, 2]]


@pytest.mark.parametrize("sizes", [(2**31, 2**32), (4, 2**61), (10**7, 10**7, 10**5)])
def test_from_codes_refuses_products_of_2_to_the_63(sizes):
    cs = G.VertexClassSet([(f"V{j}", s) for j, s in enumerate(sizes)])
    for codes in ([], [0]):
        with pytest.raises(ValueError, match="2\\^63"):
            G.KPartiteKGraph.from_codes(cs, np.array(codes, dtype=np.int64))


def _reference_aux_graph(h, axis):
    """The per-edge axis view: drop the axis entry of each tuple, encode the
    rest in the product of the other classes, and set that bit."""
    i = axis - 1
    others = [c for j, c in enumerate(h.classes.classes) if j != i]
    product = G.ProductClass.of(others)
    pairs = [(product.encode([v for j, v in enumerate(t) if j != i]), t[i]) for t in h.edges().tolist()]
    return G.BipartiteGraph.from_edges(G.VertexClass(product.name, product.size), G.VertexClass(h.classes[i].name, h.classes[i].size), pairs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=5), st.data())
def test_aux_graph_matches_per_edge_reference(sizes, data):
    cs = G.VertexClassSet([(f"V{j}", s) for j, s in enumerate(sizes)])
    product = math.prod(sizes)
    codes = sorted(data.draw(st.sets(st.integers(0, product - 1), max_size=min(product, 60))))
    h = G.KPartiteKGraph.from_codes(cs, np.array(codes, dtype=np.int64))
    for axis in range(1, len(sizes) + 1):
        av = G.aux_graph(h, axis)
        assert av.graph == _reference_aux_graph(h, axis)
        assert av.graph.left.name == av.product.name and av.graph.right.name == f"V{axis - 1}"


# -- the k-graph text format: header lines, then the binary body in hex -----


@st.composite
def small_kgraphs(draw):
    """k-graphs whose product of class sizes is at most 2^16 bits."""
    k = draw(st.sampled_from([2, 3, 4]))
    sizes = draw(st.lists(st.integers(1, 300), min_size=k, max_size=k).filter(lambda s: math.prod(s) <= 1 << 16))
    n = math.prod(sizes)
    codes = draw(st.one_of(st.sets(st.integers(0, n - 1), max_size=200), st.just(set(range(n)) if n <= 4096 else set())))
    cs = G.VertexClassSet([(f"V{j}", s) for j, s in enumerate(sizes)])
    return G.KPartiteKGraph.from_codes(cs, sorted(codes))


@settings(max_examples=300, deadline=None)
@given(small_kgraphs())
def test_kgraph_text_is_the_header_and_the_binary_body_in_hex(h):
    text = G.kgraph_to_text(h)
    lines = text.split("\n")
    sizes = h.classes.sizes()
    assert lines[: h.k + 3] == ["kgraph v2", f"k {h.k}", *(f"class V{j} {s}" for j, s in enumerate(sizes)), f"edges {h.edge_count()}"]
    assert len(lines) == h.k + 5 and lines[-1] == ""
    blob = G.kgraph_to_binary(h)
    names = "".join(f"V{j}\n" for j in range(h.k)).encode()
    assert lines[-2] == blob[len(_kcontainer(sizes, names, b"")) :].hex()
    back = G.kgraph_from_text(text)
    assert back == h and G.kgraph_to_text(back) == text


# (3, 5, 7): 105 bits, so the last of the two words holds padding bits
TAMPER_GRAPH = G.KPartiteKGraph.from_codes(G.VertexClassSet([("V1", 3), ("V2", 5), ("V3", 7)]), [0, 11, 12, 13, 14, 15, 40, 77, 104])


def _body_at(text: str, i: int, char: str) -> str:
    """text with the i-th character of its body line replaced by char."""
    at = text.rindex("\n", 0, -1) + 1 + i
    return text[:at] + char + text[at + 1 :]


def _set_padding_bit(text: str) -> str:
    """Bit 105, the first past N, is bit 1 of body byte 13."""
    line = text.rsplit("\n", 2)[1]
    body = bytearray.fromhex(line)
    body[13] |= 2
    return text.replace(line, body.hex())


KGRAPH_TEXT_TAMPERS = [
    pytest.param(lambda t: _reference_kgraph_text(TAMPER_GRAPH), "kgraph v1 is the old decimal text format", id="v1"),
    pytest.param(lambda t: t.replace("kgraph v2", "kgraph v3"), "bad header", id="v3"),
    pytest.param(lambda t: t.replace("edges 9\n", "edges 10\n"), "body holds 9 edges, header says 10", id="edges+1"),
    pytest.param(lambda t: t.replace("edges 9\n", "edges 8\n"), "body holds 9 edges, header says 8", id="edges-1"),
    pytest.param(lambda t: _body_at(t, t.rsplit("\n", 2)[1].index("f"), "F"), "not lowercase hex", id="uppercase"),
    pytest.param(lambda t: _body_at(t, 5, " "), "Non-hexadecimal", id="space"),
    pytest.param(lambda t: _body_at(t, 5, "g"), "Non-hexadecimal", id="non-hex"),
    pytest.param(lambda t: _body_at(t, 5, "\xe9"), "ascii", id="non-ascii"),
    pytest.param(lambda t: t[:-3] + "\n", "body line of 31 bytes, 33 expected for 105 bits", id="byte-short"),
    pytest.param(lambda t: t[:-1] + "00\n", "body line of 35 bytes, 33 expected", id="byte-long"),
    pytest.param(lambda t: t[:-1], "body line of 32 bytes, 33 expected", id="no-final-newline"),
    pytest.param(lambda t: t[:-1] + "0", "no newline after the body", id="digit-for-final-newline"),
    pytest.param(lambda t: t[:-1] + "\r\n", "body line of 34 bytes", id="crlf"),
    pytest.param(lambda t: t + "0 0 0\n", "body line of 39 bytes", id="trailing-line"),
    pytest.param(_set_padding_bit, "stray bits at or past bit 105", id="padding-bit"),
    pytest.param(lambda t: t.replace("edges 9\n", "edges 09\n"), "bad count '09'", id="zero-edges-count"),
    pytest.param(lambda t: t.replace("class V3 7\n", "class V3 07\n"), "bad count '07'", id="zero-class-size"),
    pytest.param(lambda t: t.replace("k 3\n", "k 03\n"), "bad count '03'", id="zero-k"),
    pytest.param(lambda t: t.replace("class V3 7\n", "class V3 7\nclass V4 2\n"), "bad edges line", id="extra-class"),
    pytest.param(lambda t: t.replace("k 3\n", "k 1\n"), "uniformity must be at least 2", id="k-1"),
    pytest.param(lambda t: t[: t.index("edges")], "truncated header", id="no-edges-line"),
]


@pytest.mark.parametrize("tamper, says", KGRAPH_TEXT_TAMPERS)
def test_kgraph_text_reader_refuses_every_tamper(tamper, says):
    text = G.kgraph_to_text(TAMPER_GRAPH)
    assert G.kgraph_from_text(text) == TAMPER_GRAPH
    with pytest.raises(ValueError, match=says):
        G.kgraph_from_text(tamper(text))


def test_readers_reject_text_after_an_empty_edge_list():
    cs = G.VertexClassSet([("V1", 3), ("V2", 3)])
    empty = G.kgraph_to_text(G.KPartiteKGraph(cs, np.empty((0, 2), dtype=np.int64)))
    assert empty.endswith("edges 0\n" + "0" * 16 + "\n")
    for bad in (empty + "0 0\n", empty + "\n", empty[:-1], empty.replace("k 2", "k 1")):
        with pytest.raises(ValueError):
            G.kgraph_from_text(bad)


def test_kgraph_text_reader_refuses_sizes_of_2_to_the_63():
    text = "kgraph v2\nk 2\nclass A 2147483648\nclass B 4294967296\nedges 0\n00\n"
    with pytest.raises(ValueError, match="2\\^63"):
        G.kgraph_from_text(text)


def test_kgraph_text_reader_checks_the_body_length_before_allocating():
    """A header of 2^40 bits with a two-digit body is refused from its
    length, with nothing of the 128 GiB row allocated."""
    text = "kgraph v2\nk 2\nclass A 1048576\nclass B 1048576\nedges 0\n00\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"body line of 3 bytes, {16 * 2**34 + 1} expected for {2**40} bits"):
            G.kgraph_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
