"""Bipartite graphs and k-partite k-graphs with exact counting primitives.

Bipartite adjacency is one packed row per left vertex, in the format that
``deltareg._kernels`` defines and owns.  k-graph edges are kept as a sorted
array of mixed-radix encoded tuples.  All densities are exact
``fractions.Fraction`` values; no verdict in this package ever goes through
floating point.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from ._kernels import pack_indices, transpose_bits, unpack_row


@dataclass(frozen=True)
class VertexClass:
    """A named contiguous range of vertex indices."""

    name: str
    size: int
    offset: int = 0

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"vertex class {self.name!r} must be non-empty")


@dataclass(frozen=True)
class ProductClass(VertexClass):
    """A vertex class whose elements are tuples over factor classes.

    Elements are mixed-radix encoded, row-major: the last factor varies
    fastest.  Constructions index into product classes exactly like plain
    vertex sets, so the decode table is part of the class.
    """

    factors: tuple = ()

    @staticmethod
    def of(factors, name=None, offset=0):
        factors = tuple(factors)
        size = 1
        for f in factors:
            size *= f.size
        name = name or "x".join(f.name for f in factors)
        return ProductClass(name=name, size=size, offset=offset, factors=factors)

    def encode(self, tup) -> int:
        idx = 0
        for f, v in zip(self.factors, tup):
            if not (0 <= v < f.size):
                raise IndexError(f"vertex {v} out of range for factor {f.name}")
            idx = idx * f.size + int(v)
        return idx

    def decode(self, idx: int):
        out = []
        for f in reversed(self.factors):
            out.append(idx % f.size)
            idx //= f.size
        return tuple(reversed(out))

    def decode_array(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        cols = []
        for f in reversed(self.factors):
            cols.append(idx % f.size)
            idx = idx // f.size
        return np.stack(list(reversed(cols)), axis=1)

    def encode_array(self, tuples: np.ndarray) -> np.ndarray:
        tuples = np.asarray(tuples, dtype=np.int64)
        idx = np.zeros(len(tuples), dtype=np.int64)
        for j, f in enumerate(self.factors):
            idx = idx * f.size + tuples[:, j]
        return idx


class VertexClassSet:
    """Ordered, disjoint, contiguously indexed vertex classes."""

    def __init__(self, classes):
        self.classes = []
        offset = 0
        for c in classes:
            if isinstance(c, VertexClass):
                if c.offset != offset:
                    c = _reoffset(c, offset)
            else:
                name, size = c
                c = VertexClass(name=name, size=size, offset=offset)
            self.classes.append(c)
            offset += c.size
        self.total = offset
        self.by_name = {c.name: c for c in self.classes}
        if len(self.by_name) != len(self.classes):
            raise ValueError("class names must be distinct")

    def __len__(self):
        return len(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def sizes(self):
        return [c.size for c in self.classes]

    def class_of(self, global_idx: int) -> int:
        for i, c in enumerate(self.classes):
            if c.offset <= global_idx < c.offset + c.size:
                return i
        raise IndexError(global_idx)


def _reoffset(c: VertexClass, offset: int) -> VertexClass:
    if isinstance(c, ProductClass):
        return ProductClass(name=c.name, size=c.size, offset=offset, factors=c.factors)
    return VertexClass(name=c.name, size=c.size, offset=offset)


class BipartiteGraph:
    """Immutable bipartite graph on (left, right), bit-packed by left rows."""

    def __init__(self, left: VertexClass, right: VertexClass, rows: np.ndarray):
        words = _kernels.row_words(right.size)
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        if rows.shape != (left.size, words):
            raise ValueError(f"row array shape {rows.shape} != {(left.size, words)}")
        if _kernels.stray_bits(rows, right.size):
            raise ValueError("stray bits beyond the right class")
        self.left = left
        self.right = right
        self.rows = rows
        self.rows.setflags(write=False)
        self._ecount = int(_kernels.popcount_rows(rows).sum())
        self._transposed = None

    @staticmethod
    def from_edges(left, right, edges) -> "BipartiteGraph":
        """Graph with the given (u, v) pairs as edges; a repeated pair is one edge."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = e[:, 0], e[:, 1]
        if e.size and (u.min() < 0 or u.max() >= left.size or v.min() < 0 or v.max() >= right.size):
            raise ValueError("edge vertex out of range")
        rows = _kernels.zero_rows(left.size, right.size)
        _kernels.set_bits(rows, u, v)
        return BipartiteGraph(left, right, rows)

    @staticmethod
    def complete(left, right) -> "BipartiteGraph":
        rows = _kernels.complement_rows(_kernels.zero_rows(left.size, right.size), right.size)
        return BipartiteGraph(left, right, rows)

    @staticmethod
    def empty(left, right) -> "BipartiteGraph":
        return BipartiteGraph(left, right, _kernels.zero_rows(left.size, right.size))

    def edge_count(self) -> int:
        return self._ecount

    def has_edge(self, u: int, v: int) -> bool:
        return _kernels.bit_at(self.rows, u, v)

    def degrees(self) -> np.ndarray:
        return _kernels.popcount_rows(self.rows)

    def neighbors(self, u: int) -> np.ndarray:
        return unpack_row(self.rows[u], self.right.size)

    def edges(self) -> np.ndarray:
        """Edges as an (m, 2) int64 array of (u, v), sorted by u, then v."""
        return np.stack(_kernels.nonzero_bits(self.rows), axis=1)

    def transposed(self) -> "BipartiteGraph":
        if self._transposed is None:
            t = BipartiteGraph(self.right, self.left, transpose_bits(self.rows, self.right.size))
            t._transposed = self
            self._transposed = t
        return self._transposed

    def __eq__(self, other):
        return (
            isinstance(other, BipartiteGraph)
            and self.left.size == other.left.size
            and self.right.size == other.right.size
            and np.array_equal(self.rows, other.rows)
        )

    def __repr__(self):
        return f"BipartiteGraph({self.left.name}:{self.left.size} x {self.right.name}:{self.right.size}, e={self._ecount})"


def density(g: BipartiteGraph) -> Fraction:
    """Exact edge density e(G) / (|A| * |B|)."""
    return Fraction(g.edge_count(), g.left.size * g.right.size)


def codegree(g: BipartiteGraph, v: int, w: int, side: str = "left") -> int:
    """|N(v) & N(w)| for two vertices on the same side."""
    if side == "left":
        return int(_kernels.and_popcount_pairs(g.rows, np.array([[v, w]], dtype=np.int64))[0])
    if side == "right":
        t = g.transposed()
        return int(_kernels.and_popcount_pairs(t.rows, np.array([[v, w]], dtype=np.int64))[0])
    raise ValueError("side must be 'left' or 'right'")


def edges_between(g: BipartiteGraph, S, T) -> int:
    """Exact e(S, T) via masked popcounts."""
    S = np.asarray(S, dtype=np.int64)
    T = np.asarray(T, dtype=np.int64)
    if S.size and (S.min() < 0 or S.max() >= g.left.size):
        raise IndexError("left subset out of range")
    if T.size and (T.min() < 0 or T.max() >= g.right.size):
        raise IndexError("right subset out of range")
    if S.size == 0 or T.size == 0:
        return 0
    mask = pack_indices(T, g.right.size)
    return int(_kernels.masked_degrees(g.rows[S], mask).sum())


def pair_density(g: BipartiteGraph, S, T) -> Fraction:
    """d(S,T); 0 by convention when either side is empty."""
    S = np.asarray(S, dtype=np.int64)
    T = np.asarray(T, dtype=np.int64)
    if S.size == 0 or T.size == 0:
        return Fraction(0)
    return Fraction(edges_between(g, S, T), int(S.size) * int(T.size))


class KPartiteKGraph:
    """k-partite k-uniform hypergraph; one vertex per class per edge."""

    def __init__(self, classes: VertexClassSet, edges: np.ndarray):
        self.k = len(classes)
        if self.k < 2:
            raise ValueError("uniformity must be at least 2")
        self.classes = classes
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, self.k)
        for j, c in enumerate(classes.classes):
            if edges.size and (edges[:, j].min() < 0 or edges[:, j].max() >= c.size):
                raise ValueError(f"edge vertex out of range in class {c.name}")
        enc = self._encode(edges)
        if np.all(enc[1:] > enc[:-1]):
            # canonical input (a lift, a parsed text): already sorted and
            # free of duplicates; the copy keeps the caller's array apart
            edges = edges.copy()
        else:
            order = np.argsort(enc, kind="stable")
            enc = enc[order]
            if np.any(enc[1:] == enc[:-1]):
                raise ValueError("duplicate edges")
            edges = edges[order]
        self.edges_arr = edges
        self.encoded = enc
        self.encoded.setflags(write=False)
        self.edges_arr.setflags(write=False)

    def _encode(self, edges: np.ndarray) -> np.ndarray:
        enc = np.zeros(len(edges), dtype=np.int64)
        for j, c in enumerate(self.classes.classes):
            enc = enc * c.size + edges[:, j]
        return enc

    def edge_count(self) -> int:
        return len(self.encoded)

    def density(self) -> Fraction:
        prod = 1
        for c in self.classes.classes:
            prod *= c.size
        return Fraction(self.edge_count(), prod)

    def contains(self, tup) -> bool:
        enc = 0
        for j, c in enumerate(self.classes.classes):
            enc = enc * c.size + int(tup[j])
        pos = np.searchsorted(self.encoded, enc)
        return pos < len(self.encoded) and self.encoded[pos] == enc

    def __eq__(self, other):
        return (
            isinstance(other, KPartiteKGraph)
            and self.k == other.k
            and self.classes.sizes() == other.classes.sizes()
            and np.array_equal(self.encoded, other.encoded)
        )

    def __repr__(self):
        sizes = "x".join(str(c.size) for c in self.classes.classes)
        return f"KPartiteKGraph(k={self.k}, {sizes}, e={self.edge_count()})"


@dataclass
class AuxGraphView:
    """Bipartite view of a k-graph along one axis.

    Left vertices are (k-1)-tuples over the other classes (a ProductClass);
    an aux edge ((..tuple..), v_i) exists iff the full k-tuple is an edge.
    """

    source: KPartiteKGraph
    axis: int
    product: ProductClass
    graph: BipartiteGraph

    def edge_count(self) -> int:
        return self.graph.edge_count()


def aux_graph(h: KPartiteKGraph, axis: int) -> AuxGraphView:
    """Axis view: 1-based axis per the usual convention."""
    if not (1 <= axis <= h.k):
        raise ValueError(f"axis {axis} out of range 1..{h.k}")
    i = axis - 1
    others = [c for j, c in enumerate(h.classes.classes) if j != i]
    product = ProductClass.of(others)
    right = h.classes.classes[i]
    lefts = product.encode_array(np.delete(h.edges_arr, i, axis=1))
    g = BipartiteGraph.from_edges(
        VertexClass(product.name, product.size),
        VertexClass(right.name, right.size),
        np.stack([lefts, h.edges_arr[:, i]], axis=1),
    )
    return AuxGraphView(source=h, axis=axis, product=product, graph=g)


def lift_graph_to_kgraph(g: BipartiteGraph, product: ProductClass, right_class=None) -> KPartiteKGraph:
    """Inverse of the axis-k view: a bipartite graph on (product, V_k) lifts
    to the k-graph whose axis-k view is edge-identical to g."""
    if product.size != g.left.size:
        raise ValueError("left class size does not match the product class")
    right_class = right_class or VertexClass(g.right.name, g.right.size)
    classes = VertexClassSet(list(product.factors) + [VertexClass(right_class.name, right_class.size)])
    u, v = _kernels.nonzero_bits(g.rows)
    edges = np.concatenate([product.decode_array(u), v[:, None]], axis=1)
    return KPartiteKGraph(classes, edges)


def blowup(g: BipartiteGraph, m: int) -> BipartiteGraph:
    """Replace each vertex by m copies and each edge by a complete m x m block."""
    if m < 1:
        raise ValueError("blowup factor must be at least 1")
    if m == 1:
        return g
    nl, nr = g.left.size * m, g.right.size * m
    bits = _kernels.unpack_rows(g.rows, g.right.size)
    rows = _kernels.pack_rows(np.repeat(np.repeat(bits, m, axis=0), m, axis=1))
    return BipartiteGraph(
        VertexClass(g.left.name, nl), VertexClass(g.right.name, nr), rows
    )


# -- canonical serialization ------------------------------------------------

_MAGIC = b"DRBG"


def bipartite_to_binary(g: BipartiteGraph) -> bytes:
    head = struct.pack("<4sHII", _MAGIC, 1, g.left.size, g.right.size)
    names = f"{g.left.name}\n{g.right.name}\n".encode()
    return head + struct.pack("<I", len(names)) + names + g.rows.tobytes()


def bipartite_from_binary(data: bytes) -> BipartiteGraph:
    magic, ver, nl, nr = struct.unpack_from("<4sHII", data, 0)
    if magic != _MAGIC or ver != 1:
        raise ValueError("not a v1 bipartite container")
    off = struct.calcsize("<4sHII")
    (nlen,) = struct.unpack_from("<I", data, off)
    off += 4
    lname, rname, _ = data[off : off + nlen].decode().split("\n")
    off += nlen
    rows = np.frombuffer(data[off:], dtype=np.uint64).reshape(nl, _kernels.row_words(nr)).copy()
    return BipartiteGraph(VertexClass(lname, nl), VertexClass(rname, nr), rows)


def bipartite_to_text(g: BipartiteGraph) -> str:
    head = [
        "bipartite v1",
        f"left {g.left.name} {g.left.size}",
        f"right {g.right.name} {g.right.size}",
        f"edges {g.edge_count()}",
    ]
    return "\n".join(head) + "\n" + _write_decimal_rows(g.edges())


def bipartite_from_text(text: str) -> BipartiteGraph:
    """Strict inverse of ``bipartite_to_text``; raises ValueError on any
    other text."""
    data = text.encode("ascii")
    line, pos = _text_line(data, 0)
    if line != "bipartite v1":
        raise ValueError("bad header")
    line, pos = _text_line(data, pos)
    lname, nl = _header_fields(line, "left", 2)
    line, pos = _text_line(data, pos)
    rname, nr = _header_fields(line, "right", 2)
    line, pos = _text_line(data, pos)
    m = _header_count(_header_fields(line, "edges", 1)[0])
    edges = _read_decimal_rows(data, pos, m, 2)
    g = BipartiteGraph.from_edges(VertexClass(lname, _header_count(nl)), VertexClass(rname, _header_count(nr)), edges)
    if g.edge_count() != m:
        raise ValueError("duplicate edges")
    return g


_KMAGIC = b"DRKG"


def kgraph_to_binary(h: KPartiteKGraph) -> bytes:
    head = struct.pack("<4sHB", _KMAGIC, 1, h.k)
    names = "\n".join(c.name for c in h.classes.classes).encode() + b"\n"
    sizes = struct.pack(f"<{h.k}I", *[c.size for c in h.classes.classes])
    body = h.edges_arr.astype("<i8").tobytes()
    return head + struct.pack("<I", len(names)) + names + sizes + struct.pack("<Q", h.edge_count()) + body


def kgraph_from_binary(data: bytes) -> KPartiteKGraph:
    magic, ver, k = struct.unpack_from("<4sHB", data, 0)
    if magic != _KMAGIC or ver != 1:
        raise ValueError("not a v1 k-graph container")
    off = struct.calcsize("<4sHB")
    (nlen,) = struct.unpack_from("<I", data, off)
    off += 4
    names = data[off : off + nlen].decode().strip("\n").split("\n")
    off += nlen
    sizes = struct.unpack_from(f"<{k}I", data, off)
    off += 4 * k
    (m,) = struct.unpack_from("<Q", data, off)
    off += 8
    edges = np.frombuffer(data[off:], dtype="<i8").reshape(m, k).astype(np.int64)
    return KPartiteKGraph(VertexClassSet(list(zip(names, sizes))), edges)


def kgraph_to_text(h: KPartiteKGraph) -> str:
    head = ["kgraph v1", f"k {h.k}"]
    head += [f"class {c.name} {c.size}" for c in h.classes.classes]
    head.append(f"edges {h.edge_count()}")
    return "\n".join(head) + "\n" + _write_decimal_rows(h.edges_arr)


def kgraph_from_text(text: str) -> KPartiteKGraph:
    """Strict inverse of ``kgraph_to_text``; raises ValueError on any other
    text."""
    data = text.encode("ascii")
    line, pos = _text_line(data, 0)
    if line != "kgraph v1":
        raise ValueError("bad header")
    line, pos = _text_line(data, pos)
    k = _header_count(_header_fields(line, "k", 1)[0])
    if k < 2:
        raise ValueError("uniformity must be at least 2")
    classes = []
    for _ in range(k):
        line, pos = _text_line(data, pos)
        name, size = _header_fields(line, "class", 2)
        classes.append((name, _header_count(size)))
    line, pos = _text_line(data, pos)
    m = _header_count(_header_fields(line, "edges", 1)[0])
    edges = _read_decimal_rows(data, pos, m, k)
    return KPartiteKGraph(VertexClassSet(classes), edges)


# -- decimal text rows, shared by the text codecs ---------------------------
#
# Both directions work on fixed blocks of rows, so the digit buffers stay a
# few MB however many edges a graph has.

_CHUNK_ROWS = 1 << 16
_MAX_DIGITS = 18  # 10^18 - 1 < 2^63: a field never wraps in int64
_POW10 = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.int64)


def _write_decimal_rows(rows: np.ndarray) -> str:
    """Non-negative integer rows as text: fields in decimal without leading
    zeros, one space between fields, a newline after each row."""
    parts = []
    for r0 in range(0, len(rows), _CHUNK_ROWS):
        v = rows[r0 : r0 + _CHUNK_ROWS]
        ndig = np.maximum(np.searchsorted(_POW10, v, side="right"), 1)
        width = int(ndig.max())
        buf = np.empty(v.shape + (width + 1,), dtype=np.uint8)
        for j in range(width):
            buf[..., width - 1 - j] = v // _POW10[j] % 10 + ord("0")
        buf[..., width] = ord(" ")
        buf[:, -1, width] = ord("\n")
        parts.append(buf[np.arange(width + 1) >= width - ndig[..., None]].tobytes())
    return b"".join(parts).decode("ascii")


def _read_decimal_rows(data: bytes, pos: int, m: int, k: int) -> np.ndarray:
    """Inverse of ``_write_decimal_rows`` on data[pos:], which must be
    exactly m rows of k fields; raises ValueError on any other bytes."""
    buf = np.frombuffer(data, dtype=np.uint8, offset=pos)
    newlines = np.flatnonzero(buf == ord("\n"))
    if len(newlines) < m:
        raise ValueError(f"{len(newlines)} edge lines, header says {m}")
    if len(buf) != (int(newlines[m - 1]) + 1 if m else 0):
        raise ValueError(f"text after the {m} edge lines")
    out = np.empty((m, k), dtype=np.int64)
    start = 0
    for r0 in range(0, m, _CHUNK_ROWS):
        r1 = min(r0 + _CHUNK_ROWS, m)
        stop = int(newlines[r1 - 1]) + 1
        out[r0:r1] = _parse_rows(buf[start:stop], k).reshape(r1 - r0, k)
        start = stop
    return out


def _parse_rows(chunk: np.ndarray, k: int) -> np.ndarray:
    """Fields of whole lines of k decimal fields each, flat in text order."""
    digit = (chunk >= ord("0")) & (chunk <= ord("9"))
    ends = np.flatnonzero(~digit)
    seps = chunk[ends]
    if np.any((seps != ord(" ")) & (seps != ord("\n"))):
        raise ValueError("non-digit byte in an edge line")
    lines = np.count_nonzero(seps == ord("\n"))
    if len(ends) != lines * k or np.any(seps.reshape(lines, k)[:, :-1] != ord(" ")):
        raise ValueError(f"an edge line without exactly {k} fields")
    starts = np.concatenate([[0], ends[:-1] + 1])
    lens = ends - starts
    if lens.min() == 0:
        raise ValueError("empty field in an edge line")
    width = int(lens.max())
    if width > _MAX_DIGITS:
        raise ValueError("field too long in an edge line")
    val = np.zeros(len(ends), dtype=np.int64)
    for j in range(width):
        d = chunk[ends - 1 - j].astype(np.int64) - ord("0")
        val += np.where(lens > j, d * _POW10[j], 0)
    return val


def _text_line(data: bytes, pos: int) -> tuple[str, int]:
    """The header line starting at pos, and the position after it."""
    end = data.find(b"\n", pos)
    if end < 0:
        raise ValueError("truncated header")
    return data[pos:end].decode("ascii"), end + 1


def _header_fields(line: str, key: str, n: int) -> list:
    fields = line.split(" ")
    if len(fields) != n + 1 or fields[0] != key or not all(fields):
        raise ValueError(f"bad {key} line {line!r}")
    return fields[1:]


def _header_count(field: str) -> int:
    if not field.isdigit():
        raise ValueError(f"bad count {field!r}")
    return int(field)


def graph_hash(g: BipartiteGraph) -> str:
    return hashlib.sha256(bipartite_to_binary(g)).hexdigest()
