"""Bipartite graphs and k-partite k-graphs with exact counting primitives.

Bipartite adjacency is one packed row per left vertex, in the format that
``deltareg._kernels`` defines and owns.  A k-graph's edges are kept once, as
the sorted mixed-radix codes of their tuples, and stored as one packed row
with bit c set for each code c: the binary container and the text format
share that body, the text one in hex after its header lines.  All densities
are exact ``fractions.Fraction`` values; no verdict in this package ever
goes through floating point.
"""

from __future__ import annotations

import binascii
import hashlib
import math
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
    def of(factors):
        factors = tuple(factors)
        size = 1
        for f in factors:
            size *= f.size
        return ProductClass(name="x".join(f.name for f in factors), size=size, factors=factors)

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
        """(m, k) tuples of the codes idx, as a fresh array."""
        rest = np.asarray(idx, dtype=np.int64)
        out = np.empty((rest.size, len(self.factors)), dtype=np.int64)
        for j in range(len(self.factors) - 1, 0, -1):
            rest, out[:, j] = np.divmod(rest, self.factors[j].size)
        out[:, 0] = rest
        return out

    def encode_array(self, tuples: np.ndarray) -> np.ndarray:
        """Codes of (m, k) tuples; a vertex outside its factor is refused."""
        _check_code_range([f.size for f in self.factors])
        tuples = np.asarray(tuples, dtype=np.int64)
        idx = np.zeros(len(tuples), dtype=np.int64)
        for j, f in enumerate(self.factors):
            col = tuples[:, j]
            if col.size and (col.min() < 0 or col.max() >= f.size):
                raise ValueError(f"edge vertex out of range in class {f.name}")
            idx *= f.size
            idx += col
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


def _check_code_range(sizes) -> None:
    """Mixed-radix codes are int64: the product of the sizes must stay below
    2^63, or codes would wrap, sort wrongly and collide."""
    if math.prod(sizes) >= 1 << 63:
        raise ValueError(f"class sizes {'x'.join(map(str, sizes))} have 2^63 or more tuples; int64 codes would wrap")


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
        """The transpose, computed once.  It keeps this graph's rows, not
        this graph, so the two make no reference cycle and each is freed as
        soon as nothing holds it; its own transpose is a new graph on those
        rows."""
        if not isinstance(self._transposed, BipartiteGraph):
            rows = transpose_bits(self.rows, self.right.size) if self._transposed is None else self._transposed
            t = BipartiteGraph(self.right, self.left, rows)
            t._transposed = self.rows
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


def codegree(g: BipartiteGraph, v: int, w: int) -> int:
    """|N(v) & N(w)| for two left vertices."""
    return int(_kernels.and_popcount_pairs(g.rows, np.array([[v, w]], dtype=np.int64))[0])


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


class KPartiteKGraph:
    """k-partite k-uniform hypergraph; one vertex per class per edge.

    The edges are kept once, as ``encoded``: the read-only, strictly
    increasing int64 codes of their tuples in ``product``, the product of
    the classes.  ``edges()`` decodes the tuples on demand."""

    def __init__(self, classes: VertexClassSet, edges):
        """Edges as k-tuples in any order; a vertex outside its class and a
        repeated edge are refused with ValueError."""
        codes = np.sort(ProductClass.of(classes.classes).encode_array(np.asarray(edges, dtype=np.int64).reshape(-1, len(classes))))
        if np.any(codes[1:] == codes[:-1]):
            raise ValueError("duplicate edges")
        self._store(classes, codes)

    @classmethod
    def from_codes(cls, classes: VertexClassSet, codes) -> "KPartiteKGraph":
        """The k-graph whose edges have the given codes, which must be
        strictly increasing and in [0, product of the class sizes); the
        codes are copied."""
        h = cls.__new__(cls)
        h._store(classes, np.array(codes, dtype=np.int64).reshape(-1))
        return h

    def _store(self, classes: VertexClassSet, codes: np.ndarray):
        """The one storing path; ``codes`` is a fresh array, owned here."""
        self.k = len(classes)
        if self.k < 2:
            raise ValueError("uniformity must be at least 2")
        _check_code_range(classes.sizes())
        self.classes = classes
        self.product = ProductClass.of(classes.classes)
        if np.any(codes[1:] <= codes[:-1]):
            raise ValueError("edges not in strictly increasing order")
        if codes.size and (codes[0] < 0 or codes[-1] >= self.product.size):
            raise ValueError("edge code out of range")
        self.encoded = codes
        self.encoded.setflags(write=False)

    def edges(self) -> np.ndarray:
        """Edges as a fresh (m, k) int64 array of tuples, in code order."""
        return self.product.decode_array(self.encoded)

    def edge_count(self) -> int:
        return len(self.encoded)

    def density(self) -> Fraction:
        return Fraction(self.edge_count(), self.product.size)

    def contains(self, tup) -> bool:
        code = self.product.encode(tup)
        pos = np.searchsorted(self.encoded, code)
        return pos < len(self.encoded) and self.encoded[pos] == code

    def __eq__(self, other):
        """Same class names, class sizes and edges."""
        return (
            isinstance(other, KPartiteKGraph)
            and [(c.name, c.size) for c in self.classes.classes] == [(c.name, c.size) for c in other.classes.classes]
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
    # a code is (hi * |V_i| + x) * low + lo, with low the product of the
    # sizes after the axis; the tuple of the other classes encodes to
    # hi * low + lo
    low = math.prod(h.classes.sizes()[axis:])
    hi, rest = np.divmod(h.encoded, right.size * low)
    x, lo = np.divmod(rest, low)
    hi *= low
    hi += lo
    rows = _kernels.zero_rows(product.size, right.size)
    _kernels.set_bits(rows, hi, x)
    g = BipartiteGraph(VertexClass(product.name, product.size), VertexClass(right.name, right.size), rows)
    return AuxGraphView(source=h, axis=axis, product=product, graph=g)


def lift_graph_to_kgraph(g: BipartiteGraph, product: ProductClass, right_class=None) -> KPartiteKGraph:
    """Inverse of the axis-k view: a bipartite graph on (product, V_k) lifts
    to the k-graph whose axis-k view is edge-identical to g.  Bit (u, v) is
    the edge whose first k-1 entries encode to u, so its code is
    u * |V_k| + v, and the row-major bit order is the code order."""
    right_class = right_class or g.right
    if product.size != g.left.size or right_class.size != g.right.size:
        raise ValueError("class sizes do not match the graph")
    classes = VertexClassSet(list(product.factors) + [VertexClass(right_class.name, right_class.size)])
    u, v = _kernels.nonzero_bits(g.rows)
    u *= g.right.size
    u += v
    return KPartiteKGraph.from_codes(classes, u)


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


def _unpack(fmt: str, data: bytes, off: int) -> tuple:
    """``struct.unpack_from`` that refuses data too short for fmt with a
    ValueError, as every other malformed container is refused."""
    if len(data) < off + struct.calcsize(fmt):
        raise ValueError("truncated binary container")
    return struct.unpack_from(fmt, data, off)


def bipartite_to_binary(g: BipartiteGraph) -> bytes:
    head = struct.pack("<4sHII", _MAGIC, 1, g.left.size, g.right.size)
    names = f"{g.left.name}\n{g.right.name}\n".encode()
    return head + struct.pack("<I", len(names)) + names + g.rows.tobytes()


def bipartite_from_binary(data: bytes) -> BipartiteGraph:
    magic, ver, nl, nr = _unpack("<4sHII", data, 0)
    if magic != _MAGIC or ver != 1:
        raise ValueError("not a v1 bipartite container")
    off = struct.calcsize("<4sHII")
    (nlen,) = _unpack("<I", data, off)
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
    seps = np.array([ord(" "), ord("\n")], dtype=np.uint8)
    return "\n".join(head) + "\n" + _write_tokens(g.edges(), seps).decode("ascii")


def kgraph_to_text(h: KPartiteKGraph) -> str:
    """The text of h: the header lines, then the body of
    ``kgraph_to_binary`` in lowercase hex on one line."""
    head = ["kgraph v2", f"k {h.k}"]
    head += [f"class {c.name} {c.size}" for c in h.classes.classes]
    head.append(f"edges {h.edge_count()}")
    return "\n".join(head) + "\n" + _packed_row(h).hex() + "\n"


def kgraph_from_text(text: str) -> KPartiteKGraph:
    """Strict inverse of ``kgraph_to_text``; raises ValueError on any other
    text.  The body length is checked before anything is allocated."""
    data = text.encode("ascii")
    line, pos = _text_line(data, 0)
    if line == "kgraph v1":
        raise ValueError("kgraph v1 is the old decimal text format; rebuild the artifact with build-hypergraph")
    if line != "kgraph v2":
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
    sizes = [size for _, size in classes]
    _check_code_range(sizes)
    n = math.prod(sizes)
    expected = 16 * _kernels.row_words(n) + 1
    if len(data) - pos != expected:
        raise ValueError(f"body line of {len(data) - pos} bytes, {expected} expected for {n} bits")
    if data[-1:] != b"\n":
        raise ValueError("no newline after the body")
    digits = data[pos:-1]
    body = binascii.unhexlify(digits)
    if body.hex().encode("ascii") != digits:
        raise ValueError("body is not lowercase hex")
    h = _kgraph_from_row(VertexClassSet(classes), body, 0)
    if h.edge_count() != m:
        raise ValueError(f"body holds {h.edge_count()} edges, header says {m}")
    return h


_KMAGIC = b"DRKG"
_KHEAD = "<4sHI"  # magic, version, k; then k uint64 class sizes and the uint32 names length


def _packed_row(h: KPartiteKGraph) -> bytes:
    """The one k-graph body: N = product of the sizes bits, bit c set for
    each edge code c, as little-endian uint64 words."""
    return pack_indices(h.encoded, h.product.size).astype("<u8").tobytes()


def _kgraph_from_row(classes: VertexClassSet, data: bytes, off: int) -> KPartiteKGraph:
    """The k-graph on classes whose ``_packed_row`` is data[off:]; raises
    ValueError on a body of another length or with a bit set past N."""
    n = math.prod(classes.sizes())
    words = _kernels.row_words(n)
    if len(data) - off != 8 * words:
        raise ValueError(f"body of {len(data) - off} bytes, {8 * words} expected for {n} bits")
    row = np.frombuffer(data, dtype="<u8", count=words, offset=off).astype(np.uint64)
    if _kernels.stray_bits(row, n):
        raise ValueError(f"stray bits at or past bit {n}")
    return KPartiteKGraph.from_codes(classes, unpack_row(row, n))


def kgraph_to_binary(h: KPartiteKGraph) -> bytes:
    """The binary container of h: a little-endian header (magic, version 1,
    k, the k class sizes), the class names, one per line, after their byte
    length, and the ``_packed_row`` of h."""
    names = [c.name for c in h.classes.classes]
    if not all(names) or any("\n" in name for name in names):
        raise ValueError("class names must be non-empty and hold no newline")
    block = "".join(f"{name}\n" for name in names).encode()
    head = struct.pack(f"{_KHEAD}{h.k}QI", _KMAGIC, 1, h.k, *h.classes.sizes(), len(block))
    return head + block + _packed_row(h)


def kgraph_from_binary(data: bytes) -> KPartiteKGraph:
    """Strict inverse of ``kgraph_to_binary``; raises ValueError on any
    other bytes.  The body length is checked before anything is
    allocated."""
    magic, ver, k = _unpack(_KHEAD, data, 0)
    if magic != _KMAGIC or ver != 1:
        raise ValueError("not a v1 k-graph container")
    if k < 2:
        raise ValueError("uniformity must be at least 2")
    off = struct.calcsize(_KHEAD)
    sizes_fmt = f"<{k}QI"
    *sizes, nlen = _unpack(sizes_fmt, data, off)
    _check_code_range(sizes)
    off += struct.calcsize(sizes_fmt)
    block = data[off : off + nlen]
    names = block.decode().split("\n")
    if len(block) != nlen or len(names) != k + 1 or names[-1] or not all(names[:-1]):
        raise ValueError(f"bad class names block: {k} names expected")
    return _kgraph_from_row(VertexClassSet(zip(names, sizes)), data, off + nlen)


# -- decimal text: the one reader and writer of the package -----------------
#
# Every text artifact writes its numbers through ``_write_tokens`` and reads
# them through ``_digit_runs``: partition files and certificates.  A k-graph
# file holds no decimal body; its edges are the hex of its packed row.  The
# writer works on fixed blocks, so its digit buffers stay a few MB however
# long the text is.

_CHUNK_ROWS = 1 << 16
_MAX_DIGITS = 18  # 10^18 - 1 < 2^63: a field never wraps in int64
_SWAR_SHIFT = np.array([64 - 8 * w if w <= 8 else 0 for w in range(_MAX_DIGITS + 1)], dtype=np.uint64)


def _write_tokens(vals: np.ndarray, seps: np.ndarray) -> bytes:
    """The one decimal writer.  Each number of ``vals`` in decimal without
    leading zeros, followed by its byte of ``seps``, which is never 0.
    Every number is non-negative and below 10^18.  ``vals`` is one stream
    of numbers, or rows whose ``seps`` are given per column.  Blocks of
    ``_CHUNK_ROWS`` rows keep the buffers a few MB."""
    parts = []
    for r0 in range(0, len(vals), _CHUNK_ROWS):
        rows = vals[r0 : r0 + _CHUNK_ROWS].shape
        v = vals[r0 : r0 + _CHUNK_ROWS].ravel()
        width = len(str(int(v.max(initial=0))))
        rest = v.astype(np.uint32) if width < 10 else v  # uint32 divides three times faster than int64
        # one column per number, so that every digit place is one contiguous
        # row; digits from the last, and a number has one digit more for
        # each division that leaves a non-zero quotient
        buf = np.empty((width + 1, v.size), dtype=np.uint8)
        ndig = np.ones(v.size, dtype=np.int8)
        for j in range(width - 1, -1, -1):
            rest, buf[j] = np.divmod(rest, 10)
            if j:
                ndig += rest > 0
        buf[:width] += ord("0")
        buf[:width] *= np.arange(width)[:, None] >= width - ndig  # leading zeros become 0 bytes
        buf[width].reshape(rows)[...] = seps if vals.ndim == 2 else seps[r0 : r0 + _CHUNK_ROWS]
        parts.append(buf.T.tobytes().translate(None, b"\0"))
    return b"".join(parts)


def _digit_runs(b: np.ndarray, canonical: bool = False) -> tuple:
    """The one free-form decimal reader.  Start, end (exclusive) and value
    of every maximal run of ASCII digits in b, which begins and ends with a
    non-digit byte.  A run of more than 18 digits gets the value -1, and so,
    when ``canonical``, does a run of more than one digit that starts with
    0."""
    digit = (b - ord("0")) < 10  # bytes below '0' wrap around
    edge = np.flatnonzero(digit[1:] != digit[:-1])
    edge += 1
    starts, ends = edge[0::2], edge[1::2]
    width = ends - starts
    vals = np.full(starts.size, -1, dtype=np.int64)
    # up to 8 digits: the little-endian word at the run's start, its digits
    # moved to the top bytes, combined in pairs, fours and eights (SWAR)
    short = slice(None) if width.max(initial=0) <= 8 else np.flatnonzero(width <= 8)
    words = np.ndarray((b.size,), dtype="<u8", buffer=np.concatenate((b, np.zeros(8, dtype=np.uint8))), strides=(1,))
    d = words[starts[short]] << _SWAR_SHIFT[width[short]]
    d &= np.uint64(0x0F0F0F0F0F0F0F0F)
    for shift, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0x00000000FFFFFFFF)):
        d = (d * np.uint64(10 ** (shift // 8)) + (d >> np.uint64(shift))) & np.uint64(mask)
    vals[short] = d
    for w in range(9, min(int(width.max(initial=0)), _MAX_DIGITS) + 1):
        sel = np.flatnonzero(width == w)
        d = np.lib.stride_tricks.sliding_window_view(b, w)[starts[sel]] - ord("0")
        v = d[:, 0].astype(np.int64)
        for j in range(1, w):
            v = v * 10 + d[:, j]
        vals[sel] = v
    if canonical:
        vals[(width > 1) & (b[starts] == ord("0"))] = -1
    return starts, ends, vals


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
    """A count in ASCII digits, without leading zeros."""
    if not (field.isascii() and field.isdigit()) or (len(field) > 1 and field[0] == "0"):
        raise ValueError(f"bad count {field!r}")
    return int(field)


def graph_hash(g: BipartiteGraph) -> str:
    return hashlib.sha256(bipartite_to_binary(g)).hexdigest()
