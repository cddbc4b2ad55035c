"""Vertex partitions, approximate refinement, polyads and layered partitions.

A layered partition (``KPartition``) carries a vertex layer plus, for each
arity r >= 2, a partition of the complete multipartite r-graph over the
vertex cells, where each r-layer cell sits inside the clique set of a unique
polyad of the layer below.  Everything is validated eagerly: invalid layer
data is a construction error.

Approximate refinement: a cell S sits beta-inside T when |S \\ T| < beta|S|
(containment with |S \\ T| = 0 counts at every beta, so that exact
refinements qualify at beta = 0).  Verdicts compare exactly, in rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .graphs import KPartiteKGraph, VertexClassSet, _digit_runs, _write_tokens


class VertexPartition:
    """Partition of {0..n-1} (or of an abstract index set) into cells.

    Cells are canonically ordered by their smallest element.  A partition
    keeps its ids as one flat array in canonical order plus the cell sizes;
    ``cells`` splits them into one array per cell on first use.
    """

    def __init__(self, n: int, cells):
        arrs = [np.asarray(c, dtype=np.int64).ravel() for c in cells]
        sizes = np.fromiter((a.size for a in arrs), dtype=np.int64, count=len(arrs))
        flat = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.int64)
        self._set_cells(n, flat, sizes)

    def _set_cells(self, n: int, flat: np.ndarray, sizes: np.ndarray):
        """Normalise and check cells given as one flat array of ids plus the
        cell sizes.  The checks see every cell at once but report what a scan
        in canonical order reports first: out of range or overlapping an
        earlier cell, then a gap.  Cells already in canonical form skip the
        sorts."""
        k = sizes.size
        if np.any(sizes == 0):
            raise ValueError("empty cell")
        cid = np.repeat(np.arange(k), sizes)
        owner = _canonical_owner(n, flat, sizes, cid)
        if owner is None:
            order = np.lexsort((flat, cid))
            flat, cid = flat[order], cid[order]
            keep = np.ones(flat.size, dtype=bool)
            keep[1:] = (flat[1:] != flat[:-1]) | (cid[1:] != cid[:-1])
            flat, cid = flat[keep], cid[keep]
            sizes = np.bincount(cid, minlength=k)
            ends = np.cumsum(sizes)
            lo, hi = flat[ends - sizes], flat[ends - 1]
            canon = np.argsort(lo, kind="stable")
            rank = np.empty(k, dtype=np.int64)
            rank[canon] = np.arange(k)
            erank = rank[cid]
            by_id = np.lexsort((erank, flat))
            overlap = np.zeros(k, dtype=bool)
            overlap[erank[by_id[1:]][flat[by_id[1:]] == flat[by_id[:-1]]]] = True
            out_of_range = ((lo < 0) | (hi >= n))[canon]
            failed = np.flatnonzero(out_of_range | overlap)
            if failed.size:
                raise ValueError("cell element out of range" if out_of_range[failed[0]] else "cells are not disjoint")
            if flat.size != n:
                raise ValueError("cells do not cover the ground set")
            owner = np.empty(n, dtype=np.int64)
            owner[flat] = erank
            flat, sizes = flat[np.argsort(erank, kind="stable")], sizes[canon]
        self.n = n
        self._flat, self._sizes = flat, sizes
        self.owner = owner
        self.owner.setflags(write=False)

    @cached_property
    def cells(self) -> list:
        """The cells as int64 arrays of increasing ids, views of the flat ids."""
        return _split_flat(self._flat, self._sizes)

    @staticmethod
    def blocks(n: int, num_cells: int) -> "VertexPartition":
        """Equitable partition into contiguous index blocks."""
        if n % num_cells:
            raise ValueError(f"{n} vertices cannot split into {num_cells} equal cells")
        w = n // num_cells
        self = VertexPartition.__new__(VertexPartition)
        self.n = n
        self._flat, self._sizes = np.arange(n, dtype=np.int64), np.full(num_cells, w, dtype=np.int64)
        self.owner = np.repeat(np.arange(num_cells, dtype=np.int64), w)
        self.owner.setflags(write=False)
        return self

    @staticmethod
    def singletons(n: int) -> "VertexPartition":
        return VertexPartition.blocks(n, n)

    def __len__(self):
        return self._sizes.size

    def cell_sizes(self) -> np.ndarray:
        """The cell sizes, int64 and read-only, indexed as ``owner`` numbers
        the cells."""
        sizes = self._sizes.view()
        sizes.flags.writeable = False
        return sizes

    def is_equitable(self) -> bool:
        sizes = self.cell_sizes()
        return sizes.size > 0 and bool(sizes.min() == sizes.max())

    def cell_of(self, v: int) -> int:
        return int(self.owner[v])

    def __eq__(self, other):
        return isinstance(other, VertexPartition) and self.n == other.n and np.array_equal(self.owner, other.owner)

    def to_text(self) -> str:
        """One line per cell, its ids in decimal joined by single spaces."""
        if not len(self):
            return "\n"
        seps = np.full(self._flat.size, ord(" "), dtype=np.uint8)
        seps[np.cumsum(self._sizes) - 1] = ord("\n")
        return _write_tokens(self._flat, seps).decode("ascii")

    @staticmethod
    def from_text(n: int, text: str) -> "VertexPartition":
        """One cell per non-blank line; ids in decimal, each with an optional
        '-' (read as negative, so out of range), separated by the bytes
        ``str.split()`` treats as whitespace.  Any other text raises
        ValueError."""
        if not text.isascii():
            raise ValueError("partition text is not ASCII")
        b = np.frombuffer(f" {text} ".encode("ascii"), dtype=np.uint8)
        starts, ends, vals = _digit_runs(b)
        sign = b[starts - 1] == ord("-")
        # every byte is whitespace, a digit or the sign of the run after it,
        # and whitespace follows each run: so every token is [-]digits
        digits = int(ends.sum() - starts.sum())
        if np.count_nonzero(_ASCII_SPACE[b]) + digits + np.count_nonzero(sign) != b.size or not _ASCII_SPACE[b[ends]].all():
            raise ValueError("partition text: a token is not a decimal id")
        if np.any(vals < 0):
            raise ValueError("partition text: an id of more than 18 digits")
        sizes = np.bincount(np.searchsorted(np.flatnonzero(b == ord("\n")), starts))
        self = VertexPartition.__new__(VertexPartition)
        self._set_cells(n, np.where(sign, -vals, vals), sizes[sizes > 0])
        return self


def _canonical_owner(n: int, flat: np.ndarray, sizes: np.ndarray, cid: np.ndarray):
    """The owner array of cells that already are a partition of {0..n-1} in
    canonical form (ids in [0, n) increasing within each cell, cells in
    order of their first ids, each id once), else None."""
    if flat.size != n or n == 0 or flat.min() < 0 or flat.max() >= n:
        return None
    first = np.cumsum(sizes) - sizes
    step = np.diff(flat) > 0
    step[first[1:] - 1] = np.diff(flat[first]) > 0  # each cell starts above the previous cell's start
    if not step.all():
        return None
    owner = np.full(n, -1, dtype=np.int64)
    owner[flat] = cid
    return None if np.any(owner < 0) else owner  # n ids in range miss one only if one repeats


# the bytes str.split() treats as whitespace in ASCII text
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def _split_flat(flat: np.ndarray, sizes: np.ndarray) -> list:
    """flat cut into consecutive pieces of the given sizes, as views; pieces
    may be empty."""
    if sizes.size and sizes[0] and np.all(sizes == sizes[0]):
        return list(flat.reshape(sizes.size, -1))
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    return list(map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:])))


@dataclass
class RefinementReport:
    beta: Fraction
    assignment: list          # per Q-cell: host P-cell index, or -1
    mass_unassigned: int
    ground: int

    @property
    def verdict(self) -> bool:
        return self.mass_unassigned * 1 <= self.beta * self.ground


def ceil_share(sizes: np.ndarray, beta) -> np.ndarray:
    """ceil(beta * s) for every size s, clipped to s + 1, in Python integers
    once per distinct size (no float, no int64 product)."""
    beta = Fraction(beta)
    usz, inv = np.unique(sizes, return_inverse=True)
    share = [min(-(-beta.numerator * s // beta.denominator), s + 1) for s in usz.tolist()]
    return np.array(share, dtype=np.int64)[inv]


def cell_hosts(cid: np.ndarray, label: np.ndarray, beta) -> tuple:
    """Hosts of cells given element by element: element j lies in cell
    ``cid[j]`` and sits in cluster ``label[j]``.  Cells are numbered 0..C-1,
    none is empty, and they may be a whole partition or any disjoint cells;
    labels are non-negative.  Returns, per cell: its host, the label holding
    most of the cell (the smallest label on ties); the overlap with the host;
    and whether the cell is beta-inside its host (|S \\ host| is 0 or below
    beta|S|).  The host leaves the least of a cell outside, so a cell is
    beta-inside some label exactly when it is beta-inside its host."""
    cid, label = np.asarray(cid, dtype=np.int64), np.asarray(label, dtype=np.int64)
    if cid.size == 0:
        return cid, cid, np.zeros(0, dtype=bool)
    num, width = int(cid.max()) + 1, int(label.max()) + 1
    if num * width >= 1 << 63:
        raise ValueError("too many cells and labels for int64 pair keys")
    pair, mass = np.unique(cid * width + label, return_counts=True)
    cell = pair // width
    start = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    if start.size != num:
        raise ValueError("empty cell")
    # pairs run by cell, labels ascending: the first largest mass of each cell
    best = np.flatnonzero(mass == np.maximum.reduceat(mass, start)[cell])
    best = best[np.r_[True, cell[best[1:]] != cell[best[:-1]]]]
    sizes, overlap = np.bincount(cid), mass[best]
    return pair[best] % width, overlap, sizes - overlap < np.maximum(ceil_share(sizes, beta), 1)


def refines_beta(Q: VertexPartition, P: VertexPartition, beta) -> RefinementReport:
    """Approximate refinement test.

    The verdict is sum of |Q-cell| over cells with no beta-host <= beta*n.
    beta <= 1/2 is required so that hosts are unique.
    """
    beta = Fraction(beta)
    if Q.n != P.n:
        raise ValueError("partitions live on different ground sets")
    if beta > Fraction(1, 2):
        raise ValueError("approximate refinement requires beta <= 1/2")
    host, _, inside = cell_hosts(Q.owner, P.owner, beta)
    mass = int(Q.cell_sizes()[~inside].sum())
    return RefinementReport(beta=beta, assignment=np.where(inside, host, -1).tolist(), mass_unassigned=mass, ground=Q.n)


def cross_k(P: VertexPartition, r: int, cap: int = 2_000_000) -> np.ndarray:
    """All r-subsets of the ground set meeting r distinct cells, as a sorted
    (m, r) array of vertex indices: the product of the cells of each r-set
    of cells.  More than ``cap`` of them raise ValueError before any is
    built."""
    if r < 2:
        raise ValueError("arity must be at least 2")
    if r > len(P):
        raise ValueError("arity exceeds the number of cells")
    # count[j]: the j-subsets meeting j distinct cells among the cells so far
    count = [1] + [0] * r
    for cell in P.cells:
        for j in range(r, 0, -1):
            count[j] += count[j - 1] * len(cell)
    if count[r] > cap:
        raise ValueError("cross family exceeds cap")
    out = np.concatenate(
        [np.stack(np.meshgrid(*cells, indexing="ij"), axis=-1).reshape(-1, r) for cells in itertools.combinations(P.cells, r)]
    )
    out.sort(axis=1)
    return out[np.lexsort(out.T[::-1])]


class Polyad:
    """Arity-r polyad: for r >= 3 an r-tuple of (r-1)-partite (r-1)-graphs
    (part i omitting class i); for r = 2 a pair of disjoint vertex sets."""

    def __init__(self, r: int, classes: VertexClassSet, parts):
        self.r = r
        self.classes = classes
        self.parts = parts
        if r == 2:
            a, b = parts
            self.vertex_sets = (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        else:
            if len(parts) != r:
                raise ValueError("polyad needs one part per omitted class")
            for i, p in enumerate(parts):
                if p.k != r - 1:
                    raise ValueError("parts must be (r-1)-graphs")

    @staticmethod
    def pair(a, b, sizes=None) -> "Polyad":
        """Arity-2 polyad on two vertex subsets; ``sizes`` fixes the ambient
        class sizes so clique sets line up with a host hypergraph."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if sizes is None:
            sizes = (max(1, (int(a.max()) + 1) if a.size else 1), max(1, (int(b.max()) + 1) if b.size else 1))
        cs = VertexClassSet([("A", sizes[0]), ("B", sizes[1])])
        return Polyad(2, cs, (a, b))


def clique_set(P: Polyad) -> KPartiteKGraph:
    """All r-tuples spanning a complete pattern in the polyad.

    For r = 2 this is the complete bipartite graph on the pair; for r = 3,
    the triangles of the tripartite graph.
    """
    if P.r == 2:
        a, b = P.vertex_sets
        edges = np.array([(int(u), int(v)) for u in a for v in b], dtype=np.int64).reshape(-1, 2)
        return KPartiteKGraph(P.classes, edges)
    r = P.r
    # classes: part r (omitting class r) lives on classes 1..r-1 in order.
    classes = _polyad_classes(P)
    base = P.parts[r - 1]  # the part omitting the last class
    last = classes.classes[r - 1]
    # candidate tuples: edges of base x last-class vertices, filtered through
    # membership in every other part.
    member = [_edge_key_set(P.parts[i]) for i in range(r - 1)]
    out = []
    for e in base.edges():
        for v in range(last.size):
            ok = True
            full = list(e) + [v]
            for i in range(r - 1):
                sub = tuple(full[j] for j in range(r) if j != i)
                if sub not in member[i]:
                    ok = False
                    break
            if ok:
                out.append(full)
    return KPartiteKGraph(classes, np.array(out, dtype=np.int64).reshape(-1, r))


def _polyad_classes(P: Polyad) -> VertexClassSet:
    """Reconstruct the r vertex classes from the parts' class lists."""
    r = P.r
    # part r-1 omits class r-1: it carries classes 0..r-2; part 0 carries 1..r-1.
    first = P.parts[r - 1].classes.classes
    lastc = P.parts[0].classes.classes[-1]
    return VertexClassSet([(c.name, c.size) for c in first] + [(lastc.name, lastc.size)])


def _edge_key_set(h: KPartiteKGraph) -> set:
    return {tuple(int(x) for x in row) for row in h.edges()}


class KPartition:
    """Layered partition: vertex cells plus partitions of each cross-arity
    edge universe, each layer-r cell under a unique layer-(r-1) polyad.

    ``layers[r]`` (r >= 2) is a list of cells; each cell is a sorted (m, r)
    array of vertex tuples ordered by class.  Validation checks the layer
    partitions the cross family and computes the under-map.
    """

    def __init__(self, classes: VertexClassSet, vertex_cells: VertexPartition, layers: dict | None = None):
        self.classes = classes
        self.vertex = vertex_cells
        if vertex_cells.n != classes.total:
            raise ValueError("vertex partition does not match the class set")
        self.layers = {r: [np.asarray(c, dtype=np.int64).reshape(-1, r) for c in cells] for r, cells in (layers or {}).items()}
        self.k = max(self.layers) if self.layers else 1
        self.under_map = {}
        self._cell_lookup = {}
        self._validate()

    def _validate(self):
        # vertex cells must respect class boundaries for the layered ops used here
        for r in sorted(self.layers):
            if r < 2:
                raise ValueError("layer arities start at 2")
            if r > 2 and (r - 1) not in self.layers:
                raise ValueError("layers must be contiguous from 2 upward")
        for r in sorted(self.layers):
            cells = self.layers[r]
            seen = {}
            for ci, cell in enumerate(cells):
                if cell.shape[0] == 0:
                    raise ValueError("empty layer cell")
                for row in cell:
                    key = tuple(int(x) for x in row)
                    if tuple(sorted(key)) != key:
                        # rows are stored sorted by vertex index
                        raise ValueError("layer tuples must be sorted")
                    if key in seen:
                        raise ValueError("layer cells overlap")
                    seen[key] = ci
            universe = cross_k(self.vertex, r)
            if len(seen) != len(universe):
                raise ValueError(f"layer {r} does not cover the arity-{r} cross family")
            for row in universe:
                if tuple(int(x) for x in row) not in seen:
                    raise ValueError(f"layer {r} misses a cross tuple")
            self._cell_lookup[r] = seen
        # under-map: every layer-r cell must sit inside the clique set of a
        # unique polyad of the layer below; the polyad is found by profiling.
        for r in sorted(self.layers):
            unders = []
            for ci, cell in enumerate(self.layers[r]):
                unders.append(self._under_of_cell(r, ci))
            self.under_map[r] = unders
        # the layer must refine the clique sets: cells with the same polyad
        # profile are fine; a cell spanning two polyads is rejected above.

    def _under_of_cell(self, r: int, ci: int):
        """Profile of the unique polyad under cell ci of layer r.

        For r = 2 the polyad is the pair of vertex cells.  For r >= 3 it is
        the r-tuple of layer-(r-1) cell indices obtained by dropping each
        coordinate; consistency across the cell is required.
        """
        cell = self.layers[r][ci]
        if r == 2:
            profile = (self.vertex.cell_of(int(cell[0, 0])), self.vertex.cell_of(int(cell[0, 1])))
            for row in cell:
                p = (self.vertex.cell_of(int(row[0])), self.vertex.cell_of(int(row[1])))
                if p != profile:
                    raise ValueError("2-layer cell spans several vertex-cell pairs")
            return profile
        lookup = self._cell_lookup[r - 1]
        profiles = None
        for row in cell:
            prof = []
            for drop in range(r):
                sub = tuple(int(row[j]) for j in range(r) if j != drop)
                if sub not in lookup:
                    raise ValueError("sub-tuple missing from the layer below")
                prof.append(lookup[sub])
            prof = tuple(prof)
            if profiles is None:
                profiles = prof
            elif profiles != prof:
                raise ValueError("layer cell is not inside a single polyad")
        return profiles

    def under(self, r: int, ci: int):
        return self.under_map[r][ci]

    def layer(self, r: int) -> list:
        """The cells of layer r, refused with ValueError when the partition
        has no such layer."""
        if r not in self.layers:
            raise ValueError(f"the layered partition has no layer {r}")
        return self.layers[r]


def complete_kpartition(classes: VertexClassSet, cells_per_class: int, depth: int) -> KPartition:
    """Layered partition whose layer cells are whole clique sets (complete
    multipartite pieces): vertex layer is an equitable block split of each
    class; each higher layer groups tuples by their cell profile."""
    vcells = []
    for c in classes.classes:
        if c.size % cells_per_class:
            raise ValueError("classes must split equally")
        w = c.size // cells_per_class
        for i in range(cells_per_class):
            vcells.append(np.arange(c.offset + i * w, c.offset + (i + 1) * w))
    vp = VertexPartition(classes.total, vcells)
    layers = {}
    for r in range(2, depth + 1):
        universe = cross_k(vp, r)
        groups = {}
        for row in universe:
            key = tuple(sorted(vp.cell_of(int(x)) for x in row))
            groups.setdefault(key, []).append(tuple(int(x) for x in row))
        layers[r] = [np.array(sorted(g), dtype=np.int64) for _, g in sorted(groups.items())]
    return KPartition(classes, vp, layers)
