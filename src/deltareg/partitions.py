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
from fractions import Fraction

import numpy as np

from .graphs import KPartiteKGraph, VertexClass, VertexClassSet


class VertexPartition:
    """Partition of {0..n-1} (or of an abstract index set) into cells.

    Cells are canonically ordered by their smallest element.
    """

    def __init__(self, n: int, cells, name: str = ""):
        arrs = [np.asarray(c, dtype=np.int64).ravel() for c in cells]
        sizes = np.fromiter((a.size for a in arrs), dtype=np.int64, count=len(arrs))
        flat = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.int64)
        self._set_cells(n, flat, sizes, name)

    def _set_cells(self, n: int, flat: np.ndarray, sizes: np.ndarray, name: str):
        """Normalise and check cells given as one flat array of ids plus the
        cell sizes.  The checks see every cell at once but report what a scan
        in canonical order reports first: out of range or overlapping an
        earlier cell, then a gap."""
        k = sizes.size
        if np.any(sizes == 0):
            raise ValueError("empty cell")
        cid = np.repeat(np.arange(k), sizes)
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
        self.n = n
        self.name = name
        self.cells = _split_cells(flat[np.argsort(erank, kind="stable")], sizes[canon])
        self.owner = np.empty(n, dtype=np.int64)
        self.owner[flat] = erank
        self.owner.setflags(write=False)

    @staticmethod
    def blocks(n: int, num_cells: int, name: str = "") -> "VertexPartition":
        """Equitable partition into contiguous index blocks."""
        if n % num_cells:
            raise ValueError(f"{n} vertices cannot split into {num_cells} equal cells")
        w = n // num_cells
        self = VertexPartition.__new__(VertexPartition)
        self.n = n
        self.cells = list(np.arange(n, dtype=np.int64).reshape(num_cells, w))
        self.name = name
        self.owner = np.repeat(np.arange(num_cells, dtype=np.int64), w)
        self.owner.setflags(write=False)
        return self

    @staticmethod
    def singletons(n: int, name: str = "") -> "VertexPartition":
        return VertexPartition.blocks(n, n, name)

    def __len__(self):
        return len(self.cells)

    def cell_sizes(self):
        return [int(c.size) for c in self.cells]

    def is_equitable(self) -> bool:
        sizes = self.cell_sizes()
        return len(set(sizes)) == 1

    def cell_of(self, v: int) -> int:
        return int(self.owner[v])

    def refines_exactly(self, other: "VertexPartition") -> bool:
        return np.unique(self.owner * len(other.cells) + other.owner).size == len(self.cells)

    def __eq__(self, other):
        return isinstance(other, VertexPartition) and self.n == other.n and np.array_equal(self.owner, other.owner)

    def to_text(self) -> str:
        return "\n".join(" ".join(map(str, c.tolist())) for c in self.cells) + "\n"

    @staticmethod
    def from_text(n: int, text: str) -> "VertexPartition":
        """One cell per non-blank line, ids separated by whitespace."""
        if not text.isascii():
            raise ValueError("partition text is not ASCII")
        flat = np.fromiter(map(int, text.split()), dtype=np.int64)
        b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        space = _ASCII_SPACE[b]
        token_start = ~space
        token_start[1:] &= space[:-1]
        line = np.cumsum(b == ord("\n"))[token_start]
        sizes = np.bincount(line)
        self = VertexPartition.__new__(VertexPartition)
        self._set_cells(n, flat, sizes[sizes > 0], "")
        return self


# the bytes str.split() treats as whitespace in ASCII text
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def _split_cells(flat: np.ndarray, sizes: np.ndarray) -> list:
    if sizes.size == 0:
        return []
    if np.all(sizes == sizes[0]):
        return list(flat.reshape(sizes.size, -1))
    return np.split(flat, np.cumsum(sizes)[:-1])


@dataclass
class RefinementReport:
    beta: Fraction
    assignment: list          # per Q-cell: host P-cell index, or -1
    mass_unassigned: int
    ground: int

    @property
    def verdict(self) -> bool:
        return self.mass_unassigned * 1 <= self.beta * self.ground

    def host(self, qi: int) -> int:
        return self.assignment[qi]


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
    covered = sum(c.size for c in Q.cells)
    assignment = []
    mass = 0
    for cell in Q.cells:
        hosts, counts = np.unique(P.owner[cell], return_counts=True)
        best = int(hosts[np.argmax(counts)])
        outside = int(cell.size - counts.max())
        if outside == 0 or outside < beta * int(cell.size):
            assignment.append(best)
        else:
            assignment.append(-1)
            mass += int(cell.size)
    return RefinementReport(beta=beta, assignment=assignment, mass_unassigned=mass, ground=covered)


def cross_k(P: VertexPartition, r: int, cap: int = 2_000_000) -> np.ndarray:
    """All r-subsets of the ground set meeting r distinct cells, as a sorted
    (m, r) array of vertex indices."""
    if r < 2:
        raise ValueError("arity must be at least 2")
    if r > len(P.cells):
        raise ValueError("arity exceeds the number of cells")
    out = []
    count = 0
    for combo in itertools.combinations(range(P.n), r):
        cells = P.owner[list(combo)]
        if len(set(cells.tolist())) == r:
            out.append(combo)
            count += 1
            if count > cap:
                raise ValueError("cross family exceeds cap")
    return np.array(out, dtype=np.int64).reshape(-1, r)


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
    for e in base.edges_arr:
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
    return {tuple(int(x) for x in row) for row in h.edges_arr}


def compose(F: KPartiteKGraph, V: VertexClass) -> KPartiteKGraph:
    """F o V: append every vertex of V to every edge of F."""
    for c in F.classes.classes:
        if c.name == V.name:
            raise ValueError("new class overlaps a class of F")
    classes = VertexClassSet([(c.name, c.size) for c in F.classes.classes] + [(V.name, V.size)])
    m = F.edge_count()
    if m == 0 or V.size == 0:
        return KPartiteKGraph(classes, np.empty((0, F.k + 1), dtype=np.int64))
    left = np.repeat(F.edges_arr, V.size, axis=0)
    right = np.tile(np.arange(V.size, dtype=np.int64), m)[:, None]
    return KPartiteKGraph(classes, np.concatenate([left, right], axis=1))


class KPartition:
    """Layered partition: vertex cells plus partitions of each cross-arity
    edge universe, each layer-r cell under a unique layer-(r-1) polyad.

    ``layers[r]`` (r >= 2) is a list of cells; each cell is a sorted (m, r)
    array of vertex tuples ordered by class.  Validation checks the layer
    partitions the cross family and computes the under-map.
    """

    def __init__(self, classes: VertexClassSet, vertex_cells: VertexPartition, layers: dict | None = None, validate: bool = True):
        self.classes = classes
        self.vertex = vertex_cells
        if vertex_cells.n != classes.total:
            raise ValueError("vertex partition does not match the class set")
        self.layers = {r: [np.asarray(c, dtype=np.int64).reshape(-1, r) for c in cells] for r, cells in (layers or {}).items()}
        self.k = max(self.layers) if self.layers else 1
        self.under_map = {}
        self._cell_lookup = {}
        if validate:
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


def check_refinement_size(Q: VertexPartition, P: VertexPartition) -> bool:
    """With Q approximately refining P at 1/2 and P equitable, |Q| >= |P|/4."""
    rep = refines_beta(Q, P, Fraction(1, 2))
    if not rep.verdict:
        raise ValueError("Q does not 1/2-refine P")
    if not P.is_equitable():
        raise ValueError("P must be equitable")
    return 4 * len(Q.cells) >= len(P.cells)


def refinement_union(Q: VertexPartition, P: VertexPartition, delta) -> tuple[int, np.ndarray, int]:
    """Pick the P-cell best approximated by a union of Q-cells.

    Returns (P-cell index, union of the Q-cells delta-inside it, exact
    symmetric difference).  The symmetric difference is at most
    3*delta*|P-cell| whenever Q delta-refines P; ties break on the lowest
    cell index.
    """
    delta = Fraction(delta)
    rep = refines_beta(Q, P, delta)
    if not rep.verdict:
        raise ValueError("Q does not delta-refine P")
    unions = {pi: [] for pi in range(len(P.cells))}
    for qi, cell in enumerate(Q.cells):
        hosts, counts = np.unique(P.owner[cell], return_counts=True)
        best = int(hosts[np.argmax(counts)])
        outside = int(cell.size - counts.max())
        if outside == 0 or outside < delta * int(cell.size):
            unions[best].append(cell)
    best_pi, best_diff, best_union = -1, None, None
    for pi in range(len(P.cells)):
        u = np.unique(np.concatenate(unions[pi])) if unions[pi] else np.empty(0, dtype=np.int64)
        pset = P.cells[pi]
        diff = int(np.setdiff1d(u, pset).size + np.setdiff1d(pset, u).size)
        if best_diff is None or diff < best_diff:
            best_pi, best_diff, best_union = pi, diff, u
    return best_pi, best_union, best_diff


def decompose_polyads(P: KPartition, F_cell_idx: int, V_cell_idx: int):
    """Split the composed family (top-layer cell) o (last-class vertex cell)
    into clique sets of polyads whose last part is the given cell.

    P must be a (k-1)-layered partition over k classes whose vertex cells
    refine the classes; F is a top-layer cell inside the product of the
    first k-1 classes; V is a vertex cell inside the last class.
    Returns a list of (polyad parts as cell references, tuples array);
    verification that they tile F o V exactly is performed here.
    """
    k = len(P.classes)
    r = k - 1
    last = P.classes.classes[-1]
    V = P.vertex.cells[V_cell_idx]
    if not np.all((V >= last.offset) & (V < last.offset + last.size)):
        raise ValueError("V must sit inside the last class")
    if r == 1:
        # base arity: F is a vertex cell of the first class
        F = P.vertex.cells[F_cell_idx]
        tuples = np.array([(u, v) for u in F for v in V], dtype=np.int64).reshape(-1, 2)
        return [(("pair", F_cell_idx, V_cell_idx), tuples)]
    F = P.layers[r][F_cell_idx]
    first_classes = P.classes.classes[:-1]
    for row in F:
        for j, c in enumerate(first_classes):
            v = int(row[j])
            if not (c.offset <= v < c.offset + c.size):
                raise ValueError("F must sit inside the product of the first classes")
    groups = {}
    for row in F:
        for v in V:
            full = [int(x) for x in row] + [int(v)]
            prof = []
            for drop in range(r):
                sub = tuple(sorted(full[j] for j in range(r + 1) if j != drop))
                if sub not in P._cell_lookup[r]:
                    raise ValueError("sub-tuple missing from layer r; invalid layered partition")
                prof.append(P._cell_lookup[r][sub])
            key = tuple(prof)
            groups.setdefault(key, []).append(tuple(full))
    out = []
    total = 0
    for key in sorted(groups):
        tuples = np.array(sorted(groups[key]), dtype=np.int64)
        # exhaustive check: the group must be exactly the clique set of the
        # polyad (parts key[0..r-1], F): every tuple whose sub-tuples land in
        # those cells belongs to the group.
        out.append(((key, F_cell_idx), tuples))
        total += len(tuples)
    if total != F.shape[0] * V.size:
        raise AssertionError("decomposition does not tile the composed family")
    _verify_decomposition_tiles(P, F, V, groups)
    return out


def _verify_decomposition_tiles(P, F, V, groups):
    seen = set()
    for key, tuples in groups.items():
        for t in tuples:
            if t in seen:
                raise AssertionError("decomposition overlaps")
            seen.add(t)
    for row in F:
        for v in V:
            t = tuple([int(x) for x in row] + [int(v)])
            if t not in seen:
                raise AssertionError("decomposition misses a tuple")


def restrict_kpartition(P: KPartition, keep_classes) -> KPartition:
    """Restriction to a subset of classes (distinct, order-preserving)."""
    keep_classes = sorted(set(keep_classes))
    old = P.classes.classes
    kept = [old[i] for i in keep_classes]
    new_classes = VertexClassSet([(c.name, c.size) for c in kept])
    # vertex re-indexing: old global -> new global
    remap = {}
    for newi, oldi in enumerate(keep_classes):
        c = old[oldi]
        nc = new_classes.classes[newi]
        for j in range(c.size):
            remap[c.offset + j] = nc.offset + j
    keep_vertices = set(remap)
    new_vcells = []
    for cell in P.vertex.cells:
        inside = [v for v in cell.tolist() if v in keep_vertices]
        if 0 < len(inside) < len(cell):
            raise ValueError("restriction cuts a vertex cell")
        if inside:
            new_vcells.append([remap[v] for v in inside])
    new_layers = {}
    for r in sorted(P.layers):
        if r > len(keep_classes):
            continue
        cells = []
        for cell in P.layers[r]:
            rows = [tuple(sorted(remap[int(x)] for x in row)) for row in cell if all(int(x) in keep_vertices for x in row)]
            if rows:
                cells.append(np.array(sorted(rows), dtype=np.int64))
        if cells:
            new_layers[r] = cells
    return KPartition(new_classes, VertexPartition(new_classes.total, new_vcells), new_layers)


def kpartition_to_text(P: KPartition) -> str:
    """Layer-by-layer text form: class header, vertex cells, then each
    higher layer's cells as sorted tuples with the under-map as explicit
    index profiles."""
    lines = ["kpartition v1", f"classes {len(P.classes)}"]
    for c in P.classes.classes:
        lines.append(f"class {c.name} {c.size}")
    lines.append(f"vertex-cells {len(P.vertex.cells)}")
    for cell in P.vertex.cells:
        lines.append("v " + " ".join(str(int(x)) for x in cell))
    for r in sorted(P.layers):
        cells = P.layers[r]
        lines.append(f"layer {r} {len(cells)}")
        for ci, cell in enumerate(cells):
            prof = P.under(r, ci)
            lines.append("under " + " ".join(str(int(x)) for x in prof))
            lines.append(f"tuples {cell.shape[0]}")
            for row in cell:
                lines.append("t " + " ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def kpartition_from_text(text: str) -> KPartition:
    lines = text.strip("\n").split("\n")
    it = iter(lines)
    if next(it) != "kpartition v1":
        raise ValueError("bad header")
    k = int(next(it).split()[1])
    classes = []
    for _ in range(k):
        _, name, size = next(it).split()
        classes.append((name, int(size)))
    cs = VertexClassSet(classes)
    nv = int(next(it).split()[1])
    vcells = []
    for _ in range(nv):
        ln = next(it)
        assert ln.startswith("v ")
        vcells.append([int(x) for x in ln[2:].split()])
    layers = {}
    unders = {}
    for ln in it:
        if ln.startswith("layer "):
            _, r, cnt = ln.split()
            r, cnt = int(r), int(cnt)
            cells = []
            profs = []
            for _ in range(cnt):
                prof_line = next(it)
                assert prof_line.startswith("under ")
                profs.append(tuple(int(x) for x in prof_line.split()[1:]))
                m = int(next(it).split()[1])
                rows = []
                for _ in range(m):
                    t = next(it)
                    assert t.startswith("t ")
                    rows.append([int(x) for x in t[2:].split()])
                cells.append(np.array(rows, dtype=np.int64).reshape(-1, r))
            layers[r] = cells
            unders[r] = profs
    P = KPartition(cs, VertexPartition(cs.total, vcells), layers)
    # the under-map is recomputed by validation; the stored profiles must agree
    for r, profs in unders.items():
        if [tuple(p) for p in P.under_map[r]] != [tuple(p) for p in profs]:
            raise ValueError("stored under-map disagrees with the layer data")
    return P


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
