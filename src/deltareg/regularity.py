"""Half-density subset regularity for bipartite graphs and its layered
hypergraph extensions, with sound edit-distance intervals.

A bipartite graph on (A, B) is delta-regular (pair sense) when every subset
pair (A', B') with |A'| >= delta|A| and |B'| >= delta|B| keeps at least half
the global density: d(A', B') >= d(A, B) / 2.  A vertex partition of the
graph is delta-regular when at most delta * e(G) edge edits make every
cross pair delta-regular.

Every pair decision here ends one of three ways: an exact search pruned by
a row-degree bound, a witness that edges_between recounts, or a refusal
(``CapExceeded``) when the C(n_left, a) left subsets pass the cap
(``DEFAULT_CAP``), however few the search would visit.  Nothing is sampled
and no pair verdict reads "unknown"; a partition is "undecided" only when
its sound edit interval straddles the budget.  The pair checker only
enumerates subsets of the minimal qualifying sizes: removing a
maximum-degree vertex from A' never increases d(A', B'), so the minimum
over all qualifying sizes is attained at the smallest; for each left
subset the engine takes the lowest-degree right vertices, so only the left
subsets are enumerated.
``find_delta_witness`` is a sound but incomplete refuter: a witness it
returns is recounted, and None decides nothing.
Convention: a pair of zero density is regular (the inequality is vacuous);
reports carry a flag when this convention fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import _kernels
from .graphs import BipartiteGraph, VertexClass, edges_between
from .partitions import KPartition, VertexPartition

DEFAULT_CAP = 1 << 24


@dataclass
class DeltaWitness:
    """A qualifying subset pair with density ratio below one half."""

    left: np.ndarray
    right: np.ndarray
    e_st: int
    e_total: int
    nl: int
    nr: int

    @property
    def ratio(self) -> Fraction:
        """d(A',B') / d(A,B), exact."""
        if self.e_total == 0:
            return Fraction(0)
        return Fraction(self.e_st * self.nl * self.nr, self.e_total * len(self.left) * len(self.right))

    def is_valid(self) -> bool:
        return self.ratio < Fraction(1, 2)


@dataclass
class PairVerdict:
    status: str  # "regular" | "irregular"
    witness: DeltaWitness | None = None
    vacuous_zero_density: bool = False


class CapExceeded(Exception):
    pass


def _min_sizes(nl: int, nr: int, delta: Fraction):
    a = max(1, math.ceil(delta * nl))
    b = max(1, math.ceil(delta * nr))
    return a, b


def _exact_only(mode: str):
    if mode != "exact":
        raise ValueError(f"mode {mode!r}: regularity is decided exactly or not at all")


def is_delta_regular_pair(g: BipartiteGraph, delta, mode: str = "exact", cap: int = DEFAULT_CAP) -> PairVerdict:
    """Decide by one exact search over the C(n_left, a) minimal left
    subsets, pruned by the row-degree bound; raise CapExceeded when that
    count passes the cap."""
    _exact_only(mode)
    delta = Fraction(delta)
    e_total = g.edge_count()
    nl, nr = g.left.size, g.right.size
    if e_total == 0:
        return PairVerdict(status="regular", vacuous_zero_density=True)
    if e_total == nl * nr:
        return PairVerdict(status="regular")
    a, b = _min_sizes(nl, nr, delta)
    if math.comb(nl, a) > cap:
        raise CapExceeded(f"C({nl},{a}) exceeds cap {cap}")
    # e(S, T) |A||B| < e(A, B) |S||T| / 2, with e(S, T) an integer
    lo = math.ceil(Fraction(e_total * a * b, 2 * nl * nr))
    S, _, _ = _kernels.subset_min_edges(g.rows, nr, a, b, lo=lo)
    if S is None:
        return PairVerdict(status="regular")
    return PairVerdict(status="irregular", witness=_finish_witness(g, S, b, e_total))


def _finish_witness(g, S, b, e_total):
    t = g.transposed()
    mask = _kernels.pack_indices(S, g.left.size)
    degs = _kernels.masked_degrees(t.rows, mask)
    order = np.argsort(degs, kind="stable")[:b]
    T = np.sort(order.astype(np.int64))
    e_st = int(degs[order].sum())
    return DeltaWitness(left=np.sort(S), right=T, e_st=e_st, e_total=e_total, nl=g.left.size, nr=g.right.size)


def find_delta_witness(g: BipartiteGraph, delta) -> DeltaWitness | None:
    """Search for a delta-irregularity witness without the cap: local
    descent from the lowest-degree left subset and from seven seeded random
    ones, swapping single vertices while the pair density drops.  Sound (a
    witness it returns is recounted with edges_between) but incomplete:
    None decides nothing."""
    delta = Fraction(delta)
    e_total = g.edge_count()
    nl, nr = g.left.size, g.right.size
    if e_total in (0, nl * nr):
        return None
    a, b = _min_sizes(nl, nr, delta)
    rng = np.random.default_rng(0)
    t = g.transposed()
    ldeg = g.degrees()
    best = None
    for r in range(8):
        if r == 0:
            S = np.argsort(ldeg, kind="stable")[:a].astype(np.int64)
        else:
            S = rng.choice(nl, size=a, replace=False).astype(np.int64)
        for _ in range(64):
            mask = _kernels.pack_indices(S, nl)
            rdeg = _kernels.masked_degrees(t.rows, mask)
            T = np.argsort(rdeg, kind="stable")[:b].astype(np.int64)
            tmask = _kernels.pack_indices(T, nr)
            sdeg = _kernels.masked_degrees(g.rows, tmask)
            # try the single best swap on the left side
            in_S = np.zeros(nl, dtype=bool)
            in_S[S] = True
            worst_in = S[np.argmax(sdeg[S])]
            cand_out = np.flatnonzero(~in_S)
            if cand_out.size == 0:
                break
            best_out = cand_out[np.argmin(sdeg[cand_out])]
            if sdeg[best_out] < sdeg[worst_in]:
                S = np.sort(np.concatenate([S[S != worst_in], [best_out]])).astype(np.int64)
            else:
                break
        w = _finish_witness(g, S, b, e_total)
        if w.is_valid():
            # recount from scratch before reporting; an explicit check, which python -O keeps
            e_check = edges_between(g, w.left, w.right)
            if e_check != w.e_st:
                raise AssertionError(f"witness recount {e_check} != e(S, T) {w.e_st}")
            if best is None or w.ratio < best.ratio:
                best = w
    return best


def naive_all_sizes_oracle(g: BipartiteGraph, delta) -> PairVerdict:
    """Brute-force oracle: scan all subset pairs of every qualifying size.

    Used as the independent reference for the exact checker; tractable only
    for small sides.  It shares no code with that checker: the qualifying
    sizes come from the definition, and e(A, B) from the oracle's own bits.
    """
    delta = Fraction(delta)
    nl, nr = g.left.size, g.right.size
    # decoded here, not through _kernels: the oracle shares no code with the checker it checks
    deg = np.unpackbits(g.rows.view(np.uint8), axis=1, bitorder="little")[:, :nr].astype(np.int64)
    e_total = int(deg.sum())
    if e_total == 0:
        return PairVerdict(status="regular", vacuous_zero_density=True)
    # a subset of a side qualifies when it has at least one vertex and at least delta of the side
    left_sizes = [a for a in range(1, nl + 1) if a >= delta * nl]
    right_sizes = [b for b in range(1, nr + 1) if b >= delta * nr]
    for a in left_sizes:
        for S in combinations(range(nl), a):
            degs = deg[list(S)].sum(axis=0)
            sorted_degs = np.sort(degs)
            prefix = np.cumsum(sorted_degs)
            for b in right_sizes:
                e_st = int(prefix[b - 1])
                if e_st * 2 * nl * nr < e_total * a * b:
                    T = np.argsort(degs, kind="stable")[:b]
                    return PairVerdict(
                        status="irregular",
                        witness=DeltaWitness(
                            left=np.array(S, dtype=np.int64),
                            right=np.sort(T.astype(np.int64)),
                            e_st=e_st,
                            e_total=e_total,
                            nl=nl,
                            nr=nr,
                        ),
                    )
    return PairVerdict(status="regular")


@dataclass
class EditInterval:
    """Sound lower/upper bounds on the edge edits needed to make every cross
    pair of a partitioned bipartite graph delta-regular."""

    lower: int
    upper: int | None
    budget: Fraction
    pair_reports: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if self.lower > self.budget:
            return "irregular"
        if self.upper is not None and self.upper <= self.budget:
            return "regular"
        return "undecided"


def _pair_lower_bound(nl_pair, nr_pair, e_pair, witness: DeltaWitness) -> int:
    """Sound per-pair lower bound from a witness inside the pair.

    For any repaired graph in which the pair is delta-regular,
    e'(S,T) >= (1/2) d'(P,Q) |S||T|.  Writing D for the number of edits in
    the pair, e'(S,T) <= e(S,T) + D and e'(P,Q) >= e(P,Q) - D, so
        D >= (e(P,Q)|S||T|/(2|P||Q|) - e(S,T)) / (1 + |S||T|/(2|P||Q|)).
    """
    s, t = len(witness.left), len(witness.right)
    num = Fraction(e_pair * s * t, 2 * nl_pair * nr_pair) - witness.e_st
    if num <= 0:
        return 0
    den = 1 + Fraction(s * t, 2 * nl_pair * nr_pair)
    bound = num / den
    return max(0, math.ceil(bound))


def _pseudorandom_block(nl, nr, m, shift=0) -> list:
    """Deterministic m-edge block spread evenly (round-robin diagonal)."""
    edges = []
    i = 0
    v = shift % max(1, nr)
    for _ in range(m):
        u = i % nl
        edges.append((u, v))
        i += 1
        v = (v + 1) % nr
        if i % nl == 0:
            v = (v + 1) % nr
    return edges


def partition_edit_interval(
    g: BipartiteGraph,
    P: VertexPartition,
    Q: VertexPartition,
    delta,
    mode: str = "exact",
) -> EditInterval:
    """Edit-distance interval for making every (P-cell, Q-cell) pair
    delta-regular.

    Lower bound: per-pair witness accounting (sound for any repair).  Upper
    bound: an explicit repair replacing each irregular pair with a density
    matched spread block, re-verified exactly; None when no tried repair of
    some irregular pair passes the check within the cap.  A pair past the
    cap raises CapExceeded.
    """
    _exact_only(mode)
    delta = Fraction(delta)
    budget = delta * g.edge_count()
    lower = 0
    upper_total = 0
    upper_known = True
    reports = []
    for pi, S_cell in enumerate(P.cells):
        for qi, T_cell in enumerate(Q.cells):
            sub = _induced_pair(g, S_cell, T_cell)
            e_pair = sub.edge_count()
            verdict = is_delta_regular_pair(sub, delta)
            entry = {"pair": (pi, qi), "status": verdict.status, "lower": 0, "edits": 0}
            if verdict.status == "irregular":
                lb = _pair_lower_bound(sub.left.size, sub.right.size, e_pair, verdict.witness)
                entry["lower"] = lb
                lower += lb
                repaired, edits = _repair_pair(sub, delta)
                if repaired is None:
                    upper_known = False
                else:
                    entry["edits"] = edits
                    upper_total += edits
            reports.append(entry)
    return EditInterval(lower=lower, upper=upper_total if upper_known else None, budget=budget, pair_reports=reports)


def _induced_pair(g: BipartiteGraph, S_cell, T_cell) -> BipartiteGraph:
    S = np.asarray(S_cell, dtype=np.int64)
    T = np.asarray(T_cell, dtype=np.int64)
    rows = _kernels.pack_rows(_kernels.unpack_rows(g.rows[S], g.right.size)[:, T])
    return BipartiteGraph(VertexClass("S", len(S)), VertexClass("T", len(T)), rows)


def _repair_pair(sub: BipartiteGraph, delta):
    """Try replacements with the same edge count until one passes the exact
    check; returns (graph, edits) or (None, None)."""
    m = sub.edge_count()
    nl, nr = sub.left.size, sub.right.size
    for shift in range(min(8, nr)):
        cand_edges = _pseudorandom_block(nl, nr, m, shift)
        cand = BipartiteGraph.from_edges(sub.left, sub.right, set(cand_edges))
        if cand.edge_count() != m:
            continue
        try:
            if is_delta_regular_pair(cand, delta).status == "regular":
                edits = _symmetric_difference(sub, cand)
                return cand, edits
        except CapExceeded:
            return None, None
    return None, None


def _symmetric_difference(a: BipartiteGraph, b: BipartiteGraph) -> int:
    return int(_kernels.popcount_rows(a.rows ^ b.rows).sum())


def is_delta_good(P: KPartition, delta) -> tuple[bool, list]:
    """Every layer cell must induce a regular bipartite slice along every
    axis of its polyad.  Returns (verdict, failing (layer, cell, axis))."""
    delta = Fraction(delta)
    failing = []
    for r in sorted(P.layers):
        for ci in range(len(P.layers[r])):
            for axis in range(1, r + 1):
                g = cell_axis_graph(P, r, ci, axis)
                v = is_delta_regular_pair(g, delta)
                if v.status == "irregular":
                    failing.append((r, ci, axis))
    return (len(failing) == 0), failing


def cell_axis_graph(P: KPartition, r: int, ci: int, axis: int) -> BipartiteGraph:
    """Bipartite slice of a layer-r cell along one axis: left vertices are the
    axis-omitted sub-tuples of the polyad part, right vertices the axis
    class cell; edges mirror the cell's tuples."""
    cell = P.layers[r][ci]
    i = axis - 1
    if r == 2:
        prof = P.under(2, ci)
        left_cell = P.vertex.cells[prof[1 - i]]
        right_cell = P.vertex.cells[prof[i]]
        lmap = {int(v): j for j, v in enumerate(left_cell)}
        rmap = {int(v): j for j, v in enumerate(right_cell)}
        edges = []
        for row in cell:
            a, b = int(row[1 - i]), int(row[i])
            edges.append((lmap[a], rmap[b]))
        return BipartiteGraph.from_edges(
            VertexClass("stub", len(left_cell)), VertexClass("cls", len(right_cell)), edges
        )
    prof = P.under(r, ci)
    part_cell = P.layers[r - 1][prof[i]]
    lmap = {tuple(int(x) for x in row): j for j, row in enumerate(part_cell)}
    axis_cell = _polyad_axis_cell(P, r, ci, i)
    rmap = {int(v): j for j, v in enumerate(axis_cell)}
    edges = set()
    for row in cell:
        sub = tuple(sorted(int(row[j]) for j in range(r) if j != i))
        edges.add((lmap[sub], rmap[int(row[i])]))
    return BipartiteGraph.from_edges(
        VertexClass("stub", len(part_cell)), VertexClass("cls", len(axis_cell)), sorted(edges)
    )


def _polyad_axis_cell(P: KPartition, r: int, ci: int, i: int) -> np.ndarray:
    """Vertex cell of the polyad under cell ci along coordinate i."""
    cell = P.layers[r][ci]
    v = int(cell[0, i])
    return P.vertex.cells[P.vertex.cell_of(v)]


def e_layer_cells(P: KPartition, classes_idx: list[int]) -> list[int]:
    """Indices of the layer-r cells, r = len(classes_idx), supported exactly
    on the given classes."""
    out = []
    for ci, cell in enumerate(P.layer(len(classes_idx))):
        cls = sorted(P.classes.class_of(int(v)) for v in cell[0])
        if cls == sorted(classes_idx):
            out.append(ci)
    return out


def is_delta_regular_kpartition(h, P: KPartition, delta) -> dict:
    """Axis-by-axis partition regularity of a k-graph relative to a layered
    partition that is delta-good: along every axis, the (top-layer cells,
    axis vertex cells) partition of the axis view graph must sit within the
    edit budget."""
    from .graphs import aux_graph

    delta = Fraction(delta)
    k = h.k
    good, failing = is_delta_good(P, delta)
    report = {"axes": [], "good": good, "good_failures": failing, "verdict": "regular"}
    if not good:
        report["verdict"] = "not-good"
        return report
    for axis in range(1, k + 1):
        view = aux_graph(h, axis)
        left_part, right_part = axis_partitions(h, P, axis, view)
        interval = partition_edit_interval(view.graph, left_part, right_part, delta)
        report["axes"].append(interval)
        if interval.verdict == "irregular":
            report["verdict"] = "irregular"
        elif interval.verdict == "undecided" and report["verdict"] == "regular":
            report["verdict"] = "undecided"
    return report


def axis_partitions(h, P: KPartition, axis: int, view=None):
    """The (product-side, class-side) vertex partitions induced on an axis
    view by a layered partition with vertex cells refining the classes."""
    from .graphs import aux_graph

    view = view or aux_graph(h, axis)
    k = h.k
    i = axis - 1
    other_idx = [j for j in range(k) if j != i]
    prod = view.product
    offs = [h.classes.classes[j].offset for j in other_idx]
    if k == 2:
        # the product side is the single other class; use its vertex cells
        j = other_idx[0]
        c = h.classes.classes[j]
        cells = [cell - c.offset for cell in P.vertex.cells if c.offset <= int(cell[0]) < c.offset + c.size]
    else:
        layer = P.layer(k - 1)
        cells = [prod.encode_array(layer[ci] - np.array(offs, dtype=np.int64)[None, :]) for ci in e_layer_cells(P, other_idx)]
    left = VertexPartition(prod.size, cells)
    ci_class = h.classes.classes[i]
    right_cells = [cell - ci_class.offset for cell in P.vertex.cells if ci_class.offset <= int(cell[0]) < ci_class.offset + ci_class.size]
    right = VertexPartition(ci_class.size, right_cells)
    return left, right


def is_eps_regular_graph(g: BipartiteGraph, eps, mode: str = "exact") -> dict:
    """Two-sided density deviation |d(S,T) - p| <= eps * p over qualifying
    subsets, decided by one exact search over the C(n_left, a) minimal left
    subsets, pruned on both sides; raises CapExceeded when that count
    passes DEFAULT_CAP."""
    _exact_only(mode)
    eps = Fraction(eps)
    p = Fraction(g.edge_count(), g.left.size * g.right.size)
    nl, nr = g.left.size, g.right.size
    if p == 0 or p == 1:
        return {"status": "regular", "eps": eps}
    a, b = _min_sizes(nl, nr, eps)
    if math.comb(nl, a) > DEFAULT_CAP:
        raise CapExceeded(f"C({nl},{a}) exceeds cap {DEFAULT_CAP}")
    # both deviation directions reduce to the minimal sizes: removing a
    # minimum-degree vertex never decreases the density, removing a
    # maximum-degree vertex never increases it, so violations survive
    # shrinking each side to its minimal qualifying size.
    # |e/ab - p| <= eps p  <=>  (1-eps) p ab <= e <= (1+eps) p ab, e an integer
    lo, hi = math.ceil((1 - eps) * p * a * b), math.floor((1 + eps) * p * a * b)
    S, _, _ = _kernels.subset_min_edges(g.rows, nr, a, b, lo=lo, hi=hi)
    if S is not None:
        return {"status": "irregular", "eps": eps, "witness_left": S.tolist()}
    return {"status": "regular", "eps": eps}
