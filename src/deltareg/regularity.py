"""Half-density subset regularity for bipartite graphs and its layered
hypergraph extensions, with witness search and sound edit-distance intervals.

A bipartite graph on (A, B) is delta-regular (pair sense) when every subset
pair (A', B') with |A'| >= delta|A| and |B'| >= delta|B| keeps at least half
the global density: d(A', B') >= d(A, B) / 2.  A vertex partition of the
graph is delta-regular when at most delta * e(G) edge edits make every
cross pair delta-regular.

The exact pair checker only enumerates subsets of the minimal qualifying
sizes: removing a maximum-degree vertex from A' never increases d(A', B'),
so the minimum over all qualifying sizes is attained at the smallest.
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
from .graphs import BipartiteGraph, VertexClass, edges_between, pair_density
from .partitions import KPartition, VertexPartition, refines_beta, refinement_union, restrict_kpartition

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
    status: str  # "regular" | "irregular" | "unknown"
    witness: DeltaWitness | None = None
    vacuous_zero_density: bool = False


class CapExceeded(Exception):
    pass


def _min_sizes(nl: int, nr: int, delta: Fraction):
    a = max(1, math.ceil(delta * nl))
    b = max(1, math.ceil(delta * nr))
    return a, b


def minimal_subset_reduction(g: BipartiteGraph, delta) -> dict:
    """Describe the reduced exact search space.

    The exact decision only scans |A'| = ceil(delta |A|) by |B'| =
    ceil(delta |B|): deleting a maximum-degree vertex of a larger A' never
    increases the pair density, so minima over all qualifying sizes are
    attained at the minimum sizes.
    """
    delta = Fraction(delta)
    a, b = _min_sizes(g.left.size, g.right.size, delta)
    return {
        "left_size": a,
        "right_size": b,
        "num_left_subsets": math.comb(g.left.size, a),
        "num_right_subsets": math.comb(g.right.size, b),
    }


def is_delta_regular_pair(
    g: BipartiteGraph,
    delta,
    mode: str = "exact",
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    restarts: int = 8,
) -> PairVerdict:
    """Decide (exact) or search for a witness (sampled)."""
    delta = Fraction(delta)
    e_total = g.edge_count()
    nl, nr = g.left.size, g.right.size
    if e_total == 0:
        return PairVerdict(status="regular", vacuous_zero_density=True)
    if e_total == nl * nr:
        return PairVerdict(status="regular")
    a, b = _min_sizes(nl, nr, delta)
    if mode == "exact":
        if math.comb(nl, a) > cap or math.comb(nr, b) > cap:
            raise CapExceeded(f"C({nl},{a}) or C({nr},{b}) exceeds cap {cap}")
        # e(S, T) |A||B| < e(A, B) |S||T| / 2, with e(S, T) an integer
        lo = math.ceil(Fraction(e_total * a * b, 2 * nl * nr))
        S, _, _ = _kernels.subset_min_edges(g.rows, nr, a, b, lo=lo)
        if S is None:
            return PairVerdict(status="regular")
        return PairVerdict(status="irregular", witness=_finish_witness(g, S, b, e_total))
    if mode == "sampled":
        w = _descent_witness(g, a, b, e_total, seed=seed, restarts=restarts)
        if w is not None:
            return PairVerdict(status="irregular", witness=w)
        return PairVerdict(status="unknown")
    raise ValueError(f"unknown mode {mode!r}")


def _finish_witness(g, S, b, e_total):
    t = g.transposed()
    mask = _kernels.pack_indices(S, g.left.size)
    degs = _kernels.masked_degrees(t.rows, mask)
    order = np.argsort(degs, kind="stable")[:b]
    T = np.sort(order.astype(np.int64))
    e_st = int(degs[order].sum())
    return DeltaWitness(left=np.sort(S), right=T, e_st=e_st, e_total=e_total, nl=g.left.size, nr=g.right.size)


def _descent_witness(g, a, b, e_total, seed=0, restarts=8):
    """Randomized local descent: start from low-degree subsets, swap single
    vertices while the pair density drops; sound (any reported witness is
    re-verified exactly) but incomplete."""
    rng = np.random.default_rng(seed)
    nl, nr = g.left.size, g.right.size
    t = g.transposed()
    ldeg = g.degrees()
    best = None
    for r in range(restarts):
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
            # re-verify from scratch before reporting
            e_check = edges_between(g, w.left, w.right)
            assert e_check == w.e_st
            if best is None or w.ratio < best.ratio:
                best = w
    return best


def naive_all_sizes_oracle(g: BipartiteGraph, delta) -> PairVerdict:
    """Brute-force oracle: scan all subset pairs of every qualifying size.

    Used as the independent reference for the exact checker; tractable only
    for small sides.
    """
    delta = Fraction(delta)
    e_total = g.edge_count()
    nl, nr = g.left.size, g.right.size
    if e_total == 0:
        return PairVerdict(status="regular", vacuous_zero_density=True)
    a0, b0 = _min_sizes(nl, nr, delta)
    # decoded here, not through _kernels: the oracle shares no code with the checker it checks
    deg = np.unpackbits(g.rows.view(np.uint8), axis=1, bitorder="little")[:, :nr].astype(np.int64)
    for a in range(a0, nl + 1):
        for S in combinations(range(nl), a):
            degs = deg[list(S)].sum(axis=0)
            sorted_degs = np.sort(degs)
            prefix = np.cumsum(sorted_degs)
            for b in range(b0, nr + 1):
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
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> EditInterval:
    """Edit-distance interval for making every (P-cell, Q-cell) pair
    delta-regular.

    Lower bound: per-pair witness accounting (sound for any repair).  Upper
    bound: an explicit repair replacing each irregular pair with a density
    matched spread block, re-verified exactly; None when any pair cannot be
    decided within the cap.
    """
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
            try:
                verdict = is_delta_regular_pair(sub, delta, mode="exact", cap=cap)
            except CapExceeded:
                if mode == "exact":
                    raise
                verdict = is_delta_regular_pair(sub, delta, mode="sampled", seed=seed + 97 * pi + qi)
            entry = {"pair": (pi, qi), "status": verdict.status, "lower": 0, "edits": 0}
            if verdict.status == "irregular":
                lb = _pair_lower_bound(sub.left.size, sub.right.size, e_pair, verdict.witness)
                entry["lower"] = lb
                lower += lb
                repaired, edits = _repair_pair(sub, delta, cap)
                if repaired is None:
                    upper_known = False
                else:
                    entry["edits"] = edits
                    upper_total += edits
            elif verdict.status == "unknown":
                upper_known = False
            reports.append(entry)
    return EditInterval(lower=lower, upper=upper_total if upper_known else None, budget=budget, pair_reports=reports)


def _induced_pair(g: BipartiteGraph, S_cell, T_cell) -> BipartiteGraph:
    S = np.asarray(S_cell, dtype=np.int64)
    T = np.asarray(T_cell, dtype=np.int64)
    rows = _kernels.pack_rows(_kernels.unpack_rows(g.rows[S], g.right.size)[:, T])
    return BipartiteGraph(VertexClass("S", len(S)), VertexClass("T", len(T)), rows)


def _repair_pair(sub: BipartiteGraph, delta, cap):
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
            if is_delta_regular_pair(cand, delta, mode="exact", cap=cap).status == "regular":
                edits = _symmetric_difference(sub, cand)
                return cand, edits
        except CapExceeded:
            return None, None
    # fall back to the complete or empty block when the density allows free edits
    return None, None


def _symmetric_difference(a: BipartiteGraph, b: BipartiteGraph) -> int:
    return int(_kernels.popcount_rows(a.rows ^ b.rows).sum())


def is_delta_good(P: KPartition, delta, mode: str = "exact", cap: int = DEFAULT_CAP) -> tuple[bool, list]:
    """Every layer cell must induce a regular bipartite slice along every
    axis of its polyad.  Returns (verdict, failing (layer, cell, axis))."""
    delta = Fraction(delta)
    failing = []
    for r in sorted(P.layers):
        for ci in range(len(P.layers[r])):
            for axis in range(1, r + 1):
                g = cell_axis_graph(P, r, ci, axis)
                v = is_delta_regular_pair(g, delta, mode=mode, cap=cap)
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
    """Indices of top-layer cells supported exactly on the given classes."""
    r = P.k
    out = []
    for ci, cell in enumerate(P.layers[r]):
        cls = sorted(P.classes.class_of(int(v)) for v in cell[0])
        if cls == sorted(classes_idx):
            out.append(ci)
    return out


def is_delta_regular_kpartition(
    h,
    P: KPartition,
    delta,
    mode: str = "exact",
    cap: int = DEFAULT_CAP,
    require_good: bool = True,
) -> dict:
    """Axis-by-axis partition regularity of a k-graph relative to a layered
    partition: along every axis, the (top-layer cells, axis vertex cells)
    partition of the axis view graph must sit within the edit budget."""
    from .graphs import aux_graph

    delta = Fraction(delta)
    k = h.k
    report = {"axes": [], "good": None, "verdict": "regular"}
    if require_good:
        good, failing = is_delta_good(P, delta, mode=mode, cap=cap)
        report["good"] = good
        report["good_failures"] = failing
        if not good:
            report["verdict"] = "not-good"
            return report
    for axis in range(1, k + 1):
        view = aux_graph(h, axis)
        left_part, right_part = axis_partitions(h, P, axis, view)
        interval = partition_edit_interval(view.graph, left_part, right_part, delta, mode=mode, cap=cap)
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
    if P.k >= 2 and (k - 1) in P.layers and k - 1 >= 2:
        cells = []
        for ci in e_layer_cells(P, other_idx):
            cell = P.layers[k - 1][ci]
            local = cell - np.array(offs, dtype=np.int64)[None, :]
            cells.append(prod.encode_array(local))
        left = VertexPartition(prod.size, cells)
    else:
        # k = 2: the product side is the single other class; use its vertex cells
        j = other_idx[0]
        c = h.classes.classes[j]
        cells = [cell - c.offset for ci, cell in enumerate(P.vertex.cells) if c.offset <= int(cell[0]) < c.offset + c.size]
        left = VertexPartition(prod.size, cells)
    ci_class = h.classes.classes[i]
    right_cells = [cell - ci_class.offset for cell in P.vertex.cells if ci_class.offset <= int(cell[0]) < ci_class.offset + ci_class.size]
    right = VertexPartition(ci_class.size, right_cells)
    return left, right


def is_eps_regular_graph(
    g: BipartiteGraph, eps, mode: str = "exact", cap: int = DEFAULT_CAP, seed: int = 0, samples: int = 2000
) -> dict:
    """Two-sided density deviation |d(S,T) - p| <= eps * p over qualifying
    subsets.  Exact mode scans minimal sizes for the lower side and uses the
    complement trick for the upper side via the bit complement graph."""
    eps = Fraction(eps)
    p = Fraction(g.edge_count(), g.left.size * g.right.size)
    nl, nr = g.left.size, g.right.size
    if p == 0 or p == 1:
        return {"status": "regular", "eps": eps}
    a, b = _min_sizes(nl, nr, eps)
    if mode == "exact":
        if math.comb(nl, a) > cap or math.comb(nr, b) > cap:
            raise CapExceeded("exact eps-regularity scan exceeds cap")
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
    # sampled
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        sa = rng.integers(a, nl + 1)
        sb = rng.integers(b, nr + 1)
        S = rng.choice(nl, size=sa, replace=False)
        T = rng.choice(nr, size=sb, replace=False)
        d = pair_density(g, S, T)
        if d < (1 - eps) * p or d > (1 + eps) * p:
            return {"status": "irregular", "eps": eps, "witness_left": S.tolist(), "witness_right": T.tolist()}
    return {"status": "unknown", "eps": eps, "samples": samples}


def check_star_union(gs: list[BipartiteGraph], delta, cap: int = DEFAULT_CAP) -> dict:
    """Edge-disjoint union of pairwise regular graphs stays regular; checked
    by running the exact checker on each part and on the union."""
    if not gs:
        raise ValueError("need at least one graph")
    nl, nr = gs[0].left.size, gs[0].right.size
    acc = np.zeros_like(gs[0].rows)
    for g in gs:
        if (g.left.size, g.right.size) != (nl, nr):
            raise ValueError("mismatched classes")
        if np.any(acc & g.rows):
            raise ValueError("graphs are not edge-disjoint")
        acc = acc | g.rows
    union = BipartiteGraph(gs[0].left, gs[0].right, acc)
    parts = [is_delta_regular_pair(g, delta, cap=cap).status for g in gs]
    u = is_delta_regular_pair(union, delta, cap=cap).status
    implied = all(s == "regular" for s in parts)
    return {
        "part_status": parts,
        "union_status": u,
        "implication_holds": (not implied) or (u == "regular"),
    }


def check_uniform_refinement(P: KPartition, family: VertexPartition, delta, cap: int = DEFAULT_CAP) -> dict:
    """With the product-side top-layer cells approximately refining a given
    partition of the full product, the restriction of a good layered
    partition to the first k-1 classes must be a 3*delta-regular partition
    of some member of the family.

    ``family`` partitions the product index space of the first k-1 classes;
    the top-layer cells are encoded the same way before comparison.
    """
    from .graphs import KPartiteKGraph, ProductClass, VertexClassSet as VCS

    delta = Fraction(delta)
    k = len(P.classes)
    r = k - 1
    other_idx = list(range(k - 1))
    prod = ProductClass.of([VertexClass(c.name, c.size) for c in P.classes.classes[:-1]])
    offs = [P.classes.classes[j].offset for j in other_idx]
    cells = []
    cell_ids = e_layer_cells(P, other_idx)
    for ci in cell_ids:
        local = P.layers[r][ci] - np.array(offs, dtype=np.int64)[None, :]
        cells.append(prod.encode_array(local))
    ek = VertexPartition(prod.size, cells)
    good, failing = is_delta_good(P, delta, cap=cap)
    if not good:
        raise ValueError(f"layered partition is not delta-good: {failing}")
    rep = refines_beta(ek, family, delta)
    if not rep.verdict:
        raise ValueError("top layer does not delta-refine the family")
    fi, union, diff = refinement_union(ek, family, delta)
    # realize the chosen family member as a (k-1)-graph and check the
    # restricted partition against it at 3*delta
    member_idx = family.cells[fi]
    tuples = prod.decode_array(member_idx)
    F = KPartiteKGraph(VCS([(c.name, c.size) for c in prod.factors]), tuples)
    P_restricted = restrict_kpartition(P, list(range(k - 1)))
    rep2 = is_delta_regular_kpartition(F, P_restricted, 3 * delta, cap=cap)
    return {
        "family_member": fi,
        "symmetric_difference": diff,
        "bound": 3 * delta * len(family.cells[fi]),
        "restricted_verdict": rep2["verdict"],
        "report": rep2,
    }
