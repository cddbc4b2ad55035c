"""Two-sided polyad-density regularity notions and complex machinery.

These are the checkable forms of the partition-regularity definitions that
operate through clique sets: the relative density of a k-graph in a polyad,
(eps, d)-regularity against sub-polyads, partition-level regularity mass,
downward-closed complexes with the dense counting property, and the
reduction check that bridges these notions to the half-density pair
regularity of the bipartite axis views.

(eps, d)-regularity is decided by one exact count: a sub-polyad is one
keep-mask per part, and every mask tuple of the lattice is counted against
the polyad's clique table.  A lattice of more than LATTICE_CAP mask tuples
is refused with CapExceeded; nothing is sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _iroot_floor, dyadic_root_ceil
from .graphs import KPartiteKGraph, VertexClassSet
from .partitions import KPartition, Polyad, clique_set
from .regularity import CapExceeded, _induced_pair, is_delta_regular_pair


def relative_density(h: KPartiteKGraph, s: Polyad) -> Fraction:
    """|H n K(S)| / |K(S)|, with 0 when the clique set is empty."""
    ks = clique_set(s)
    if list(ks.classes.sizes()) != list(h.classes.sizes()):
        raise ValueError("polyad classes do not match the hypergraph")
    denom = ks.edge_count()
    if denom == 0:
        return Fraction(0)
    inter = np.intersect1d(ks.encoded, h.encoded)
    return Fraction(len(inter), denom)


# A lattice of more sub-polyads is refused; read at call time.
LATTICE_CAP = 1 << 20
# (mask tuple, clique) cells compared per enumeration block
_BLOCK_CELLS = 1 << 18


def _clique_table(h: KPartiteKGraph, p: Polyad):
    """The cliques of p, listed once: an (C, r) array giving, for each
    clique, the index of its element in each part (the two vertex sets for
    r = 2, each part's edges otherwise), and whether each clique is an edge
    of h."""
    r = p.r
    if r == 2:
        a, b = p.vertex_sets
        elements = np.stack(np.meshgrid(np.arange(len(a)), np.arange(len(b)), indexing="ij"), axis=-1).reshape(-1, 2)
        tuples = np.stack([a[elements[:, 0]], b[elements[:, 1]]], axis=1)
        sizes = p.classes.sizes()
    else:
        # part r-1 spans classes 0..r-2 and part 0 classes 1..r-1: join them
        # on the classes they share, then look every face up in its part
        first, last = p.parts[r - 1].edges(), p.parts[0].edges()
        i, j = np.nonzero((first[:, None, 1:] == last[None, :, :-1]).all(axis=2))
        tuples = np.concatenate([first[i], last[j, -1:]], axis=1)
        columns, keep = [], np.ones(len(tuples), dtype=bool)
        for q, part in enumerate(p.parts):
            faces = part.product.encode_array(np.delete(tuples, q, axis=1))
            columns.append(np.searchsorted(part.encoded, faces))
            keep &= np.isin(faces, part.encoded)
        elements, tuples = np.stack(columns, axis=1)[keep], tuples[keep]
        sizes = p.parts[r - 1].classes.sizes() + p.parts[0].classes.sizes()[-1:]
    if list(sizes) != h.classes.sizes():
        raise ValueError("polyad classes do not match the hypergraph")
    return elements, np.isin(h.product.encode_array(tuples), h.encoded)


def _polyad_density(h: KPartiteKGraph, p: Polyad) -> tuple:
    """The clique table of p, which ``_first_deviation`` then searches, |K(P)|
    and the relative density of h in p (0 when K(P) is empty)."""
    elements, in_h = table = _clique_table(h, p)
    return table, len(elements), Fraction(int(in_h.sum()), max(len(elements), 1))


def _first_deviation(p: Polyad, table: tuple, share: Fraction, lo: Fraction, hi):
    """The first sub-polyad S, as one keep-mask per part, that qualifies,
    |K(S)| >= share |K(P)|, and deviates: |H n K(S)| / |K(S)| (0 when K(S)
    is empty) is below lo, or above hi when hi is not None.  None when no
    sub-polyad does, on the clique table of p and H.  Every mask tuple is
    counted, in blocks; a lattice of more than LATTICE_CAP tuples raises
    CapExceeded."""
    widths = [len(s) for s in p.vertex_sets] if p.r == 2 else [part.edge_count() for part in p.parts]
    bits = sum(widths)
    if 1 << bits > LATTICE_CAP:
        raise CapExceeded(f"2^{bits} sub-polyads exceed the lattice cap {LATTICE_CAP}")
    elements, in_h = table
    total = len(elements)
    offsets = np.cumsum([0] + widths[:-1]).astype(np.int64)
    clique_bits = np.bitwise_or.reduce(np.int64(1) << (elements + offsets), axis=1)
    # hit[c, j]: c cliques kept, j of them edges of h; cross-multiplied integers
    hit = np.zeros((total + 1, total + 1), dtype=bool)
    for c in range(total + 1):
        if c * share.denominator < share.numerator * total:
            continue
        den = max(c, 1)
        for j in range(c + 1):
            hit[c, j] = j * lo.denominator < lo.numerator * den or (hi is not None and j * hi.denominator > hi.numerator * den)
    step = max(1, _BLOCK_CELLS // max(total, 1))
    for start in range(0, 1 << bits, step):
        masks = np.arange(start, min(start + step, 1 << bits), dtype=np.int64)
        kept = (masks[:, None] & clique_bits) == clique_bits
        found = np.flatnonzero(hit[kept.sum(axis=1), kept[:, in_h].sum(axis=1)])
        if found.size:
            t = int(masks[found[0]])
            return tuple(((t >> (off + np.arange(w))) & 1).astype(bool) for off, w in zip(offsets.tolist(), widths))
    return None


def _sub_polyad(p: Polyad, masks) -> Polyad:
    """The sub-polyad that keeps, in each part, the elements its mask keeps."""
    if p.r == 2:
        return Polyad.pair(p.vertex_sets[0][masks[0]], p.vertex_sets[1][masks[1]], sizes=p.classes.sizes())
    return Polyad(p.r, p.classes, [KPartiteKGraph.from_codes(part.classes, part.encoded[keep]) for part, keep in zip(p.parts, masks)])


def is_eps_d_regular(h: KPartiteKGraph, p: Polyad, eps, d=None) -> dict:
    """Every sub-polyad S with |K(S)| >= eps |K(P)| must have relative
    density within eps of d (default: the density in the whole polyad);
    decided by one exact count over the sub-polyad lattice, or refused
    with CapExceeded past LATTICE_CAP.  An irregular verdict records
    |K(P)| as ``cliques``."""
    eps = Fraction(eps)
    table, total, d_p = _polyad_density(h, p)
    if total == 0:
        return {"status": "regular", "vacuous": True}
    d = Fraction(d) if d is not None else d_p
    masks = _first_deviation(p, table, eps, d - eps, d + eps)
    if masks is None:
        return {"status": "regular", "d": d}
    s = _sub_polyad(p, masks)
    return {"status": "irregular", "witness": s, "density": relative_density(h, s), "d": d, "cliques": total}


def partition_polyads(P: KPartition, k: int):
    """All arity-k polyads of a (k-1)-layered partition over k classes,
    yielded as (local polyad, per-class global vertex cells): for k = 2,
    pairs of vertex cells in distinct classes; otherwise tuples of top-layer
    cells with mutually consistent vertex-cell profiles."""
    classes = P.classes
    if k == 2:
        cells = P.vertex.cells
        cls_of = [classes.class_of(int(c[0])) for c in cells]
        for a in range(len(cells)):
            for b in range(a + 1, len(cells)):
                if cls_of[a] != cls_of[b]:
                    lo, hi = (a, b) if cls_of[a] < cls_of[b] else (b, a)
                    poly = Polyad.pair(np.arange(len(cells[lo])), np.arange(len(cells[hi])))
                    yield poly, [cells[lo], cells[hi]]
        return
    r = k - 1
    # group top-layer cells by the ordered tuple of vertex cells they span
    by_span = {}
    for ci, cell in enumerate(P.layer(r)):
        span = tuple(sorted(P.vertex.cell_of(int(v)) for v in cell[0]))
        by_span.setdefault(span, []).append(ci)
    vcells = P.vertex.cells
    cls_of = [classes.class_of(int(c[0])) for c in vcells]
    # choose k vertex cells in k distinct classes; parts live on each
    # (k-1)-subset of the chosen cells
    for combo in itertools.combinations(range(len(vcells)), k):
        if len({cls_of[c] for c in combo}) != k:
            continue
        combo = tuple(sorted(combo, key=lambda c: cls_of[c]))
        omit_spans = [tuple(sorted(set(combo) - {c})) for c in combo]
        choices = [by_span.get(sp, []) for sp in omit_spans]
        if any(not ch for ch in choices):
            continue
        for pick in itertools.product(*choices):
            yield _polyad_from_cells(P, combo, pick), [vcells[c] for c in combo]


def _polyad_from_cells(P: KPartition, vcell_combo, cell_indices) -> Polyad:
    """Materialize a polyad from top-layer cell indices, with parts indexed
    so that part i omits the i-th chosen vertex cell."""
    k = len(vcell_combo)
    r = k - 1
    classes = P.classes
    vcells = [P.vertex.cells[c] for c in vcell_combo]
    # local classes: the chosen vertex cells become the polyad's classes
    cls = VertexClassSet([(f"C{j}", len(vcells[j])) for j in range(k)])
    maps = [{int(v): idx for idx, v in enumerate(cell)} for cell in vcells]
    parts = []
    for i in range(k):
        cell = P.layers[r][cell_indices[i]]
        covered = [j for j in range(k) if j != i]
        part_classes = VertexClassSet([(f"C{j}", len(vcells[j])) for j in covered])
        rows = []
        for row in cell:
            local = []
            for v in sorted(int(x) for x in row):
                j = next(jj for jj in covered if v in maps[jj])
                local.append((covered.index(j), maps[j][v]))
            local.sort()
            rows.append([x for _, x in local])
        parts.append(KPartiteKGraph(part_classes, np.array(rows, dtype=np.int64).reshape(-1, r)))
    return Polyad(k, cls, parts)


def induced_subgraph_on_cells(h: KPartiteKGraph, vcells) -> KPartiteKGraph:
    """Relabel h onto the chosen per-class vertex cells (local indices)."""
    maps = []
    for j, cell in enumerate(vcells):
        mp = np.full(h.classes.classes[j].size, -1, dtype=np.int64)
        mp[np.asarray(cell, dtype=np.int64)] = np.arange(len(cell))
        maps.append(mp)
    keep = np.ones(h.edge_count(), dtype=bool)
    out = h.edges()
    for j in range(h.k):
        out[:, j] = maps[j][out[:, j]]
        keep &= out[:, j] >= 0
    cls = VertexClassSet([(f"C{j}", len(vcells[j])) for j in range(h.k)])
    return KPartiteKGraph(cls, out[keep])


def is_eps_regular_partition(h: KPartiteKGraph, P: KPartition, eps) -> dict:
    """Sum of |K(P)| over polyads whose induced piece fails the two-sided
    check, compared against eps * |V(H)|^k."""
    eps = Fraction(eps)
    k = h.k
    irregular_mass = 0
    details = []
    for polyad, span_cells in partition_polyads(P, k):
        verdict = is_eps_d_regular(induced_subgraph_on_cells(h, _localize_span(h, span_cells)), polyad, eps)
        if verdict["status"] == "irregular":
            irregular_mass += verdict["cliques"]
            details.append(verdict)
    bound = eps * Fraction(P.classes.total) ** k
    return {
        "irregular_mass": irregular_mass,
        "bound": bound,
        "ok": Fraction(irregular_mass) <= bound,
        "details": details,
    }


def _localize_span(h: KPartiteKGraph, span_cells):
    out = []
    for j, cell in enumerate(span_cells):
        c = h.classes.classes[j]
        out.append(np.asarray(cell, dtype=np.int64) - c.offset)
    return out


# -- complexes --------------------------------------------------------------


@dataclass
class RankedComplex:
    """k-partite hypergraph of rank k-1 with downward clique closure:
    every rank-r edge spans a complete pattern one rank below."""

    classes: VertexClassSet
    layers: dict  # r -> {frozenset(class idx): KPartiteKGraph on those classes}

    def __post_init__(self):
        k = len(self.classes)
        for r in sorted(self.layers):
            if not (2 <= r <= k - 1):
                raise ValueError("layer ranks run from 2 to k-1")
            for span, g in self.layers[r].items():
                if len(span) != r:
                    raise ValueError("span arity mismatch")
        self._validate_closure()

    def _validate_closure(self):
        for r in sorted(self.layers):
            if r == 2:
                continue
            for span, g in self.layers[r].items():
                span_t = sorted(span)
                for row in g.edges():
                    for drop in range(r):
                        sub_span = frozenset(span_t[:drop] + span_t[drop + 1 :])
                        sub = self.layers[r - 1][sub_span]
                        sub_row = [int(row[j]) for j in range(r) if j != drop]
                        if not sub.contains(sub_row):
                            raise ValueError("complex is not downward clique-closed")

    @property
    def k(self):
        return len(self.classes)

    def layer(self, span) -> KPartiteKGraph:
        return self.layers[len(span)][frozenset(span)]


def complete_complex(classes: VertexClassSet) -> RankedComplex:
    k = len(classes)
    layers = {}
    for r in range(2, k):
        layers[r] = {}
        for span in itertools.combinations(range(k), r):
            sizes = [classes.classes[j].size for j in span]
            cls = VertexClassSet([(classes.classes[j].name, classes.classes[j].size) for j in span])
            edges = np.array(list(itertools.product(*[range(sz) for sz in sizes])), dtype=np.int64)
            layers[r][frozenset(span)] = KPartiteKGraph(cls, edges)
    return RankedComplex(classes, layers)


def complex_clique_count(cx: RankedComplex) -> int:
    """Exact number of k-cliques (one vertex per class, all sub-edges
    present in every layer)."""
    k = cx.k
    sizes = [c.size for c in cx.classes.classes]
    count = 0
    for tup in itertools.product(*[range(s) for s in sizes]):
        if _is_clique(cx, tup):
            count += 1
    return count


def _is_clique(cx: RankedComplex, tup) -> bool:
    k = cx.k
    for r in sorted(cx.layers):
        for span in itertools.combinations(range(k), r):
            g = cx.layers[r][frozenset(span)]
            if not g.contains([tup[j] for j in span]):
                return False
    return True


def complex_extension_counts(cx: RankedComplex, span) -> dict:
    """Per-edge clique-extension counts for edges of one rank-(k-1) part."""
    g = cx.layer(span)
    k = cx.k
    missing = next(j for j in range(k) if j not in span)
    out = {}
    for row in g.edges():
        cnt = 0
        for v in range(cx.classes.classes[missing].size):
            tup = [0] * k
            for pos, j in enumerate(sorted(span)):
                tup[j] = int(row[pos])
            tup[missing] = v
            if _is_clique(cx, tuple(tup)):
                cnt += 1
        out[tuple(int(x) for x in row)] = cnt
    return out


def dense_counting_check(cx: RankedComplex, gamma, densities: dict) -> dict:
    """Exact clique count against the (1 +- gamma) prediction
    prod d_r^(C(k,r)) * prod n_i, plus the per-edge extension band on the
    rank-(k-1) layer of the first k-1 classes."""
    from math import comb

    gamma = Fraction(gamma)
    k = cx.k
    sizes = [c.size for c in cx.classes.classes]
    pred = Fraction(1)
    for r in range(2, k):
        pred *= Fraction(densities[r]) ** comb(k, r)
    for n in sizes:
        pred *= n
    count = complex_clique_count(cx)
    lo, hi = (1 - gamma) * pred, (1 + gamma) * pred
    in_band = lo <= count <= hi
    # per-edge extension: edges of the rank-(k-1) part on the first k-1 classes
    span = tuple(range(k - 1))
    ext = complex_extension_counts(cx, span)
    pred_e = Fraction(1)
    for r in range(2, k):
        pred_e *= Fraction(densities[r]) ** comb(k - 1, r - 1)
    pred_e *= sizes[k - 1]
    lo_e, hi_e = (1 - gamma) * pred_e, (1 + gamma) * pred_e
    exceptional = [e for e, c in ext.items() if not (lo_e <= c <= hi_e)]
    g = cx.layer(span)
    frac_exceptional = Fraction(len(exceptional), g.edge_count()) if g.edge_count() else Fraction(0)
    return {
        "count": count,
        "predicted": pred,
        "band": (lo, hi),
        "in_band": in_band,
        "extension_band": (lo_e, hi_e),
        "exceptional_fraction": frac_exceptional,
        "exceptional_ok": frac_exceptional <= gamma,
    }


def reduction_check(h: KPartiteKGraph, P: KPartition, delta) -> dict:
    """Hypothesis: in every polyad, every qualifying sub-polyad keeps at
    least two thirds of the polyad's relative density.  Conclusion: the
    (top-layer, last-class-cells) partition of the axis-k view is perfectly
    pairwise half-density regular at tolerance 2*sqrt(delta), each pair
    decided exactly.  Both sides are evaluated and reported separately;
    ``hypothesis_ok`` is None (undecided) when no violation was found but
    some polyad's sub-polyad lattice passed LATTICE_CAP."""
    from .graphs import aux_graph
    from .regularity import axis_partitions

    delta = Fraction(delta)
    k = h.k
    hyp_ok = True
    hyp_details = []
    for polyad, span_cells in partition_polyads(P, k):
        h_local = induced_subgraph_on_cells(h, _localize_span(h, span_cells))
        table, _, d_p = _polyad_density(h_local, polyad)
        if d_p == 0:  # no clique, or no edge among them
            continue
        try:
            masks = _first_deviation(polyad, table, delta, Fraction(2, 3) * d_p, None)
        except CapExceeded:
            hyp_details.append({"cap": True})
            continue
        if masks is not None:
            hyp_ok = False
            hyp_details.append({"polyad_density": d_p, "sub_density": relative_density(h_local, _sub_polyad(polyad, masks))})
    if hyp_ok and {"cap": True} in hyp_details:
        hyp_ok = None
    threshold = _two_sqrt(delta)
    view = aux_graph(h, k)
    left, right = axis_partitions(h, P, k, view)
    concl_ok = True
    concl_pairs = []
    for li, lcell in enumerate(left.cells):
        for ri, rcell in enumerate(right.cells):
            sub = _induced_pair(view.graph, lcell, rcell)
            v = is_delta_regular_pair(sub, threshold)
            concl_pairs.append((li, ri, v.status))
            if v.status != "regular":
                concl_ok = False
    return {
        "hypothesis_ok": hyp_ok,
        "hypothesis_details": hyp_details,
        "threshold": threshold,
        "conclusion_ok": concl_ok,
        "pairs": concl_pairs,
    }


def _two_sqrt(delta: Fraction) -> Fraction:
    """2*sqrt(delta), exact when delta is a rational square, else a dyadic
    upper bound."""
    if delta > 0:
        rn, rd = _iroot_floor(delta.numerator, 2), _iroot_floor(delta.denominator, 2)
        if rn * rn == delta.numerator and rd * rd == delta.denominator:
            return 2 * Fraction(rn, rd)
    return 2 * dyadic_root_ceil(delta, 2, 30)
