"""Two-sided polyad-density regularity notions and complex machinery.

These are the checkable forms of the partition-regularity definitions that
operate through clique sets: the relative density of a k-graph in a polyad,
(eps, d)-regularity against sub-polyads, partition-level regularity mass,
f-equitable layered partitions, downward-closed complexes with the dense
counting and slicing properties, and the reduction check that bridges these
notions to the half-density pair regularity of the bipartite axis views.
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


def counting_tolerance(k: int, gamma: Fraction, x: Fraction) -> Fraction:
    """(gamma^3 / 12) * (x/2)^(2^(k+1)), exact."""
    gamma, x = Fraction(gamma), Fraction(x)
    return gamma**3 / 12 * (x / 2) ** (1 << (k + 1))


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


def _sub_polyads_exact(p: Polyad, per_part_cap: int = 16, product_cap: int = 1 << 20):
    """All sub-polyads obtained by taking a subset of each part's edges
    (vertex subsets for arity 2)."""
    if p.r == 2:
        a, b = p.vertex_sets
        sizes = tuple(c.size for c in p.classes.classes)
        if len(a) > per_part_cap or len(b) > per_part_cap:
            raise CapExceeded("vertex sides exceed the per-part cap")
        subs_a = list(itertools.chain.from_iterable(itertools.combinations(a.tolist(), s) for s in range(len(a) + 1)))
        subs_b = list(itertools.chain.from_iterable(itertools.combinations(b.tolist(), s) for s in range(len(b) + 1)))
        if len(subs_a) * len(subs_b) > product_cap:
            raise CapExceeded("sub-polyad lattice exceeds the product cap")
        for sa in subs_a:
            for sb in subs_b:
                yield Polyad.pair(np.array(sa, dtype=np.int64), np.array(sb, dtype=np.int64), sizes=sizes)
        return
    part_subsets = []
    total = 1
    for part in p.parts:
        m = part.edge_count()
        if m > per_part_cap:
            raise CapExceeded(f"part with {m} edges exceeds the per-part cap")
        subs = list(itertools.chain.from_iterable(itertools.combinations(range(m), s) for s in range(m + 1)))
        total *= len(subs)
        if total > product_cap:
            raise CapExceeded("sub-polyad lattice exceeds the product cap")
        part_subsets.append(subs)
    for combo in itertools.product(*part_subsets):
        parts = []
        for part, chosen in zip(p.parts, combo):
            edges = part.edges_arr[list(chosen)] if chosen else np.empty((0, p.r - 1), dtype=np.int64)
            parts.append(KPartiteKGraph(part.classes, edges))
        yield Polyad(p.r, p.classes, parts)


def _random_sub_polyad(p: Polyad, rng) -> Polyad:
    if p.r == 2:
        a, b = p.vertex_sets
        sizes = tuple(c.size for c in p.classes.classes)
        sa = a[np.flatnonzero(rng.integers(0, 2, size=len(a)))]
        sb = b[np.flatnonzero(rng.integers(0, 2, size=len(b)))]
        return Polyad.pair(sa, sb, sizes=sizes)
    parts = []
    for part in p.parts:
        keep = np.flatnonzero(rng.integers(0, 2, size=part.edge_count()))
        edges = part.edges_arr[keep] if keep.size else np.empty((0, p.r - 1), dtype=np.int64)
        parts.append(KPartiteKGraph(part.classes, edges))
    return Polyad(p.r, p.classes, parts)


def is_eps_d_regular(
    h: KPartiteKGraph,
    p: Polyad,
    eps,
    d=None,
    mode: str = "exact",
    per_part_cap: int = 16,
    product_cap: int = 1 << 20,
    samples: int = 300,
    seed: int = 0,
) -> dict:
    """Every sub-polyad S with |K(S)| >= eps |K(P)| must have relative
    density within eps of d (default: the density in the whole polyad)."""
    eps = Fraction(eps)
    kp = clique_set(p)
    total = kp.edge_count()
    if total == 0:
        return {"status": "regular", "vacuous": True}
    d = Fraction(d) if d is not None else relative_density(h, p)
    if mode == "exact":
        for s in _sub_polyads_exact(p, per_part_cap, product_cap):
            ks = clique_set(s)
            if Fraction(ks.edge_count()) < eps * total:
                continue
            ds = relative_density(h, s)
            if abs(ds - d) > eps:
                return {"status": "irregular", "witness": s, "density": ds, "d": d}
        return {"status": "regular", "d": d}
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        s = _random_sub_polyad(p, rng)
        ks = clique_set(s)
        if Fraction(ks.edge_count()) < eps * total:
            continue
        ds = relative_density(h, s)
        if abs(ds - d) > eps:
            return {"status": "irregular", "witness": s, "density": ds, "d": d}
    return {"status": "unknown", "d": d, "samples": samples}


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
    for ci, cell in enumerate(P.layers[r]):
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
    out = np.empty_like(h.edges_arr)
    for j in range(h.k):
        out[:, j] = maps[j][h.edges_arr[:, j]]
        keep &= out[:, j] >= 0
    cls = VertexClassSet([(f"C{j}", len(vcells[j])) for j in range(h.k)])
    return KPartiteKGraph(cls, out[keep])


def is_eps_regular_partition(h: KPartiteKGraph, P: KPartition, eps, mode: str = "exact", **kw) -> dict:
    """Sum of |K(P)| over polyads whose induced piece fails the two-sided
    check, compared against eps * |V(H)|^k."""
    eps = Fraction(eps)
    k = h.k
    irregular_mass = 0
    details = []
    for polyad, span_cells in partition_polyads(P, k):
        kc = clique_set(polyad)
        mass = kc.edge_count()
        if mass == 0:
            continue
        vcells = _localize_span(h, span_cells)
        h_local = induced_subgraph_on_cells(h, vcells)
        verdict = is_eps_d_regular(h_local, polyad, eps, mode=mode, **kw)
        if verdict["status"] == "irregular":
            irregular_mass += mass
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


@dataclass
class EpsRegParams:
    """Layer part counts with the derived base density floor."""

    layer_counts: list  # a_1 .. a_{k-1}
    f: object  # callable density -> tolerance
    eps: Fraction = Fraction(1, 100)

    @property
    def d0(self) -> Fraction:
        return min(Fraction(1, a) for a in self.layer_counts[1:]) if len(self.layer_counts) > 1 else Fraction(1)


def is_f_equitable(P: KPartition, params: EpsRegParams, mode: str = "exact", **kw) -> dict:
    """Vertex layer equitable; every layer cell two-sided regular at
    tolerance f(d0) with target density 1/a_r inside its polyad."""
    if not P.vertex.is_equitable():
        return {"ok": False, "reason": "vertex layer not equitable"}
    eps = Fraction(params.f(params.d0))
    failures = []
    for r in sorted(P.layers):
        a_r = params.layer_counts[r - 1]
        for ci, cell in enumerate(P.layers[r]):
            poly = cell_polyad(P, r, ci)
            h_local, poly_local = _cell_as_local(P, r, ci, poly)
            verdict = is_eps_d_regular(h_local, poly_local, eps, d=Fraction(1, a_r), mode=mode, **kw)
            if verdict["status"] == "irregular":
                failures.append((r, ci))
    return {"ok": not failures, "eps": eps, "failures": failures}


def cell_polyad(P: KPartition, r: int, ci: int):
    """The under-polyad of a layer cell as explicit data."""
    prof = P.under(r, ci)
    if r == 2:
        return ("pair", prof)
    return ("cells", prof)


def _cell_as_local(P: KPartition, r: int, ci: int, poly):
    """The cell's tuples and its polyad, relabelled to local vertex cells."""
    cell = P.layers[r][ci]
    if r == 2:
        a_idx, b_idx = poly[1]
        a, b = P.vertex.cells[a_idx], P.vertex.cells[b_idx]
        polyad = Polyad.pair(np.arange(len(a)), np.arange(len(b)))
        amap = {int(v): i for i, v in enumerate(a)}
        bmap = {int(v): i for i, v in enumerate(b)}
        cls = VertexClassSet([("C0", len(a)), ("C1", len(b))])
        edges = []
        for row in cell:
            u = [int(x) for x in row]
            edges.append((amap[u[0]], bmap[u[1]]) if u[0] in amap else (amap[u[1]], bmap[u[0]]))
        return KPartiteKGraph(cls, np.array(edges, dtype=np.int64).reshape(-1, 2)), polyad
    # arity >= 3: vertex cells from the cell's own span
    span = sorted({P.vertex.cell_of(int(v)) for v in cell.ravel()})
    vcells = [P.vertex.cells[c] for c in span]
    maps = [{int(v): i for i, v in enumerate(vc)} for vc in vcells]
    cls = VertexClassSet([(f"C{j}", len(vc)) for j, vc in enumerate(vcells)])
    edges = []
    for row in cell:
        local = [None] * r
        for v in (int(x) for x in row):
            j = next(jj for jj, mp in enumerate(maps) if v in mp)
            local[j] = maps[j][v]
        edges.append(local)
    h_local = KPartiteKGraph(cls, np.array(edges, dtype=np.int64).reshape(-1, r))
    polyad = _polyad_from_cells(P, tuple(span), P.under(r, ci))
    return h_local, polyad


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
                for row in g.edges_arr:
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


def random_complex(classes: VertexClassSet, densities: dict, seed: int) -> RankedComplex:
    """Random downward-closed complex: rank-2 layers are independent coin
    flips, each higher rank keeps each closed candidate with its density."""
    rng = np.random.default_rng(seed)
    k = len(classes)
    layers = {}
    for r in range(2, k):
        layers[r] = {}
        for span in itertools.combinations(range(k), r):
            cls = VertexClassSet([(classes.classes[j].name, classes.classes[j].size) for j in span])
            if r == 2:
                cand = np.array(list(itertools.product(*[range(classes.classes[j].size) for j in span])), dtype=np.int64)
            else:
                span_t = sorted(span)
                cand_rows = []
                base = layers[r - 1][frozenset(span_t[:-1])]
                last_cls = classes.classes[span_t[-1]]
                for row in base.edges_arr:
                    for v in range(last_cls.size):
                        full = list(row) + [v]
                        ok = True
                        for drop in range(r - 1):
                            sub_span = frozenset(span_t[:drop] + span_t[drop + 1 :])
                            sub_row = [full[j] for j in range(r) if j != drop]
                            if not layers[r - 1][sub_span].contains(sub_row):
                                ok = False
                                break
                        if ok:
                            cand_rows.append(full)
                cand = np.array(cand_rows, dtype=np.int64).reshape(-1, r)
            keep = rng.random(len(cand)) < float(densities[r])
            layers[r][frozenset(span)] = KPartiteKGraph(cls, cand[keep])
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
    for row in g.edges_arr:
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


def measured_layer_densities(cx: RankedComplex) -> dict:
    """Per-rank relative densities (edges over closed candidates)."""
    out = {}
    for r in sorted(cx.layers):
        fracs = []
        for span, g in cx.layers[r].items():
            denom = _closed_candidates(cx, r, span)
            fracs.append(Fraction(g.edge_count(), denom) if denom else Fraction(0))
        out[r] = fracs
    return out


def _closed_candidates(cx: RankedComplex, r: int, span) -> int:
    span_t = sorted(span)
    if r == 2:
        a, b = (cx.classes.classes[j].size for j in span_t)
        return a * b
    count = 0
    base = cx.layers[r - 1][frozenset(span_t[:-1])]
    last = cx.classes.classes[span_t[-1]]
    for row in base.edges_arr:
        for v in range(last.size):
            full = list(row) + [v]
            ok = True
            for drop in range(r - 1):
                sub_span = frozenset(span_t[:drop] + span_t[drop + 1 :])
                sub_row = [full[j] for j in range(r) if j != drop]
                if not cx.layers[r - 1][sub_span].contains(sub_row):
                    ok = False
                    break
            if ok:
                count += 1
    return count


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


def induced_complex(cx: RankedComplex, last_subset) -> RankedComplex:
    """Slice the last class to a subset (local indices)."""
    k = cx.k
    keep = np.unique(np.asarray(last_subset, dtype=np.int64))
    remap = np.full(cx.classes.classes[k - 1].size, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    new_classes = VertexClassSet(
        [(c.name, c.size) for c in cx.classes.classes[:-1]] + [(cx.classes.classes[-1].name, len(keep))]
    )
    layers = {}
    for r, spans in cx.layers.items():
        layers[r] = {}
        for span, g in spans.items():
            span_t = sorted(span)
            if (k - 1) not in span:
                layers[r][span] = g
                continue
            pos = span_t.index(k - 1)
            edges = g.edges_arr.copy()
            mapped = remap[edges[:, pos]]
            sel = mapped >= 0
            edges = edges[sel]
            edges[:, pos] = remap[edges[:, pos]]
            cls = VertexClassSet(
                [(cx.classes.classes[j].name, (len(keep) if j == k - 1 else cx.classes.classes[j].size)) for j in span_t]
            )
            layers[r][span] = KPartiteKGraph(cls, edges)
    return RankedComplex(new_classes, layers)


def measured_regularity(cx: RankedComplex, mode: str = "sampled", samples: int = 120, seed: int = 0) -> dict:
    """Per-(rank, span) maximum observed density deviation of qualifying
    random sub-polyads; a measurement, not a proof."""
    rng = np.random.default_rng(seed)
    out = {}
    for r in sorted(cx.layers):
        for span, g in cx.layers[r].items():
            span_t = sorted(span)
            if r == 2:
                a, b = (cx.classes.classes[j].size for j in span_t)
                poly = Polyad.pair(np.arange(a), np.arange(b))
            else:
                parts = []
                for drop_pos in range(r):
                    sub_span = frozenset(span_t[:drop_pos] + span_t[drop_pos + 1 :])
                    parts.append(cx.layers[r - 1][sub_span])
                cls = VertexClassSet([(cx.classes.classes[j].name, cx.classes.classes[j].size) for j in span_t])
                poly = Polyad(r, cls, parts)
            kc = clique_set(poly)
            if kc.edge_count() == 0:
                out[(r, tuple(span_t))] = None
                continue
            d = Fraction(len(np.intersect1d(kc.encoded, g.encoded)), kc.edge_count())
            worst = Fraction(0)
            for _ in range(samples):
                s = _random_sub_polyad(poly, rng)
                ks = clique_set(s)
                if ks.edge_count() * 10 < kc.edge_count():
                    continue
                ds = Fraction(len(np.intersect1d(ks.encoded, g.encoded)), ks.edge_count()) if ks.edge_count() else Fraction(0)
                worst = max(worst, abs(ds - d))
            out[(r, tuple(span_t))] = {"density": d, "max_deviation": worst}
    return out


def slicing_check(cx: RankedComplex, last_subset, f, delta, samples: int = 120, seed: int = 0) -> dict:
    """Measure regularity parameters of the induced complex against the
    (2/delta) * f band; a property report, not a proof."""
    delta = Fraction(delta)
    if Fraction(len(np.unique(np.asarray(last_subset)))) < delta * cx.classes.classes[-1].size:
        raise ValueError("slice is smaller than the declared fraction")
    before = measured_regularity(cx, samples=samples, seed=seed)
    sliced = induced_complex(cx, last_subset)
    after = measured_regularity(sliced, samples=samples, seed=seed)
    dens = measured_layer_densities(cx)
    d0 = min((min(v) for v in dens.values() if v), default=Fraction(1))
    budget = Fraction(f(d0)) if callable(f) else Fraction(f)
    f_star = 2 * budget / delta
    worst_after = max(
        (v["max_deviation"] for v in after.values() if v is not None),
        default=Fraction(0),
    )
    return {
        "before": before,
        "after": after,
        "f": budget,
        "f_star": f_star,
        "worst_after": worst_after,
        "within_band": worst_after <= f_star,
    }


def reduction_check(
    h: KPartiteKGraph,
    P: KPartition,
    delta,
    mode: str = "exact",
    cap: int = 1 << 24,
    samples: int = 200,
    seed: int = 0,
    per_part_cap: int = 16,
    product_cap: int = 1 << 20,
) -> dict:
    """Hypothesis: in every polyad, every qualifying sub-polyad keeps at
    least two thirds of the polyad's relative density.  Conclusion: the
    (top-layer, last-class-cells) partition of the axis-k view is perfectly
    pairwise half-density regular at tolerance 2*sqrt(delta).  Both sides
    are evaluated and reported separately."""
    from .graphs import aux_graph
    from .regularity import axis_partitions

    delta = Fraction(delta)
    k = h.k
    hyp_ok = True
    hyp_details = []
    for polyad, span_cells in partition_polyads(P, k):
        kc = clique_set(polyad)
        if kc.edge_count() == 0:
            continue
        h_local = induced_subgraph_on_cells(h, _localize_span(h, span_cells))
        d_p = relative_density(h_local, polyad)
        if d_p == 0:
            continue
        checker = (
            _sub_polyads_exact(polyad, per_part_cap, product_cap)
            if mode == "exact"
            else _sampled_polyads(polyad, samples, seed)
        )
        try:
            for s in checker:
                ks = clique_set(s)
                if Fraction(ks.edge_count()) < delta * kc.edge_count():
                    continue
                ds = relative_density(h_local, s)
                if ds < Fraction(2, 3) * d_p:
                    hyp_ok = False
                    hyp_details.append({"polyad_density": d_p, "sub_density": ds})
                    break
        except CapExceeded:
            hyp_details.append({"cap": True})
    threshold = _two_sqrt(delta)
    view = aux_graph(h, k)
    left, right = axis_partitions(h, P, k, view)
    concl_ok = True
    concl_pairs = []
    for li, lcell in enumerate(left.cells):
        for ri, rcell in enumerate(right.cells):
            sub = _induced_pair(view.graph, lcell, rcell)
            v = is_delta_regular_pair(sub, threshold, mode="exact", cap=cap)
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


def _sampled_polyads(poly, samples, seed):
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        yield _random_sub_polyad(poly, rng)


def _two_sqrt(delta: Fraction) -> Fraction:
    """2*sqrt(delta), exact when delta is a rational square, else a dyadic
    upper bound."""
    if delta > 0:
        rn, rd = _iroot_floor(delta.numerator, 2), _iroot_floor(delta.denominator, 2)
        if rn * rn == delta.numerator and rd * rd == delta.denominator:
            return 2 * Fraction(rn, rd)
    return 2 * dyadic_root_ceil(delta, 2, 30)
