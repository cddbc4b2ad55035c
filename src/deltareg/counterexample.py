"""Triangle-free tripartite instances that pass every half-density subset
check on each class pair.

Recipe: sample a tripartite random graph, audit its triangle count and its
pairwise density concentration, delete one edge per triangle spreading the
deletions evenly over the three class pairs, then blow up.  The blowup's
subset bounds reduce to the base graph through convex decompositions of
fractional indicator vectors into binary vectors of equal total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .graphs import BipartiteGraph, VertexClass, blowup, edges_between


def convex_decompose(x) -> list:
    """Write a [0,1]-vector with integral total as a convex combination of
    0/1 vectors with the same total.

    Greedy peeling: repeatedly take the indicator of the largest coordinates
    and the largest weight keeping the remainder inside the cube; each round
    fixes at least one coordinate at 0 or 1, so at most n rounds occur.
    Exact rational arithmetic throughout; weights sum to one and the
    combination reproduces the input exactly.
    """
    x = [Fraction(v) for v in x]
    n = len(x)
    if any(v < 0 or v > 1 for v in x):
        raise ValueError("coordinates must lie in [0, 1]")
    total = sum(x)
    if total.denominator != 1:
        raise ValueError("the coordinate total must be an integer")
    m = int(total)
    terms = []
    remaining = Fraction(1)
    cur = x[:]
    if m == 0:
        return [(Fraction(1), np.zeros(n, dtype=np.int64))]
    for _ in range(n + 1):
        order = sorted(range(n), key=lambda i: (-cur[i], i))
        support = order[:m]
        y = np.zeros(n, dtype=np.int64)
        y[support] = 1
        in_min = min(cur[i] for i in support)
        out_max = max((cur[i] for i in order[m:]), default=Fraction(0))
        w = min(in_min, 1 - out_max)
        if w >= 1:
            terms.append((remaining, y))
            return terms
        terms.append((remaining * w, y))
        cur = [(cur[i] - w * int(y[i])) / (1 - w) for i in range(n)]
        remaining *= 1 - w
    raise AssertionError("decomposition failed to terminate")


@dataclass
class CounterexampleParams:
    delta: Fraction
    q: Fraction
    k: int
    m: int
    seed: int
    relaxed: bool = True
    max_resamples: int = 50

    @property
    def p(self) -> Fraction:
        return self.q / 3

    def validate_strict(self):
        """Full-scale window: q = 3p with p <= delta^5/1000 and
        64 delta^-2 q^-1 <= k <= delta^3 q^-2 / 4."""
        delta, q, k = Fraction(self.delta), Fraction(self.q), self.k
        p = q / 3
        if p > delta**5 / 1000:
            raise ValueError("edge probability too large for the window")
        lo = 64 / (delta**2 * q)
        hi = delta**3 / (4 * q * q)
        if not (lo <= k <= hi):
            raise ValueError(f"class size {k} outside the window [{lo}, {hi}]")


@dataclass
class TripartiteGraph:
    """Three pairwise bipartite graphs on classes (A, B, C)."""

    n: int
    ab: BipartiteGraph
    ac: BipartiteGraph
    bc: BipartiteGraph

    def pair(self, a: int, b: int) -> BipartiteGraph:
        return {(0, 1): self.ab, (0, 2): self.ac, (1, 2): self.bc}[(a, b)]

    def triangle_count(self) -> int:
        return int(_kernels.triangle_count(self.ab.rows, self.ac.rows, self.bc.rows, self.ab.right.size))

    def triangles(self) -> np.ndarray:
        return _kernels.triangle_list(self.ab.rows, self.ac.rows, self.bc.rows, self.ab.right.size, self.ac.right.size)


@dataclass
class BuildAudit:
    resamples: int = 0
    triangle_history: list = field(default_factory=list)
    deletions: dict = field(default_factory=dict)
    densities: dict = field(default_factory=dict)
    density_audit_ok: bool = True
    triangle_gate_ok: bool = True

    def to_text(self) -> str:
        lines = ["counterexample-audit v1", f"resamples {self.resamples}"]
        lines.append("triangle-history " + ",".join(str(t) for t in self.triangle_history))
        for k in sorted(self.deletions):
            lines.append(f"deletions {k} {self.deletions[k]}")
        for k in sorted(self.densities):
            lines.append(f"density {k} {self.densities[k]}")
        lines.append(f"density-audit-ok {self.density_audit_ok}")
        lines.append(f"triangle-gate-ok {self.triangle_gate_ok}")
        return "\n".join(lines) + "\n"


def _sample_tripartite(n: int, q: Fraction, rng) -> TripartiteGraph:
    def rand_pair(name_l, name_r):
        bits = rng.random((n, n)) < float(q)
        edges = np.argwhere(bits)
        return BipartiteGraph.from_edges(VertexClass(name_l, n), VertexClass(name_r, n), edges)

    return TripartiteGraph(n=n, ab=rand_pair("A", "B"), ac=rand_pair("A", "C"), bc=rand_pair("B", "C"))


def _density_audit(g: TripartiteGraph, params: CounterexampleParams, rng, samples: int = 60) -> bool:
    """Sampled audit of d(S, T) = (1 +- delta/3) q on threshold-size subsets."""
    delta, q = params.delta, params.q
    n = g.n
    size = max(1, -(-delta.numerator * n // delta.denominator))
    for pair in (g.ab, g.ac, g.bc):
        for _ in range(samples):
            S = rng.choice(n, size=size, replace=False)
            T = rng.choice(n, size=size, replace=False)
            d = Fraction(edges_between(pair, S, T), size * size)
            if abs(d - q) > delta * q / 3:
                return False
    return True


def build_triangle_free(params: CounterexampleParams) -> tuple[TripartiteGraph, BuildAudit]:
    """Sample, audit, delete one edge per triangle (balanced across the
    three pairs, lexicographic triangle order, ties to the lowest pair
    index), then blow up."""
    rng = np.random.default_rng(np.random.PCG64(params.seed))
    if not params.relaxed:
        params.validate_strict()
    audit = BuildAudit()
    gate = float(params.delta) ** 3 * params.k**2 * float(params.q)
    base = None
    for attempt in range(params.max_resamples):
        g = _sample_tripartite(params.k, params.q, rng)
        tri = g.triangle_count()
        audit.triangle_history.append(tri)
        gate_ok = tri <= gate
        dens_ok = _density_audit(g, params, rng)
        if params.relaxed:
            audit.triangle_gate_ok = gate_ok
            audit.density_audit_ok = dens_ok
            base = g
            audit.resamples = attempt
            break
        if gate_ok and dens_ok:
            base = g
            audit.resamples = attempt
            break
    if base is None:
        raise RuntimeError("resample budget exhausted")
    graphs = {(0, 1): base.ab, (0, 2): base.ac, (1, 2): base.bc}
    deleted = {p: 0 for p in graphs}
    adj = {p: _kernels.unpack_rows(g.rows, g.right.size).astype(bool) for p, g in graphs.items()}
    for a, b, c in base.triangles():
        a, b, c = int(a), int(b), int(c)
        ends = {(0, 1): (a, b), (0, 2): (a, c), (1, 2): (b, c)}
        if not all(adj[p][e] for p, e in ends.items()):
            continue  # destroyed by an earlier deletion
        pair = min(deleted, key=lambda p: (deleted[p], p))
        adj[pair][ends[pair]] = False
        deleted[pair] += 1
    ab, ac, bc = (BipartiteGraph(g.left, g.right, _kernels.pack_rows(adj[p])) for p, g in graphs.items())
    cleaned = TripartiteGraph(n=base.n, ab=ab, ac=ac, bc=bc)
    assert cleaned.triangle_count() == 0, "deletion pass must leave no triangles"
    audit.deletions = {f"{a}{b}": deleted[(a, b)] for (a, b) in deleted}
    for name, pair in (("ab", cleaned.ab), ("ac", cleaned.ac), ("bc", cleaned.bc)):
        audit.densities[name] = Fraction(pair.edge_count(), params.k**2)
    final = TripartiteGraph(
        n=cleaned.n * params.m,
        ab=blowup(cleaned.ab, params.m),
        ac=blowup(cleaned.ac, params.m),
        bc=blowup(cleaned.bc, params.m),
    ) if params.m > 1 else cleaned
    return final, audit


def verify_counterexample(
    g: TripartiteGraph,
    params: CounterexampleParams,
    mode: str = "exact",
    base: TripartiteGraph | None = None,
    subset_checks: int = 50,
    seed: int = 0,
) -> dict:
    """Triangle-freeness exactly; the strengthened pair property
    e(S, T) >= (1 - delta) d(pair) |S||T| on the base graph (exact at the
    minimal qualifying size when tractable); and, for a blowup, agreement of
    e(S, T) computed directly with the bilinear form through convex
    decompositions on random subset pairs."""
    report = {"triangles": g.triangle_count()}
    report["triangle_free"] = report["triangles"] == 0
    delta = Fraction(params.delta)
    if base is not None:
        report["base_pair_property"] = {}
        for name, pair in (("ab", base.ab), ("ac", base.ac), ("bc", base.bc)):
            report["base_pair_property"][name] = _strengthened_pair_check(pair, delta, mode=mode)
    if params.m > 1 and base is not None:
        rng = np.random.default_rng(seed)
        agree = True
        for _ in range(subset_checks):
            ok = _blowup_bilinear_check(g, base, params.m, delta, rng)
            agree = agree and ok
        report["blowup_decomposition_agrees"] = agree
    return report


def _strengthened_pair_check(pair: BipartiteGraph, delta: Fraction, mode: str = "exact", cap: int = 1 << 22) -> dict:
    """min over threshold-size subset pairs of e(S,T) vs (1-delta) d |S||T|."""
    import math

    n_l, n_r = pair.left.size, pair.right.size
    d = Fraction(pair.edge_count(), n_l * n_r)
    if d == 0:
        return {"status": "vacuous-empty"}
    a = max(1, math.ceil(delta * n_l))
    b = max(1, math.ceil(delta * n_r))
    if mode == "exact" and math.comb(n_l, a) <= cap:
        _, e_min, _ = _kernels.subset_min_edges(pair.rows, n_r, a, b)
        worst = Fraction(e_min, a * b)
        return {"status": "checked", "min_density": worst, "bound": (1 - delta) * d, "ok": worst >= (1 - delta) * d}
    # sampled fallback
    rng = np.random.default_rng(1)
    worst = None
    for _ in range(400):
        S = rng.choice(n_l, size=a, replace=False)
        T = rng.choice(n_r, size=b, replace=False)
        r = Fraction(edges_between(pair, S, T), a * b)
        if worst is None or r < worst:
            worst = r
    return {"status": "sampled", "min_density": worst, "bound": (1 - delta) * d, "ok": worst >= (1 - delta) * d}


def _blowup_bilinear_check(g: TripartiteGraph, base: TripartiteGraph, m: int, delta: Fraction, rng) -> bool:
    """e(S, T) in the blowup equals m^2 * sum_ij a_i b_j (s_i^T A t_j) for
    the convex decompositions of the per-vertex occupancy vectors."""
    k = base.n
    pair_big, pair_base = {0: (g.ab, base.ab), 1: (g.ac, base.ac), 2: (g.bc, base.bc)}[int(rng.integers(3))]
    # subset sizes must be multiples of m for integral occupancy totals
    target = int(rng.integers(1, k)) * m
    S = _random_subset_with_occupancy(k, m, target, rng)
    T = _random_subset_with_occupancy(k, m, target, rng)
    direct = edges_between(pair_big, S, T)
    s = _occupancy(S, k, m)
    t = _occupancy(T, k, m)
    sd = convex_decompose(s)
    td = convex_decompose(t)
    A = _kernels.unpack_rows(pair_base.rows, k).astype(np.int64)
    total = Fraction(0)
    for w1, y1 in sd:
        for w2, y2 in td:
            total += w1 * w2 * int(y1 @ A @ y2)
    return direct == m * m * total


def _occupancy(S: np.ndarray, k: int, m: int):
    counts = np.bincount(np.asarray(S, dtype=np.int64) // m, minlength=k)
    return [Fraction(int(c), m) for c in counts]


def _random_subset_with_occupancy(k: int, m: int, target: int, rng) -> np.ndarray:
    perm = rng.permutation(k * m)
    return np.sort(perm[:target]).astype(np.int64)
