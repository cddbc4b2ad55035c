"""Triangle-free tripartite instances built to pass the half-density subset
check on each class pair.

Recipe: sample a tripartite random graph once from the seed, record its
triangle count against the gate delta^3 k^2 q, delete one edge per
triangle spreading the deletions evenly over the three class pairs, then
blow up.  One build path: the full-scale window of ``validate_strict`` is
a check on the params, not a different build.

Verification is exact and draws nothing.  It decides triangle-freeness,
and the strengthened pair property on the base by one exact branch and
bound search when its C(n_left, a) left subsets fit PAIR_CHECK_CAP; past
the cap the property is "undecided", never sampled.  It can fail: at the
seed-5 desk profile ``regularity.find_delta_witness`` finds a recounted
witness on every pair.  A blowup is checked bit for bit against ``blowup``
of its base; the blowup's subset counts then reduce to the base through
the convex decompositions of ``convex_decompose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .graphs import BipartiteGraph, VertexClass, blowup

# left subsets one exact strengthened-pair search may range over
PAIR_CHECK_CAP = 1 << 22


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

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError(f"class size k {self.k} and blowup m {self.m} must be at least 1")
        if not (0 < self.q <= 1 and 0 < self.delta <= 1):
            raise ValueError(f"q {self.q} and delta {self.delta} must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")

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
        return int(_kernels.triangle_count(self.ab.rows, self.ac.rows, self.bc.rows))

    def triangles(self) -> np.ndarray:
        return _kernels.triangle_list(self.ab.rows, self.ac.rows, self.bc.rows)


@dataclass
class BuildAudit:
    triangles: int = 0
    deletions: dict = field(default_factory=dict)
    densities: dict = field(default_factory=dict)
    triangle_gate_ok: bool = True

    def to_text(self) -> str:
        # one draw: its triangle history is its one count
        lines = ["counterexample-audit v1", f"triangle-history {self.triangles}"]
        for k in sorted(self.deletions):
            lines.append(f"deletions {k} {self.deletions[k]}")
        for k in sorted(self.densities):
            lines.append(f"density {k} {self.densities[k]}")
        lines.append(f"triangle-gate-ok {self.triangle_gate_ok}")
        return "\n".join(lines) + "\n"


def _sample_tripartite(n: int, q: Fraction, rng) -> TripartiteGraph:
    def rand_pair(name_l, name_r):
        bits = rng.random((n, n)) < float(q)
        edges = np.argwhere(bits)
        return BipartiteGraph.from_edges(VertexClass(name_l, n), VertexClass(name_r, n), edges)

    return TripartiteGraph(n=n, ab=rand_pair("A", "B"), ac=rand_pair("A", "C"), bc=rand_pair("B", "C"))


def build_triangle_free(params: CounterexampleParams) -> tuple[TripartiteGraph, BuildAudit]:
    """Sample once, record the triangle gate, delete one edge per triangle
    (balanced across the three pairs, lexicographic triangle order, ties to
    the lowest pair index), then blow up."""
    rng = np.random.default_rng(np.random.PCG64(params.seed))
    base = _sample_tripartite(params.k, params.q, rng)
    tri = base.triangle_count()
    audit = BuildAudit(triangles=tri, triangle_gate_ok=tri <= Fraction(params.delta) ** 3 * params.k**2 * Fraction(params.q))
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
    if cleaned.triangle_count():
        raise AssertionError("deletion pass must leave no triangles")
    audit.deletions = {f"{a}{b}": deleted[(a, b)] for (a, b) in deleted}
    for name, pair in (("ab", cleaned.ab), ("ac", cleaned.ac), ("bc", cleaned.bc)):
        audit.densities[name] = Fraction(pair.edge_count(), params.k**2)
    m = params.m
    final = TripartiteGraph(n=cleaned.n * m, ab=blowup(cleaned.ab, m), ac=blowup(cleaned.ac, m), bc=blowup(cleaned.bc, m))
    return final, audit


def verify_counterexample(
    g: TripartiteGraph,
    params: CounterexampleParams,
    mode: str = "exact",
    base: TripartiteGraph | None = None,
) -> dict:
    """Triangle-freeness exactly; the strengthened pair property
    e(S, T) >= (1 - delta) d(pair) |S||T| on the base graph, decided by one
    exact search at the minimal qualifying size when it fits the cap and
    reported "undecided" otherwise; and, for a blowup, ``blowup_exact``:
    each pair equals ``blowup(base pair, m)`` bit for bit.  With the exact
    recombination of ``convex_decompose``, that equality gives the bilinear
    identity e(S, T) = m^2 sum_ij a_i b_j (s_i^T A t_j) for every S and T;
    singleton S and T give the converse.  Only ``mode="exact"`` is
    accepted: nothing is sampled."""
    if mode != "exact":
        raise ValueError(f"mode {mode!r}: the pair property is decided exactly or not at all")
    report = {"triangles": g.triangle_count()}
    report["triangle_free"] = report["triangles"] == 0
    delta = Fraction(params.delta)
    if base is not None:
        report["base_pair_property"] = {}
        for name, pair in (("ab", base.ab), ("ac", base.ac), ("bc", base.bc)):
            report["base_pair_property"][name] = _strengthened_pair_check(pair, delta)
    if params.m > 1 and base is not None:
        report["blowup_exact"] = all(
            big == blowup(small, params.m) for big, small in ((g.ab, base.ab), (g.ac, base.ac), (g.bc, base.bc))
        )
    return report


def _strengthened_pair_check(pair: BipartiteGraph, delta: Fraction) -> dict:
    """min over threshold-size subset pairs of e(S,T) vs (1-delta) d |S||T|,
    by one exact branch and bound search, whose minimum is the minimum
    over every a-subset, when C(n_l, a) <= PAIR_CHECK_CAP; past the cap the
    claim is "undecided", with its bound and no verdict."""
    n_l, n_r = pair.left.size, pair.right.size
    d = Fraction(pair.edge_count(), n_l * n_r)
    if d == 0:
        return {"status": "vacuous-empty"}
    a = max(1, math.ceil(delta * n_l))
    b = max(1, math.ceil(delta * n_r))
    bound = (1 - delta) * d
    if math.comb(n_l, a) > PAIR_CHECK_CAP:
        return {"status": "undecided", "bound": bound}
    _, e_min, _ = _kernels.subset_min_edges(pair.rows, n_r, a, b)
    worst = Fraction(e_min, a * b)
    return {"status": "checked", "min_density": worst, "bound": bound, "ok": worst >= bound}
