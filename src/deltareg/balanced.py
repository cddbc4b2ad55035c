"""Balanced bipartite graphs: verification, sampling, and weighted counts.

A graph on (X, Y) with cell partitions and a family of Y-subsets is balanced
when (i) every y sees exactly half of every X-cell, (ii) within each family
member, every pair of X-vertices agrees (both neighbors or both
non-neighbors) on at most a (1/2 + beta) fraction, (iii) codegrees of
distinct family Y-vertices inside each X-cell stay below (1+alpha)/4 of the
cell, and (iv) each Y-cell is closed under complement via an involution.

The sampler draws exact half neighborhoods per (X-cell, y) for one half of
each Y-cell and mirrors the complement onto the other half, so (i) and (iv)
hold on every draw; (ii) and (iii) are verified and the whole draw is
retried on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .graphs import BipartiteGraph, VertexClass
from .partitions import VertexPartition


@dataclass
class BalanceSpec:
    """Cell structure and parameters for balancedness.

    X and Y partition abstract index spaces; family members are unions of
    Y-cells, all of one size.  X-cells share one even size.
    """

    x_cells: VertexPartition
    y_cells: VertexPartition
    family: list  # list of sorted np.ndarray of Y indices
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        self.alpha = Fraction(self.alpha)
        self.beta = Fraction(self.beta)
        sizes = self.x_cells.cell_sizes()
        if len(set(sizes)) != 1 or sizes[0] % 2:
            raise ValueError("X-cells must share one even size")
        self.m = sizes[0]
        if any(s % 2 for s in self.y_cells.cell_sizes()):
            raise ValueError("Y-cells must have even size")
        self.family = [np.unique(np.asarray(F, dtype=np.int64)) for F in self.family]
        ksizes = {len(F) for F in self.family}
        if len(ksizes) > 1:
            raise ValueError("family members must share one size")
        self.k = ksizes.pop() if ksizes else 0
        for F in self.family:
            cells = {self.y_cells.cell_of(int(y)) for y in F}
            covered = sorted(int(v) for c in cells for v in self.y_cells.cells[c])
            if covered != F.tolist():
                raise ValueError("family members must be unions of Y-cells")

    @property
    def nx(self):
        return self.x_cells.n

    @property
    def ny(self):
        return self.y_cells.n


@dataclass
class BalancedGraph:
    graph: BipartiteGraph  # on (X, Y)
    spec: BalanceSpec
    involution: np.ndarray  # phi over Y indices

    def y_rows(self) -> np.ndarray:
        return self.graph.transposed().rows

    def to_text(self) -> str:
        """Graph plus explicit pairing table; verification needs nothing
        else beyond the cell spec."""
        from .graphs import bipartite_to_text

        phi = " ".join(str(int(v)) for v in self.involution)
        return bipartite_to_text(self.graph) + "phi " + phi + "\n"


def balanced_from_text(text: str, spec: BalanceSpec) -> BalancedGraph:
    from .graphs import bipartite_from_text

    body, phi_line = text.rstrip("\n").rsplit("\n", 1)
    if not phi_line.startswith("phi "):
        raise ValueError("missing pairing table")
    phi = np.array([int(x) for x in phi_line.split()[1:]], dtype=np.int64)
    graph = bipartite_from_text(body + "\n")
    if len(phi) != spec.ny or np.any(phi[phi] != np.arange(spec.ny)):
        raise ValueError("pairing table is not an involution")
    return BalancedGraph(graph=graph, spec=spec, involution=phi)


@dataclass
class VerifyReport:
    ok: bool
    first_violation: str | None
    checked: dict = field(default_factory=dict)
    involution: np.ndarray | None = None


def _y_major(graph: BipartiteGraph) -> np.ndarray:
    return graph.transposed().rows


def verify_balanced(candidate: BipartiteGraph, spec: BalanceSpec, conditions=("i", "ii", "iii", "iv")) -> VerifyReport:
    """Exact check of the four conditions; reports the first violated one."""
    if candidate.left.size != spec.nx or candidate.right.size != spec.ny:
        raise ValueError("graph does not match the spec's index spaces")
    yrows = _y_major(candidate)  # per-y bits over X
    checked = {}
    # (i) exact half degrees per X-cell
    if "i" in conditions:
        starts, ends, aligned = _cell_segments(spec.x_cells)
        if aligned:  # a row's codegree with itself is its degree
            selves = np.repeat(np.arange(spec.ny), 2).reshape(-1, 2)
            degs = _kernels.and_popcount_pairs_segmented(yrows, selves, starts, ends)
        else:
            degs = np.stack([_kernels.masked_degrees(yrows, _kernels.pack_indices(cell, spec.nx)) for cell in spec.x_cells.cells], axis=1)
        bad = degs * 2 != spec.m
        if bad.any():
            ci = int(np.flatnonzero(bad.any(axis=0))[0])
            y = int(np.flatnonzero(bad[:, ci])[0])
            return VerifyReport(False, f"equitable-degrees: y={y} X-cell={ci}", checked)
        checked["i"] = True
    # (ii) agreement bound per family member
    if "ii" in conditions:
        if spec.beta >= Fraction(1, 2):
            checked["ii"] = "vacuous"  # bound >= |F| always holds
        else:
            xrows = candidate.rows  # per-x bits over Y
            bn, bd = spec.beta.numerator, spec.beta.denominator
            pairs = _all_pairs(spec.nx)
            for fi, F in enumerate(spec.family):
                fm = _kernels.pack_indices(F, spec.ny)
                sub = xrows & fm[None, :]
                ham = _kernels.xor_popcount_pairs(sub, pairs)
                agree = len(F) - ham
                # agree > (1/2 + beta)|F|  <=>  2*agree*bd > |F|*(bd + 2*bn)
                bad = np.flatnonzero(2 * agree * bd > len(F) * (bd + 2 * bn))
                if bad.size:
                    i, j = pairs[int(bad[0])]
                    return VerifyReport(False, f"agreement: member={fi} x={int(i)} x'={int(j)}", checked)
            checked["ii"] = True
    # (iii) codegree bound per (X-cell, member, y pair)
    if "iii" in conditions:
        viol = _codegree_violation(yrows, spec)
        if viol is not None:
            return VerifyReport(False, f"codegree: {viol}", checked)
        checked["iii"] = True
    # (iv) per-Y-cell complement involution, found by complement lookup
    phi = None
    if "iv" in conditions:
        phi = _find_involution(yrows, spec)
        if phi is None:
            return VerifyReport(False, "complement-closure", checked)
        checked["iv"] = True
    return VerifyReport(True, None, checked, involution=phi)


def _all_pairs(n: int) -> np.ndarray:
    iu = np.triu_indices(n, k=1)
    return np.stack([iu[0], iu[1]], axis=1).astype(np.int64)


def _codegree_violation(yrows: np.ndarray, spec: BalanceSpec):
    """(1+alpha)/4 codegree bound inside every X-cell, per family member.

    Members overlap, so each distinct y-pair is counted once; the first
    violation is then reported in member order, then cell, then pair order.
    """
    starts, ends, aligned = _cell_segments(spec.x_cells)
    # codeg > (1+alpha)*m/4  <=>  4*codeg*ad > m*(ad + an), all integers
    an, ad = spec.alpha.numerator, spec.alpha.denominator
    lim = spec.m * (ad + an)
    member_keys = [_member_pair_keys(F, spec.ny) for F in spec.family]
    keys = np.concatenate(member_keys) if member_keys else np.empty(0, dtype=np.int64)
    if len(member_keys) > 1:
        keys = np.unique(keys)
    cell_rows = None if aligned else [yrows & _kernels.pack_indices(cell, spec.nx)[None, :] for cell in spec.x_cells.cells]
    bad = np.zeros((len(keys), 1 if aligned else len(cell_rows)), dtype=bool)
    for sl in _kernels.pair_chunks(len(keys), yrows.shape[1]):
        pairs = np.stack([keys[sl] // spec.ny, keys[sl] % spec.ny], axis=1)
        if aligned:
            counts = _kernels.and_popcount_pairs_segmented(yrows, pairs, starts, ends)
            bad[sl, 0] = 4 * counts.max(axis=1) * ad > lim
        else:
            for ci, rows in enumerate(cell_rows):
                bad[sl, ci] = 4 * _kernels.and_popcount_pairs(rows, pairs) * ad > lim
    if not bad.any():
        return None
    for fi, mk in enumerate(member_keys):
        hit = bad[np.searchsorted(keys, mk)]
        for ci in range(hit.shape[1]):
            first = np.flatnonzero(hit[:, ci])
            if first.size:
                y, y2 = divmod(int(mk[first[0]]), spec.ny)
                where = "" if aligned else f" X-cell={ci}"
                return f"member={fi}{where} y={y} y'={y2}"
    return None


def _member_pair_keys(F: np.ndarray, ny: int) -> np.ndarray:
    """Pairs y < y' of a sorted member as keys y*ny + y', in pair order."""
    iu = np.triu_indices(len(F), k=1)
    return F[iu[0]] * ny + F[iu[1]]


def _cell_segments(cells: VertexPartition):
    """Word-aligned segment bounds when every cell is a contiguous 64-aligned
    block; enables the segmented kernel."""
    starts, ends = [], []
    for cell in cells.cells:
        lo, hi = int(cell[0]), int(cell[-1]) + 1
        if hi - lo != len(cell) or lo % 64 or hi % 64:
            return None, None, False
        starts.append(lo // 64)
        ends.append(hi // 64)
    return np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64), True


def _find_involution(yrows: np.ndarray, spec: BalanceSpec):
    phi = np.full(spec.ny, -1, dtype=np.int64)
    comps = _kernels.complement_rows(yrows, spec.nx)
    for cell in spec.y_cells.cells:
        lookup = {}
        for y in cell:
            lookup.setdefault(yrows[int(y)].tobytes(), []).append(int(y))
        for y in cell:
            if phi[int(y)] != -1:
                continue
            mates = lookup.get(comps[int(y)].tobytes(), [])
            mate = next((m for m in mates if phi[m] == -1 and m != int(y)), None)
            if mate is None:
                return None
            phi[int(y)] = mate
            phi[mate] = int(y)
    return phi


class SamplerExhausted(Exception):
    def __init__(self, failures):
        self.failures = failures
        super().__init__(f"sampler retries exhausted; failure counts {failures}")


def sample_balanced(
    spec: BalanceSpec,
    seed: int,
    max_retries: int = 50,
    enforce=("ii", "iii"),
) -> tuple[BalancedGraph, dict]:
    """Draw until a sample passes the enforced conditions.

    Each Y-cell splits in index order into a first and second half; the
    first half receives independent exact-half neighborhoods per X-cell and
    the second half mirrors the complement through the pairing.  Conditions
    (i) and (iv) are asserted on every draw (they are construction-forced);
    the retry loop rejects on the enforced subset of (ii)/(iii).  Returns
    the accepted graph plus telemetry (draws, per-condition failures).
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    failures = {"ii": 0, "iii": 0}
    telemetry = {"draws": 0, "failures": failures}
    x_cells = np.stack(spec.x_cells.cells)  # X-cells share one size
    phi = np.full(spec.ny, -1, dtype=np.int64)
    halves = []
    for cell in spec.y_cells.cells:
        half = len(cell) // 2
        firsts, seconds = cell[:half], cell[half:]
        phi[firsts] = seconds
        phi[seconds] = firsts
        halves.append((firsts, seconds))
    for attempt in range(max_retries):
        telemetry["draws"] += 1
        yrows = _kernels.zero_rows(spec.ny, spec.nx)
        for firsts, seconds in halves:
            # one shuffle per (y, X-cell), in that order: the stream of a
            # per-cell rng.permutation loop
            picks = rng.permuted(np.broadcast_to(x_cells, (len(firsts),) + x_cells.shape), axis=-1)
            picks = picks[:, :, : x_cells.shape[1] // 2].reshape(len(firsts), -1)
            bits = np.zeros((len(firsts), spec.nx), dtype=bool)
            np.put_along_axis(bits, picks, True, axis=1)
            yrows[firsts] = _kernels.pack_rows(bits)
            yrows[seconds] = _kernels.complement_rows(yrows[firsts], spec.nx)
        graph = _from_y_major(yrows, spec)
        forced = verify_balanced(graph, spec, conditions=("i", "iv"))
        assert forced.ok, "construction-forced conditions must hold on every draw"
        ok = True
        for cond in enforce:
            rep = verify_balanced(graph, spec, conditions=(cond,))
            if not rep.ok:
                failures[cond] += 1
                ok = False
                break
        if ok:
            return BalancedGraph(graph=graph, spec=spec, involution=phi), telemetry
    raise SamplerExhausted(failures)


def _from_y_major(yrows: np.ndarray, spec: BalanceSpec) -> BipartiteGraph:
    g_t = BipartiteGraph(VertexClass("Y", spec.ny), VertexClass("X", spec.nx), yrows)
    return g_t.transposed()


def is_beta_balanced(graph: BipartiteGraph, beta) -> bool:
    """Standalone pairwise agreement bound over the whole right side."""
    beta = Fraction(beta)
    n_y = graph.right.size
    pairs = _all_pairs(graph.left.size)
    ham = _kernels.xor_popcount_pairs(graph.rows, pairs)
    limit = (Fraction(1, 2) + beta) * n_y
    return all(Fraction(n_y - int(h)) <= limit for h in ham)


def _integer_mass(lam: list) -> tuple:
    """Weights as int64 numerators over their least common denominator: the
    comparisons stay exact while the dot products run in numpy."""
    den = math.lcm(*(x.denominator for x in lam))
    if den > 1 << 40:
        raise ValueError("weight denominators too large for exact vectorized sums")
    return np.array([x.numerator * (den // x.denominator) for x in lam], dtype=np.int64), den


def check_one_six(gamma: BipartiteGraph, lam, require_balanced: bool = True) -> dict:
    """Count right-side vertices whose neighborhood splits the weight mass:
    min(inside, outside) >= (1 - max-weight)/8.  For a 1/16-balanced graph
    the count is at least |Y|/6.

    lam: nonnegative weights over the left side with total mass one.
    """
    lam = [Fraction(x) for x in lam]
    if len(lam) != gamma.left.size:
        raise ValueError("weight vector length must match the left side")
    if any(x < 0 for x in lam) or sum(lam) != 1:
        raise ValueError("weights must be nonnegative with total mass 1")
    if require_balanced and not is_beta_balanced(gamma, Fraction(1, 16)):
        raise ValueError("graph is not 1/16-balanced")
    mass, den = _integer_mass(lam)
    linf = max(lam)
    threshold = (1 - linf) / 8
    yrows = gamma.transposed().rows
    nb_bits = _kernels.unpack_rows(yrows, gamma.left.size).astype(np.int64)
    inside_num = nb_bits @ mass  # inside mass, numerator over den
    tn, td = threshold.numerator, threshold.denominator
    qualifying = [
        int(y)
        for y in range(gamma.right.size)
        if min(int(inside_num[y]), den - int(inside_num[y])) * td >= tn * den
    ]
    bound = Fraction(gamma.right.size, 6)
    return {
        "qualifying": qualifying,
        "count": len(qualifying),
        "bound": bound,
        "count_ok": Fraction(len(qualifying)) >= bound,
        "threshold": threshold,
    }


def check_one_twelve(
    neighbor_rows: np.ndarray,
    nx: int,
    family_member: np.ndarray,
    lam,
    inside_cell: np.ndarray,
    level: int,
    right_total: int,
) -> dict:
    """Qualifying-cluster count for a weighted left mass against a neighbor
    family member.

    neighbor_rows: per-right-vertex packed bits over the left index space
    (adjacency used for the two mass inequalities); family_member: the
    right vertices scanned; lam: weights over the left space (mass one);
    inside_cell: the left indices regarded as "inside" for the second
    inequality.  A right vertex qualifies when
        mass outside its neighborhood >= (1 - max-weight)/8, and
        mass inside (neighborhood and inside_cell) >= 1/2 - mass outside
        inside_cell.
    The reported bound is (1/6) * 2^-level * right_total.
    """
    lam = [Fraction(x) for x in lam]
    if any(x < 0 for x in lam) or sum(lam) != 1:
        raise ValueError("weights must be nonnegative with total mass 1")
    mass, den = _integer_mass(lam)
    linf = max(lam)
    thr1 = (1 - linf) / 8
    inside_mask = np.zeros(nx, dtype=np.int64)
    inside_mask[np.asarray(inside_cell, dtype=np.int64)] = 1
    mass_outside_cell = Fraction(int((mass * (1 - inside_mask)).sum()), den)
    thr2 = Fraction(1, 2) - mass_outside_cell
    fam = np.asarray(family_member, dtype=np.int64)
    nb_bits = _kernels.unpack_rows(neighbor_rows[fam], nx).astype(np.int64)
    in_nb = nb_bits @ mass
    in_nb_in_cell = nb_bits @ (mass * inside_mask)
    qualifying = []
    for fi, rv in enumerate(fam):
        not_nb_mass = Fraction(den - int(in_nb[fi]), den)
        if not_nb_mass >= thr1 and Fraction(int(in_nb_in_cell[fi]), den) >= thr2:
            qualifying.append(int(rv))
    bound = Fraction(right_total, 6) / (1 << level)
    return {
        "qualifying": qualifying,
        "count": len(qualifying),
        "bound": bound,
        "count_ok": Fraction(len(qualifying)) >= bound,
        "thresholds": (thr1, thr2),
    }
