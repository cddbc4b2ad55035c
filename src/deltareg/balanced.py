"""Balanced bipartite graphs: verification, sampling, and weighted counts.

A graph on (X, Y) with cell partitions and a family of Y-subsets is balanced
when (i) every y sees exactly half of every X-cell, (ii) within each family
member, every pair of X-vertices agrees (both neighbors or both
non-neighbors) on at most a (1/2 + beta) fraction, (iii) codegrees of
distinct family Y-vertices inside each X-cell stay below (1+alpha)/4 of the
cell, and (iv) each Y-cell is closed under complement via an involution.

Conditions (i) and (iii) are decided on one X-cell layout, which the spec
owns (``BalanceSpec.cell_rows``): Y-major rows in which X-cell c fills the
first m bits of words [c w, (c + 1) w), w = row_words(m).  (i) sums each
row's popcounts per cell.  Word-aligned cells that are runs of X in order
are that layout already; other cells are gathered into it once per check.
(iii) on that layout, and (ii) and ``is_beta_balanced`` on one row per x of
its bits on a member and their complement, are pair sweeps of
``_kernels.and_popcount_over``, with no pair list.

The sampler draws exact half neighborhoods per (X-cell, y) for one half of
each Y-cell and mirrors the complement onto the other half, so (i) and (iv)
hold on every draw; (ii) and (iii) are verified and the whole draw is
retried on failure.  Each half is the m/2 smallest of m random uint32 keys
(seed stream 2): a row whose keys tie at the cut is redrawn, and the keys
of a row are exchangeable, so the half is a uniform m/2-subset of its
X-cell.  Artifacts record the stream and are refused on load under any
other (``check_sampler_stream``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .graphs import BipartiteGraph, VertexClass
from .partitions import VertexPartition

# the seed stream of sample_balanced, recorded in every core and hypergraph
# artifact: an artifact drawn by another stream is refused on load
SAMPLER_STREAM = 2


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
        if not self.x_cells.is_equitable() or sizes[0] % 2:
            raise ValueError("X-cells must share one even size")
        self.m = int(sizes[0])
        if np.any(self.y_cells.cell_sizes() % 2):
            raise ValueError("Y-cells must have even size")
        self.family, self.k = _checked_family(self.family, self.y_cells)
        x_order = np.concatenate(self.x_cells.cells)  # the X id of every (X-cell, slot) column
        in_order = np.array_equal(x_order, np.arange(self.nx))
        self.x_slot = None if in_order else np.argsort(x_order)  # the slot column of every X id
        # the column order of cell_rows' gather; None when the Y-major rows are the layout already
        self.x_order = None if in_order and self.m % 64 == 0 else x_order
        self.cell_words = _kernels.row_words(self.m)

    def cell_rows(self, yrows: np.ndarray) -> np.ndarray:
        """Y-major rows in the X-cell layout: X-cell c fills the first m
        bits of words [c w, (c + 1) w), w = ``cell_words``, in slot order,
        and the rest of those words is zero.  Cells that are word-aligned
        runs of X in order are that layout already, so their rows are
        returned as they are; otherwise the bits are gathered once."""
        if self.x_order is None:
            return yrows
        bits = _kernels.unpack_rows(yrows, self.nx)[:, self.x_order]
        return _kernels.pack_rows(bits.reshape(len(yrows), -1, self.m)).reshape(len(yrows), -1)

    @property
    def nx(self):
        return self.x_cells.n

    @property
    def ny(self):
        return self.y_cells.n


def _checked_family(family, y_cells: VertexPartition) -> tuple:
    """The members as sorted int64 arrays of distinct Y ids, rows of one
    array, and their common size.  Raises ValueError unless the members
    share one size and each is a union of Y-cells: every Y-cell a member
    meets has all of its ids in the member.  All members are checked at
    once: one sort orders the ids within each member and drops repeats,
    and the union check counts every (member, cell) key against the cell's
    size."""
    members = [np.asarray(F, dtype=np.int64).ravel() for F in family]
    if not members:
        return [], 0
    member = np.repeat(np.arange(len(members)), [len(F) for F in members])  # member of every id
    flat = np.concatenate(members)
    order = np.lexsort((flat, member))
    flat, member = flat[order], member[order]
    fresh = np.ones(len(flat), dtype=bool)
    fresh[1:] = (flat[1:] != flat[:-1]) | (member[1:] != member[:-1])
    flat, member = flat[fresh], member[fresh]
    sizes = np.bincount(member, minlength=len(members))
    if np.count_nonzero(sizes != sizes[0]):
        raise ValueError("family members must share one size")
    if np.count_nonzero(flat.view(np.uint64) >= y_cells.n):  # a negative id reads as past 2^63
        raise ValueError("family members must be unions of Y-cells")
    cell = y_cells.owner[flat]
    key = cell + len(y_cells) * member  # (member, cell) of every id
    if np.count_nonzero(np.bincount(key)[key] != np.bincount(y_cells.owner)[cell]):
        raise ValueError("family members must be unions of Y-cells")
    return list(flat.reshape(len(members), int(sizes[0]))), int(sizes[0])


@dataclass
class BalancedGraph:
    graph: BipartiteGraph  # on (X, Y)
    spec: BalanceSpec
    involution: np.ndarray  # phi over Y indices

    def y_rows(self) -> np.ndarray:
        return self.graph.transposed().rows


@dataclass
class VerifyReport:
    ok: bool
    first_violation: str | None
    checked: dict = field(default_factory=dict)
    involution: np.ndarray | None = None


def verify_balanced(candidate: BipartiteGraph, spec: BalanceSpec, conditions=("i", "ii", "iii", "iv")) -> VerifyReport:
    """Exact check of the four conditions; reports the first violated one.
    Conditions (i) and (iii) are decided on the spec's X-cell layout."""
    if candidate.left.size != spec.nx or candidate.right.size != spec.ny:
        raise ValueError("graph does not match the spec's index spaces")
    yrows = candidate.transposed().rows  # per-y bits over X
    cells = spec.cell_rows(yrows) if "i" in conditions or "iii" in conditions else None
    checked = {}
    # (i) exact half degrees per X-cell: each row's popcount in each cell's words
    if "i" in conditions:
        bad = _kernels.popcount_rows(cells.reshape(-1, spec.cell_words)).reshape(spec.ny, len(spec.x_cells)) * 2 != spec.m
        if bad.any():
            ci = int(np.flatnonzero(bad.any(axis=0))[0])
            y = int(np.flatnonzero(bad[:, ci])[0])
            return VerifyReport(False, f"equitable-degrees: y={y} X-cell={ci}", checked)
        checked["i"] = True
    # (ii) agreement bound per family member, one member at a time
    if "ii" in conditions:
        if spec.beta >= Fraction(1, 2):
            checked["ii"] = "vacuous"  # bound >= |F| always holds
        else:
            for fi, F in enumerate(spec.family):
                pair = _agreement_violation(yrows[F], spec.nx, spec.beta)
                if pair is not None:
                    return VerifyReport(False, f"agreement: member={fi} x={pair[0]} x'={pair[1]}", checked)
            checked["ii"] = True
    # (iii) codegree bound per (X-cell, member, y pair)
    if "iii" in conditions:
        viol = _codegree_violation(cells, spec)
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


def _agreement_violation(member_rows: np.ndarray, nx: int, beta: Fraction):
    """The first X-pair (x, x') in ``np.triu_indices`` order that agrees
    on more than (1/2 + beta)|F| of a member F, given F's Y-major rows, or
    None.  Each x gets one row of its bits on F, then their complement, so
    the AND popcount of two rows is their agreement on F, which is over
    (1/2 + beta)|F| exactly when it is over |F| (bd + 2 bn) // (2 bd)."""
    k, (bn, bd) = len(member_rows), (beta.numerator, beta.denominator)
    rows = _kernels.transpose_bits(np.concatenate([member_rows, _kernels.complement_rows(member_rows, nx)]), nx)
    hits = next(_kernels.and_popcount_over(rows, [0], [rows.shape[1]], k * (bd + 2 * bn) // (2 * bd)), None)
    if hits is None:
        return None
    p = int(hits[0][0])
    x = int(np.searchsorted(np.cumsum(np.arange(nx - 1, 0, -1)), p, side="right"))  # rows whose pairs all precede p
    return x, p - x * (2 * nx - x - 1) // 2 + x + 1


def _codegree_violation(cells: np.ndarray, spec: BalanceSpec):
    """The first violation of the (1+alpha)/4 codegree bound inside an
    X-cell, in member, then pair order.  The sweep of the X-cell layout
    (``_kernels.and_popcount_over``, a segment per cell) yields each y-pair
    over the bound once, row by row in pair order; it is matched against
    the members below the first one with a violation so far that hold both
    its ends, and a violation of member 0 ends the sweep."""
    w = spec.cell_words
    starts = w * np.arange(len(spec.x_cells), dtype=np.int64)
    # codeg > (1+alpha)*m/4  <=>  codeg > m*(ad + an) // (4*ad) for an integer codeg
    an, ad = spec.alpha.numerator, spec.alpha.denominator
    n = spec.ny
    holds = np.zeros((len(spec.family), n), dtype=bool)  # holds[f, y]: member f holds y
    holds[np.arange(len(spec.family))[:, None], np.array(spec.family, dtype=np.int64).reshape(len(spec.family), spec.k)] = True
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # the number of the first pair of each next row
    first = None
    for pairs, _ in _kernels.and_popcount_over(cells, starts, starts + w, spec.m * (ad + an) // (4 * ad)):
        y = int(np.searchsorted(ends, pairs[0], side="right"))  # the row of the block
        y2 = pairs - y * (2 * n - y - 1) // 2 + y + 1
        below = holds[: len(holds) if first is None else first[0]]
        both = below[:, y, None] & below[:, y2]
        members = np.flatnonzero(both.any(axis=1))
        if members.size:
            first = int(members[0]), y, int(y2[np.argmax(both[members[0]])])
            if first[0] == 0:
                break
    return None if first is None else f"member={first[0]} y={first[1]} y'={first[2]}"


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


def check_sampler_stream(meta: dict, name: str, command: str) -> None:
    """Raise ValueError unless meta is a JSON object that records the JSON
    integer SAMPLER_STREAM as ``sampler_stream``."""
    if type(meta) is not dict:
        raise ValueError(f"{name} holds {meta!r}, not a JSON object")
    stream = meta.get("sampler_stream")
    if type(stream) is not int or stream != SAMPLER_STREAM:
        raise ValueError(f"{name} records sampler stream {stream!r}, not {SAMPLER_STREAM}: rebuild the artifact with {command}")


class SamplerExhausted(Exception):
    def __init__(self, failures, where=""):
        self.failures = failures
        super().__init__(f"{where}sampler retries exhausted; failure counts {failures}")


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

    The seed stream is ``SAMPLER_STREAM``: per Y-cell, one block of uint32
    keys with a row per (y, X-cell), in that order, cut by
    ``_exact_halves``.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    failures = {"ii": 0, "iii": 0}
    telemetry = {"draws": 0, "failures": failures}
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
            # stream 2: one key row per (y, X-cell), in that order; a row's
            # m/2 least keys are y's half of that X-cell
            bits = _exact_halves(rng, len(firsts) * len(spec.x_cells), spec.m).reshape(len(firsts), spec.nx)
            if spec.x_slot is not None:  # each X id takes its slot's column
                bits = bits[:, spec.x_slot]
            yrows[firsts] = _kernels.pack_rows(bits)
            yrows[seconds] = _kernels.complement_rows(yrows[firsts], spec.nx)
        graph = BipartiteGraph(VertexClass("Y", spec.ny), VertexClass("X", spec.nx), yrows).transposed()
        forced = verify_balanced(graph, spec, conditions=("i", "iv"))
        if not forced.ok:
            raise AssertionError("construction-forced conditions must hold on every draw")
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


def _exact_halves(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """A (rows, m) bool matrix with exactly m/2 set bits per row: the
    positions of the m/2 smallest of m uint32 keys drawn per row.

    One partition at m/2 gives each row's cut thr, the (m/2+1)-th smallest
    key; a row ties when its m/2-th smallest key equals thr, and only the
    tied rows are redrawn, in row order, until none ties.  The keys of a
    row are exchangeable, and stay so given that the row does not tie, so
    its m/2 smallest positions are a uniform m/2-subset."""
    keys = rng.integers(1 << 32, size=(rows, m), dtype=np.uint32)
    cut = np.partition(keys, m // 2, axis=1)
    thr = cut[:, m // 2].copy()
    tied = np.flatnonzero(cut[:, : m // 2].max(axis=1) == thr)
    while tied.size:
        keys[tied] = rng.integers(1 << 32, size=(tied.size, m), dtype=np.uint32)
        cut = np.partition(keys[tied], m // 2, axis=1)
        thr[tied] = cut[:, m // 2]
        tied = tied[cut[:, : m // 2].max(axis=1) == cut[:, m // 2]]
    return keys < thr[:, None]


def is_beta_balanced(graph: BipartiteGraph, beta) -> bool:
    """Standalone pairwise agreement bound over the whole right side."""
    return _agreement_violation(graph.transposed().rows, graph.left.size, Fraction(beta)) is None


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
