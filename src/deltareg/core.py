"""Iterative construction of dyadic edge-partition chains over a bipartite
ground set, driven by balanced-graph sampling, plus exact verification of
every structural property and the irregularity-refutation pipeline.

Level 0 is the trivial partition (one complete bipartite graph, quotient a
single edge).  At level i each member splits into two halves: a fresh
balanced graph is sampled on the level-i cluster sets and the member's
quotient blocks are halved along it; the intersection becomes one child and
the remainder the other.  Every member of level j is a blowup of its
quotient on the level-j cluster partitions, has density exactly 2^-j, and
each vertex block is complete or empty.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .balanced import SAMPLER_STREAM, BalanceSpec, SamplerExhausted, check_one_twelve, check_sampler_stream, sample_balanced
from .graphs import (
    _MAX_DIGITS,
    BipartiteGraph,
    VertexClass,
    _digit_runs,
    _header_count,
    _write_tokens,
    bipartite_from_binary,
    bipartite_to_binary,
    graph_hash,
)
from .partitions import VertexPartition, _split_flat, ceil_share, cell_hosts, refines_beta


def derive_seed(master: int, *labels) -> int:
    """Deterministic seed split: command -> module -> level."""
    h = hashlib.sha256(("/".join([str(master)] + [str(x) for x in labels])).encode()).digest()
    return int.from_bytes(h[:8], "little")


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass
class GrowthProfile:
    """Shape of a chain build.

    r_sizes/l_sizes are the per-level cluster counts; each l must equal
    2^(r/e) for an integer divisor e.  strict_mode additionally demands the
    full-scale side conditions (first right count >= 2^200, quadrupling,
    divisor schedule e(i) = 2^(i+10)), which no desk profile meets.
    """

    s: int
    r_sizes: list
    l_sizes: list
    blowup_left: int = 1
    blowup_right: int = 1
    alpha: object = Fraction(3, 4)  # Fraction, list of Fractions, or "paper"
    beta: Fraction = Fraction(1, 2)
    enforce: tuple = ("ii", "iii")
    strict_mode: bool = False
    max_retries: int = 50

    def __post_init__(self):
        if len(self.r_sizes) != self.s or len(self.l_sizes) != self.s:
            raise ValueError("need one size per level")
        prev_r, prev_l = 1, 1
        for i in range(self.s):
            r, l = self.r_sizes[i], self.l_sizes[i]
            if not (_is_pow2(r) and _is_pow2(l)):
                raise ValueError("cluster counts must be powers of 2")
            if r % prev_r or (r // prev_r) < 2 or (r // prev_r) % 2:
                raise ValueError("right counts must at least double, evenly")
            if l % prev_l or (l // prev_l) < 2 or (l // prev_l) % 2:
                raise ValueError("left counts must at least double, evenly")
            e = Fraction(r, l.bit_length() - 1)
            if e.denominator != 1:
                raise ValueError(f"level {i+1}: left count {l} is not 2^({r}/e) for integer e")
            if r < (1 << i):
                raise ValueError("right counts too small for the level")
            prev_r, prev_l = r, l
        if self.strict_mode:
            for i in range(1, self.s):
                if self.r_sizes[i] < 4 * self.r_sizes[i - 1]:
                    raise ValueError("strict mode requires right counts to quadruple")
            for i in range(1, self.s + 1):
                if self.divisor(i) != 1 << (i + 10):
                    raise ValueError("strict mode pins the divisor schedule to 2^(level+10)")
            if self.r_sizes[0] < 1 << 200:
                raise ValueError("strict mode requires an astronomically large first right count")
        self.beta = Fraction(self.beta)

    def divisor(self, i: int) -> Fraction:
        return Fraction(self.r_sizes[i - 1], self.l_sizes[i - 1].bit_length() - 1)

    def alpha_at(self, i: int) -> Fraction:
        if self.alpha == "paper":
            return Fraction(1, _iroot_floor(self.l_sizes[i - 1], 6))
        if isinstance(self.alpha, (list, tuple)):
            return Fraction(self.alpha[i - 1])
        return Fraction(self.alpha)

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "r_sizes": list(self.r_sizes),
            "l_sizes": list(self.l_sizes),
            "blowup_left": self.blowup_left,
            "blowup_right": self.blowup_right,
            "alpha": str(self.alpha) if not isinstance(self.alpha, (list, tuple)) else [str(a) for a in self.alpha],
            "beta": str(self.beta),
            "enforce": list(self.enforce),
            "strict_mode": self.strict_mode,
            "max_retries": self.max_retries,
        }

    @staticmethod
    def from_json(d: dict) -> "GrowthProfile":
        """The profile of a JSON object, read by type: s, the sizes, the
        blowups and max_retries JSON integers, alpha "paper", a fraction or
        a list of fractions, beta a fraction (as ``_json_fraction`` reads
        them), enforce a list of distinct names from "ii" and "iii", and
        strict_mode a JSON bool.  Anything else raises ValueError."""
        if type(d) is not dict:
            raise ValueError(f"a profile is a JSON object, not {d!r}")
        d = {"blowup_left": 1, "blowup_right": 1, "alpha": "3/4", "beta": "1/2", "enforce": ["ii", "iii"],
             "strict_mode": False, "max_retries": 50, **d}
        alpha = d["alpha"]
        if type(alpha) is list:
            alpha = [_json_fraction(dict(alpha=a), "alpha") for a in alpha]
        elif alpha != "paper":
            alpha = _json_fraction(d, "alpha")
        enforce = d["enforce"]
        if type(enforce) is not list or any(c not in ("ii", "iii") for c in enforce) or len(set(enforce)) < len(enforce):
            raise ValueError(f"enforce must list distinct names from ii and iii, not {enforce!r}")
        if type(d["strict_mode"]) is not bool:
            raise ValueError(f"strict_mode must be true or false, not {d['strict_mode']!r}")
        return GrowthProfile(
            s=_json_int(d, "s"),
            r_sizes=_json_ints(d, "r_sizes"),
            l_sizes=_json_ints(d, "l_sizes"),
            blowup_left=_json_int(d, "blowup_left"),
            blowup_right=_json_int(d, "blowup_right"),
            alpha=alpha,
            beta=_json_fraction(d, "beta"),
            enforce=tuple(enforce),
            strict_mode=d["strict_mode"],
            max_retries=_json_int(d, "max_retries"),
        )


def _json_int(meta: dict, key: str) -> int:
    """meta[key], which must be a JSON integer (true and false are not)."""
    value = meta[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return value


def _json_ints(meta: dict, key: str) -> list:
    """meta[key], which must be a JSON list of JSON integers."""
    value = meta[key]
    if type(value) is not list or any(type(v) is not int for v in value):
        raise ValueError(f"{key} must be a list of integers, not {value!r}")
    return value


def _json_fraction(meta: dict, key: str) -> Fraction:
    """meta[key], which must be a JSON string that Fraction reads, such as
    "1/2", or a JSON integer (true, false and floats are not)."""
    value = meta[key]
    if type(value) is not str and type(value) is not int:
        raise ValueError(f"{key} must be a fraction string or an integer, not {value!r}")
    return Fraction(value)


def _iroot_floor(n: int, r: int) -> int:
    """Largest z with z**r <= n, by integer Newton iteration from above."""
    if n < 1:
        raise ValueError("integer root of a number below 1")
    if r == 2:
        return math.isqrt(n)
    z = 1 << -(-n.bit_length() // r)  # 2^ceil(bits/r), so z**r > n
    while True:
        y = ((r - 1) * z + n // z ** (r - 1)) // r
        if y >= z:
            return z
        z = y


def iroot_ceil(n: int, r: int) -> int:
    f = _iroot_floor(n, r)
    return f if f**r == n else f + 1


def dyadic_root_ceil(q: Fraction, r: int, scale_bits: int) -> Fraction:
    """Smallest dyadic rational z / 2^scale_bits whose r-th power is at least q."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("root of a negative number")
    if q == 0:
        return Fraction(0)
    target = -(-q.numerator * (1 << (r * scale_bits)) // q.denominator)  # ceil
    return Fraction(iroot_ceil(target, r), 1 << scale_bits)


@dataclass
class CoreMember:
    level: int
    index: int
    quotient: BipartiteGraph  # abstract (l_j x r_j) cluster adjacency


@dataclass
class NeighborFamily:
    level: int
    left_cluster: int
    members: np.ndarray  # level-i right clusters


class CoreSequence:
    """Built chain: cluster partitions, per-member quotients, sampler
    records, and materialization of members as vertex-level graphs."""

    def __init__(self, profile: GrowthProfile, left_chain, right_chain, seed: int):
        self.profile = profile
        self.seed = seed
        self.left_chain = left_chain  # list of VertexPartition, level 1..s
        self.right_chain = right_chain
        self.n_left = left_chain[0].n
        self.n_right = right_chain[0].n
        self.lparent = [_parent_map(left_chain[i], left_chain[i - 1]) if i else np.zeros(len(left_chain[0]), dtype=np.int64) for i in range(len(left_chain))]
        self.rparent = [_parent_map(right_chain[i], right_chain[i - 1]) if i else np.zeros(len(right_chain[0]), dtype=np.int64) for i in range(len(right_chain))]
        root = CoreMember(level=0, index=0, quotient=BipartiteGraph.complete(VertexClass("L", 1), VertexClass("R", 1)))
        self.members = [[root]]
        self.gamma_records = {}
        self._materialized = {}

    # -- chain access ---------------------------------------------------

    def left_parts(self, i: int) -> VertexPartition:
        return self.left_chain[i - 1]

    def right_parts(self, i: int) -> VertexPartition:
        return self.right_chain[i - 1]

    def ancestor_index(self, level: int, index: int, at_level: int) -> int:
        return index >> (level - at_level)

    def x_cells(self, i: int) -> VertexPartition:
        """Level-i left clusters grouped by their level-(i-1) parent."""
        key = ("xcells", i)
        if key not in self._materialized:
            self._materialized[key] = _group_partition(self.profile.l_sizes[i - 1], self.lparent[i - 1])
        return self._materialized[key]

    def y_cells(self, i: int) -> VertexPartition:
        key = ("ycells", i)
        if key not in self._materialized:
            self._materialized[key] = _group_partition(self.profile.r_sizes[i - 1], self.rparent[i - 1])
        return self._materialized[key]

    # -- materialization -------------------------------------------------

    def member_graph(self, level: int, index: int) -> BipartiteGraph:
        key = (level, index)
        if key not in self._materialized:
            m = self.members[level][index]
            if level == 0:
                g = BipartiteGraph.complete(VertexClass("L", self.n_left), VertexClass("R", self.n_right))
            else:
                lp = self.left_parts(level)
                rp = self.right_parts(level)
                # columns expand as rows of the transpose: (l_j, n_right)
                cluster_rows = _kernels.transpose_bits(m.quotient.transposed().rows[rp.owner], len(lp))
                rows = cluster_rows[lp.owner]
                g = BipartiteGraph(VertexClass("L", self.n_left), VertexClass("R", self.n_right), rows)
            self._materialized[key] = g
        return self._materialized[key]


def _group_partition(n: int, parent: np.ndarray) -> VertexPartition:
    order = np.argsort(parent, kind="stable")
    bounds = np.flatnonzero(np.diff(parent[order])) + 1
    cells = np.split(order, bounds)
    return VertexPartition(n, cells)


def _parent_map(child: VertexPartition, parent: VertexPartition) -> np.ndarray:
    """The parent cell of every child cell: the parent of one vertex of the
    cell, which every other vertex of the cell must share."""
    if child.n != parent.n:
        raise ValueError("chain is not an exact successive refinement")
    some = np.empty(len(child), dtype=np.int64)
    some[child.owner] = np.arange(child.n)
    up = parent.owner[some]
    if not np.array_equal(up[child.owner], parent.owner):
        raise ValueError("chain is not an exact successive refinement")
    return up


def default_chains(profile: GrowthProfile):
    """Nested contiguous-block cluster chains at the profile's sizes."""
    nl = profile.l_sizes[-1] * profile.blowup_left
    nr = profile.r_sizes[-1] * profile.blowup_right
    left = [VertexPartition.blocks(nl, c) for c in profile.l_sizes]
    right = [VertexPartition.blocks(nr, c) for c in profile.r_sizes]
    return left, right


def _family_table(seq: CoreSequence, i: int, member: int = 0, left=slice(None)) -> tuple:
    """Every level-i neighbor family of the level-(i-1) member, from one
    unpack of its quotient: ``(L, cluster)`` int64 arrays from one
    ``nonzero`` (L ascending, clusters ascending within each L) and the
    family size of every L.  ``left`` picks quotient rows (default all);
    L then counts picked rows."""
    if i < 1 or i - 1 >= len(seq.members):
        raise ValueError("level out of range")
    parentq = seq.members[i - 1][member].quotient
    rows = parentq.rows[left]
    L, cluster = np.nonzero(_kernels.unpack_rows(rows, parentq.right.size)[:, seq.rparent[i - 1]])
    return L, cluster, np.bincount(L, minlength=len(rows))


def neighbor_family(seq: CoreSequence, i: int, left_cluster: int, member: int = 0) -> NeighborFamily:
    """Level-i right clusters inside level-(i-1) clusters adjacent to the
    given level-(i-1) left cluster in the member's quotient."""
    members = _family_table(seq, i, member, [left_cluster])[1]
    return NeighborFamily(level=i, left_cluster=left_cluster, members=members)


def build_core_sequence(profile: GrowthProfile, seed: int, left_chain=None, right_chain=None) -> CoreSequence:
    """Run the full construction at the profile's scale."""
    if left_chain is None or right_chain is None:
        left_chain, right_chain = default_chains(profile)
    seq = CoreSequence(profile, left_chain, right_chain, seed)
    for i in range(1, profile.s + 1):
        level_members = []
        for idx in range(len(seq.members[i - 1])):
            _, cluster, size = _family_table(seq, i, idx)
            fam = np.split(cluster, np.cumsum(size)[:-1])
            spec = BalanceSpec(x_cells=seq.x_cells(i), y_cells=seq.y_cells(i), family=fam, alpha=profile.alpha_at(i), beta=profile.beta)
            try:
                bg, telemetry = sample_balanced(spec, derive_seed(seed, "gamma", i, idx), max_retries=profile.max_retries, enforce=profile.enforce)
            except SamplerExhausted as e:
                raise SamplerExhausted(e.failures, f"level {i}, member {idx}: ") from None
            seq.gamma_records[(i, idx)] = {"telemetry": telemetry, "balanced": bg}
            level_members += _split_by_gamma(seq, i, idx, bg.graph)
        seq.members.append(level_members)
    return seq


def _split_by_gamma(seq: CoreSequence, i: int, idx: int, gamma: BipartiteGraph) -> list:
    """The two level-i children of member idx of level i - 1, split by the
    balanced graph gamma on the level-i clusters: the parent's quotient
    expanded to level i AND gamma is child 2 idx, AND NOT gamma child
    2 idx + 1."""
    expand = _expand_quotient(seq.members[i - 1][idx].quotient, seq.lparent[i - 1], seq.rparent[i - 1], gamma.left.size, gamma.right.size)
    halves = (expand.rows & gamma.rows, expand.rows & ~gamma.rows)
    return [CoreMember(i, 2 * idx + k, BipartiteGraph(expand.left, expand.right, rows)) for k, rows in enumerate(halves)]


def _expand_quotient(q: BipartiteGraph, lparent, rparent, l_new, r_new) -> BipartiteGraph:
    rows = _kernels.transpose_bits(q.transposed().rows[rparent], q.left.size)[lparent]
    return BipartiteGraph(VertexClass("L", l_new), VertexClass("R", r_new), rows)


# -- structural verification --------------------------------------------


def verify_structure(seq: CoreSequence) -> dict:
    """Exact recount of the four structural invariants: dyadic densities,
    two-child chain splits, zero/one block densities, neighbor-family
    cardinalities.

    All four are decided on the quotients.  A level-j member's vertex
    graph is its quotient q blown up, g[u, v] = q[c(u), c(v)] with c the
    level-j cluster of a vertex and every cluster non-empty: every block is
    complete or empty exactly when q has one row per level-j left cluster
    and one column per right cluster, its edge count is the sum of
    q[a, b] |a| |b|, and two children split their parent's vertex graph
    exactly when their quotients are disjoint and their union is the
    parent's quotient expanded to level j.  The split is recounted apart
    from ``_split_by_gamma``, which derives the members of a build and of a
    load, so it guards that derivation as well as sequences changed in
    memory.  A member of another shape fails the block claim and every
    split it is part of, and its density and neighbor families are not
    counted."""
    prof = seq.profile
    report = {"density": True, "chain": True, "blocks": True, "families": True, "failures": []}
    misshapen = set()
    for j in range(1, prof.s + 1):
        lsz, rsz = _cluster_sizes(seq, j)
        for m in seq.members[j]:
            if (m.quotient.left.size, m.quotient.right.size) != (lsz.size, rsz.size):
                misshapen.add((j, m.index))
                report["blocks"] = False
                report["failures"].append(("block", j, m.index))
            elif int(lsz @ _cluster_degrees(m.quotient, rsz)) * (1 << j) != seq.n_left * seq.n_right:
                report["density"] = False
                report["failures"].append(("density", j, m.index))
        for idx, parent in enumerate(seq.members[j - 1]):
            c1, c2 = seq.members[j][2 * idx].quotient.rows, seq.members[j][2 * idx + 1].quotient.rows
            if misshapen & {(j - 1, idx), (j, 2 * idx), (j, 2 * idx + 1)}:
                split = False
            else:
                expand = _expand_quotient(parent.quotient, seq.lparent[j - 1], seq.rparent[j - 1], prof.l_sizes[j - 1], prof.r_sizes[j - 1])
                split = not np.any(c1 & c2) and np.array_equal(c1 | c2, expand.rows)
            if not split:
                report["chain"] = False
                report["failures"].append(("chain", j, idx))
    for i in range(1, prof.s + 1):
        expected = prof.r_sizes[i - 1] >> (i - 1)
        for idx in range(len(seq.members[i - 1])):
            if (i - 1, idx) in misshapen:
                continue
            for L in np.flatnonzero(_family_table(seq, i, idx)[2] != expected).tolist():
                report["families"] = False
                report["failures"].append(("family", i, idx, L))
    report["ok"] = all(report[k] for k in ("density", "chain", "blocks", "families"))
    return report


def _cluster_sizes(seq: CoreSequence, i: int) -> tuple:
    """Vertex counts of the level-i left and right clusters; level 0 has one
    cluster per side."""
    if i == 0:
        return np.array([seq.n_left]), np.array([seq.n_right])
    lp, rp = seq.left_parts(i), seq.right_parts(i)
    return lp.cell_sizes(), rp.cell_sizes()


def _cluster_degrees(q: BipartiteGraph, rsz: np.ndarray) -> np.ndarray:
    """The vertex degree of every left cluster of q blown up to right
    clusters of rsz vertices, the sum of q[a, b] |b| over b (int64): one
    masked popcount per distinct right cluster size."""
    degs = np.zeros(q.left.size, dtype=np.int64)
    for s in np.flatnonzero(np.bincount(rsz)).tolist():
        degs += s * _kernels.masked_degrees(q.rows, _kernels.pack_indices(np.flatnonzero(rsz == s), q.right.size))
    return degs


def _is_block_partition(p: VertexPartition) -> bool:
    k = len(p)
    return p.n % k == 0 and np.array_equal(p.owner, np.arange(p.n) // (p.n // k))


_FAMILY_CHUNK = 1 << 19  # words of family rows, sweep scratch and masks the codegree check holds at once


def verify_core_properties(seq: CoreSequence, i: int, left_cluster=None, member: int = 0) -> dict:
    """Two per-level properties of a level-i member:

    1. within every parent-adjacent block, the member's vertex graph is
       biregular of density one half (and the member is biregular overall);
    2. codegrees of distinct neighbor-family clusters inside each parent
       left cell stay at or below (1 + alpha_i)/4 of the cell.

    Item 2 covers every parent left cell, or only ``left_cluster``.

    Both are decided on the level-i quotient q, so no vertex graph is built.
    The vertex graph is q blown up, g[u, v] = q[c(u), c(v)], so every vertex
    of a level-i left cluster a has the degree sum over r in R' of
    q[a, r] |r| into a parent right cell R', and every vertex of a right
    cluster b the degree sum over a in L' of q[a, b] |a| into a parent left
    cell L': cluster-weighted sums over the clusters' parent cells give the
    vertex degrees exactly.  A failing left cluster is reported once per
    vertex, as a per-vertex check would.
    """
    parentq = seq.members[i - 1][member // 2].quotient
    q = seq.members[i][member].quotient
    lsz, rsz = _cluster_sizes(seq, i)
    lsz_prev, rsz_prev = _cluster_sizes(seq, i - 1)
    lparent = seq.lparent[i - 1]
    report = {"item1": True, "item2": True, "failures": []}
    # item 1: the degree of every cluster's vertices into every parent cell
    # of the other side is half that cell where the parent block is
    # present, 0 where it is absent; the expectations are made per parent
    # block and gathered by parent.  The sums run over the transposed
    # quotient (one row per right cluster, which item 2 reads too), where
    # both groupings are cheaper than on the taller quotient
    par_bits = _kernels.unpack_rows(parentq.transposed().rows, parentq.left.size).astype(np.int64)
    tbits = _kernels.unpack_rows(q.transposed().rows, q.left.size)
    deg_into_R, expected = _with_expected(
        _sized_group_sum(tbits, rsz, seq.y_cells(i), 0), par_bits * (rsz_prev // 2)[:, None]
    )  # (r_parent, l_i) and (r_parent, l_parent)
    xs = seq.x_cells(i)
    if _is_block_partition(xs):  # each parent's clusters are a run: compare without a column gather
        off = (deg_into_R.reshape(len(expected), len(xs), -1) != expected[:, :, None]).reshape(deg_into_R.shape)
    else:
        off = deg_into_R != expected[:, lparent]
    if off.any():
        report["item1"] = False
        owner = seq.left_parts(i).owner
        for v, b in np.argwhere(off.T[owner])[:4]:
            report["failures"].append(("item1-left", i, member, int(lparent[owner[v]]), int(b)))
    deg_into_L, expected = _with_expected(
        _sized_group_sum(tbits, lsz, xs, 1), par_bits * (lsz_prev // 2)
    )  # (r_i, l_parent) and (r_parent, l_parent)
    if not np.array_equal(deg_into_L, expected[seq.rparent[i - 1]]):
        report["item1"] = False
        report["failures"].append(("item1-right", i, member))
    if np.any(_cluster_degrees(q, rsz) * (1 << i) != seq.n_right):
        report["item1"] = False
        report["failures"].append(("item1-global-left", i, member))
    for L in _codegree_failures(seq, i, member, left_cluster):
        report["item2"] = False
        report["failures"].append(("item2", i, member, L))
    report["ok"] = report["item1"] and report["item2"]
    return report


def _sized_group_sum(bits: np.ndarray, sizes: np.ndarray, p: VertexPartition, axis: int) -> np.ndarray:
    """``_group_sum`` of a 0/1 cluster matrix with each cluster along the
    axis weighted by its vertex count."""
    top = int(sizes.max())
    if top > 1:
        bits = bits * np.expand_dims(sizes.astype(np.min_scalar_type(top)), 1 - axis)
    return _group_sum(bits, p, axis)


def _with_expected(sums: np.ndarray, expected: np.ndarray) -> tuple:
    """Group sums and their (non-negative) expected values in one dtype: the
    sums' own unless an expected value does not fit it."""
    dtype = np.promote_types(sums.dtype, np.min_scalar_type(int(expected.max(initial=0))))
    return sums.astype(dtype, copy=False), expected.astype(dtype)


def _codegree_failures(seq: CoreSequence, i: int, member: int, left_cluster=None) -> list:
    """Parent left cells L (ascending) in which two level-i clusters of L's
    neighbor family have codegree above (1 + alpha_i)/4 of L's cell of
    level-i left clusters, in the member's quotient.

    Cells are taken in chunks of at most ``_FAMILY_CHUNK`` words.  In a
    chunk, the cells whose families have t clusters are taken together:
    every cell's family rows are gathered from its word window of the
    transposed quotient and masked to the cell, into one (t, cells, W)
    block, and ``_kernels.and_popcount_over`` sweeps the t rows of
    cells W words, one segment and one bound per cell, with no pair list:
    the cells it reports are the failing ones.
    """
    alpha = seq.profile.alpha_at(i)
    an, ad = alpha.numerator, alpha.denominator
    tq = seq.members[i][member].quotient.transposed()  # per right cluster, bits over left clusters
    lparent = seq.lparent[i - 1]
    _, fam, fsize = _family_table(seq, i, member // 2)
    fstart = np.cumsum(fsize) - fsize
    # the cell of L: its level-i left clusters, ascending
    cells = np.argsort(lparent, kind="stable")
    csize = np.bincount(lparent, minlength=fsize.size)
    cstart = np.cumsum(csize) - csize
    lo = cells[cstart] >> 6
    width = (cells[cstart + csize - 1] >> 6) + 1 - lo
    Ls = np.arange(fsize.size) if left_cluster is None else np.array([left_cluster], dtype=np.int64)
    Ls = Ls[fsize[Ls] >= 2]
    if Ls.size == 0:
        return []
    W = int(width[Ls].max())
    # 4 codeg ad > |cell| (ad + an) exactly when codeg exceeds this floor; a
    # codegree is at most |cell|, so the bound is clipped to [-1, |cell|]
    usz, inv = np.unique(csize, return_inverse=True)
    bound = np.array([max(-1, min(c, c * (ad + an) // (4 * ad))) for c in usz.tolist()], dtype=np.int64)[inv]
    # words per cell, rounded up: family rows t W, AND scratch and its
    # popcounts under 2 t W, the window's cluster ids 64 W and mask 8 W
    cost = (3 * fsize[Ls] + 72) * W
    chunk = (np.cumsum(cost) - cost) // _FAMILY_CHUNK
    failing = []
    for part in np.split(Ls, np.flatnonzero(np.diff(chunk)) + 1):
        for t in np.flatnonzero(np.bincount(fsize[part])).tolist():
            at = part[fsize[part] == t]
            # every cell's word window, and its mask: the window's clusters
            # whose parent is the cell's
            words = np.minimum(lo[at][:, None] + np.arange(W), tq.rows.shape[1] - 1)
            span = 64 * lo[at][:, None] + np.arange(64 * W)
            inside = (span < lparent.size) & (np.take(lparent, np.minimum(span, lparent.size - 1)) == at[:, None])
            rows = fam[fstart[at] + np.arange(t)[:, None]]  # (t, cells)
            block = tq.rows[rows[:, :, None], words[None]] & _kernels.pack_rows(inside)[None]
            starts = W * np.arange(len(at), dtype=np.int64)
            failed = np.zeros(len(at), dtype=bool)
            for _, segs in _kernels.and_popcount_over(block.reshape(t, -1), starts, starts + W, bound[at]):
                failed[segs] = True
            failing.append(at[failed])
    return np.sort(np.concatenate(failing)).tolist()


_SLICE_SUM_WIDTH = 8


def _group_sum(x: np.ndarray, p: VertexPartition, axis: int) -> np.ndarray:
    """Sums of a non-negative integer matrix over each cell of p along an
    axis, in the smallest unsigned dtype that holds them."""
    k = len(p)
    sizes = p.cell_sizes()
    dtype = np.min_scalar_type(int(sizes.max()) * int(x.max(initial=0)))
    if _is_block_partition(p):
        w = p.n // k
        blocks = x.reshape(x.shape[:axis] + (k, w) + x.shape[axis + 1 :])
        if axis < x.ndim - 1 or w > _SLICE_SUM_WIDTH:
            return blocks.sum(axis=axis + 1, dtype=dtype)
        # numpy reduces a short contiguous last axis at ~20 ns a reduction;
        # w strided passes over the matrix are cheaper while w is small
        out = blocks[..., 0].astype(dtype)
        for j in range(1, w):
            np.add(out, blocks[..., j], out=out, casting="unsafe")  # the sums fit dtype
        return out
    order = np.argsort(p.owner, kind="stable")
    return np.add.reduceat(np.take(x, order, axis=axis), np.cumsum(sizes) - sizes, axis=axis, dtype=dtype)


@dataclass
class Witness:
    right_cluster: int
    r_vertices: np.ndarray
    p1_vertices: np.ndarray
    d_pr_num: int  # e_G(P, R)
    level: int


def find_irregularity_witnesses(
    seq: CoreSequence, ell: int, member: int, i: int, P: np.ndarray, gamma, require_count: bool = True
) -> list[Witness]:
    """Adversarial cluster witnesses for a left subset that sits mostly in a
    level-(i-1) cluster yet is far from every level-i cluster.

    For each qualifying right cluster: the subset restricted to non-neighbor
    left clusters spans no edges into it, yet the whole subset has density
    at least 2^(i - ell - 2) into it.  With require_count the number of
    qualifying clusters is asserted to reach one sixth of 2^-i of the
    level-i right cluster count.  One call of the level engine
    ``_level_witnesses``.
    """
    P = np.unique(np.asarray(P, dtype=np.int64))
    found = _level_witnesses(seq, ell, member, i, [P], Fraction(gamma))
    rcells = seq.right_parts(i).cells
    # P1: the vertices of P whose level-i cluster is not adjacent to R
    q_i = seq.members[i][seq.ancestor_index(ell, member, i)].quotient
    adjacent = _kernels.unpack_rows(q_i.rows[seq.left_parts(i).owner[P]], len(rcells))
    witnesses = [
        Witness(right_cluster=r, r_vertices=rcells[r], p1_vertices=P[adjacent[:, r] == 0], d_pr_num=e, level=i)
        for r, e in zip(found["cluster"].tolist(), found["e_pr"].tolist())
    ]
    bound = Fraction(seq.profile.r_sizes[i - 1], 6) / (1 << i)
    if require_count and Fraction(len(witnesses)) < bound:
        raise AssertionError(f"witness count {len(witnesses)} below the {bound} cluster bound")
    return witnesses


_WITNESS_CHUNK = 1 << 23  # unpacked bytes of one (ids x right side) matrix the level engine holds at once


def _level_witnesses(seq: CoreSequence, ell: int, member: int, i: int, cells: list, gamma: Fraction, outside=None) -> dict:
    """The witness search of ``find_irregularity_witnesses`` for many left
    subsets at level i, in one pass over all of them.

    ``cells`` are sorted, duplicate-free id arrays.  A cell must be 1/4-inside
    a level-(i-1) cluster, its host, and not gamma-inside any level-i
    cluster; otherwise ValueError.  A right cluster R of the host's family
    qualifies for a cell P when (a) the mass of P in level-i clusters not
    adjacent to R is at least (|P| - its largest level-i mass) / 8 and (b)
    the mass of P in host clusters adjacent to R is at least |P|/2 minus the
    mass of P outside the host.  P1 is then the part of P in clusters not
    adjacent to R.

    Returns per-witness arrays, cell by cell and clusters ascending: ``cell``
    (index into ``cells``), ``cluster``, ``e_pr`` = e(P, R), ``p1_size`` =
    |P1| and, when ``outside`` (a mask of right vertices) is given, ``corr``
    = the edges from P into R outside it.  Cells are taken in
    groups of one size, and in chunks of ``_WITNESS_CHUNK`` unpacked bytes.
    """
    C = len(cells)
    lp_i, rp_i = seq.left_parts(i), seq.right_parts(i)
    r_i, nr = len(rp_i), seq.n_right
    prev = seq.left_parts(i - 1).owner if i >= 2 else np.zeros(seq.n_left, dtype=np.int64)
    sizes = np.fromiter(map(len, cells), dtype=np.int64, count=C)
    if C == 0:
        return {"cell": sizes, "cluster": sizes, "e_pr": sizes, "corr": sizes, "p1_size": sizes}
    if np.any(sizes == 0):
        raise ValueError("subset is gamma-inside a level-i cluster; no witnesses")
    ids = np.concatenate(cells).astype(np.int64, copy=False)
    cid = np.repeat(np.arange(C), sizes)
    first_of = np.cumsum(sizes) - sizes
    # host: the level-(i-1) cluster holding most of the cell
    host, mass, near = cell_hosts(cid, prev[ids], Fraction(1, 4))
    if not near.all():
        raise ValueError("subset is not 1/4-inside a previous-level cluster")
    away = sizes - mass  # the mass outside the host
    _, maxmass, inside = cell_hosts(cid, lp_i.owner[ids], gamma)
    if inside.any():
        raise ValueError("subset is gamma-inside a level-i cluster; no witnesses")
    # the host's family: level-i right clusters inside level-(i-1) clusters
    # adjacent to the host in the parent member
    parent_q = seq.members[i - 1][seq.ancestor_index(ell, member, i - 1)].quotient
    fam = _kernels.unpack_rows(parent_q.rows[host], parent_q.right.size)[:, seq.rparent[i - 1]].astype(bool)
    q_i = seq.members[i][seq.ancestor_index(ell, member, i)].quotient
    g = seq.member_graph(ell, member)
    r_size = rp_i.cell_sizes()
    # d(P, R) >= 2^i p / 4 (p = 2^-ell) is compared in int64: e(P, R) <= |P||R|
    shift = ell + 2 - i
    if (seq.n_left * seq.n_right) << abs(shift) >= 1 << 63:
        raise ValueError("chain too large for the int64 density test of the witnesses")
    found = {"cell": [], "cluster": [], "e_pr": [], "corr": [], "p1_size": []}
    for s in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == s)
        per = max(1, _WITNESS_CHUNK // (s * max(nr, r_i)))
        for a in range(0, group.size, per):
            cs = group[a : a + per]
            k = cs.size
            rows = ids[(first_of[cs][:, None] + np.arange(s)).ravel()]
            # nb[c, v, R]: the level-i cluster of v is adjacent to R
            nb = _kernels.unpack_rows(q_i.rows[lp_i.owner[rows]], r_i).reshape(k, s, r_i)
            in_nb = nb.sum(axis=1, dtype=np.min_scalar_type(s)).astype(np.int64)
            in_nb_host = in_nb.copy()
            off_host = prev[rows].reshape(k, s) != host[cs][:, None]
            if off_host.any():
                c, v = np.nonzero(off_host)
                np.subtract.at(in_nb_host, c, nb[c, v])
            qualifies = (
                fam[cs]
                & (8 * (s - in_nb) >= s - maxmass[cs][:, None])
                & (2 * in_nb_host >= s - 2 * away[cs][:, None])
            )
            bits = _kernels.unpack_rows(g.rows[rows], nr)
            deg = _group_sum(bits, rp_i, 1).reshape(k, s, r_i)  # e(v, R)
            e_pr = deg.sum(axis=1, dtype=np.min_scalar_type(s * int(r_size.max()))).astype(np.int64)
            wc, wr = np.nonzero(qualifies)
            # e(P1, R) = 0: no edge from a vertex whose cluster is not adjacent to R
            if np.any(np.maximum.reduce(deg * (1 - nb), axis=1)[wc, wr]):
                raise AssertionError("witness construction must be edge-free")
            lhs, rhs = e_pr[wc, wr] << max(shift, 0), (s * r_size[wr]) << max(-shift, 0)
            if not np.all(lhs >= rhs):  # d(P, R) >= 2^i p / 4, with p = 2^-ell
                raise AssertionError("a witness has d(P, R) below 2^i p / 4")
            p1_size = s - in_nb[wc, wr]
            if 8 * int(p1_size.min(initial=s)) * gamma.denominator < gamma.numerator * s:
                raise AssertionError("a witness has |P1| below gamma |P| / 8")
            found["p1_size"].append(p1_size)
            found["cell"].append(cs[wc])
            found["cluster"].append(wr)
            found["e_pr"].append(e_pr[wc, wr])
            if outside is not None:
                col = bits.reshape(k, s, nr).sum(axis=1, dtype=np.min_scalar_type(s)).astype(np.int64) * outside
                found["corr"].append(_group_sum(col, rp_i, 1)[wc, wr])
    # size groups interleave: witnesses back in cell order
    keys = [key for key in ("cell", "cluster", "e_pr", "corr", "p1_size") if found[key]]
    out = {key: np.concatenate(found[key]) for key in keys}
    order = np.argsort(out["cell"] * r_i + out["cluster"], kind="stable")
    return {key: out[key][order] for key in keys}


def one_twelve_context(seq: CoreSequence, ell: int, member: int, i: int, host: int, lam) -> dict:
    """Weighted-count check at level i for the member's ancestor chain."""
    anc = seq.ancestor_index(ell, member, i)
    qi = seq.members[i][anc].quotient
    tq = qi.transposed()
    fam = neighbor_family(seq, i, host, member=seq.ancestor_index(ell, member, i - 1)).members
    inside = np.flatnonzero(seq.lparent[i - 1] == host)
    return check_one_twelve(
        tq.rows,
        qi.left.size,
        fam,
        lam,
        inside,
        level=i,
        right_total=seq.profile.r_sizes[i - 1],
    )


# -- refutation certificates ----------------------------------------------


@dataclass
class CertEntry:
    p_vertices: np.ndarray
    level: int
    lines: np.ndarray  # one ledger line per R, named by its index among the level's right clusters, ascending


HOST_C = Fraction(1, 512)  # the c with which the refuter's Q must c-refine the level-t right clusters


@dataclass
class IrregularityCertificate:
    """What the refuter chose and the inputs it chose from: the refuted
    member, the parameters, Q, each deficient cell P with its level and the
    clusters R of its lines, and the claimed total.  A line names its R by
    index among the chain's right clusters of its entry's level, which the
    re-check takes from the chain.  Everything else, the clusters
    themselves, the lines' corrections and values and the edit budget, the
    re-check derives from these, the chain and the graph."""

    graph_sha256: str
    n_left: int
    n_right: int
    ell: int
    member: int
    delta: Fraction
    gamma: Fraction
    t: int
    q_cells: list
    entries: list
    total: Fraction

    def to_text(self) -> str:
        """The v5 text.  An entry with no line adds nothing to the total
        and is not written."""
        entries = [e for e in self.entries if len(e.lines)]
        # every id set in one pass, taken in text order below
        texts = iter(_ranges_encode_many([*self.q_cells, *(s for e in entries for s in (e.p_vertices, e.lines))]))
        out = [
            "irregularity-certificate v5",
            f"graph-sha256 {self.graph_sha256}",
            f"n-left {self.n_left}",
            f"n-right {self.n_right}",
            f"level {self.ell}",
            f"member {self.member}",
            f"delta {self.delta}",
            f"gamma {self.gamma}",
            f"t {self.t}",
            f"q-cells {len(self.q_cells)}",
        ]
        out += [f"q {next(texts)}" for _ in self.q_cells]
        out.append(f"entries {len(entries)}")
        for k, e in enumerate(entries):
            out += [f"entry {k} level {e.level}", f"p {next(texts)}", f"lines {next(texts)}"]
        out.append(f"total {self.total}\n")
        return "\n".join(out)

    @staticmethod
    def from_text(text: str) -> "IrregularityCertificate":
        """Parse the text form exactly as ``to_text`` writes it: the header
        fields in their order, each once, and numbers in ASCII digits
        without leading zeros.  One pass reads the lines; one call then
        decodes every id set.  Truncated or malformed text, an entry level
        outside 1..t, and vertex ids or cluster indices outside the sides
        raise ValueError."""
        if not text.isascii():
            raise ValueError("certificate text is not ASCII")
        if not text.endswith("\n"):
            raise ValueError("certificate truncated: no newline at its end")
        lines = text.split("\n")
        lines.pop()  # the empty text after the last newline
        at = 0

        def fields(key, n=1):
            """The n fields of the next line, which must be 'key f1 .. fn'."""
            nonlocal at
            if at == len(lines):
                raise ValueError(f"certificate truncated after line {at}")
            words = lines[at].split(" ")
            at += 1
            if len(words) != n + 1 or words[0] != key or not all(words):
                raise ValueError(f"certificate line {at}: expected {key!r} and {n} field(s)")
            return words[1:]

        if fields("irregularity-certificate") != ["v5"]:
            raise ValueError("certificate line 1: expected 'irregularity-certificate v5'")
        head = {key: fields(key)[0] for key in _CERT_HEAD}
        n_left, n_right, t = _header_count(head["n-left"]), _header_count(head["n-right"]), _header_count(head["t"])
        q_sets = [fields("q")[0] for _ in range(_header_count(head["q-cells"]))]
        # per entry 'entry k level L', 'p <set>' and 'lines <set>'
        p_sets, levels, line_sets = [], [], []
        for k in range(_header_count(fields("entries")[0])):
            number, word, lvl = fields("entry", 3)
            if word != "level" or _header_count(number) != k:
                raise ValueError(f"certificate line {at}: expected 'entry {k} level <level>'")
            levels.append(_header_count(lvl))
            if not 1 <= levels[-1] <= t:
                raise ValueError(f"certificate line {at}: entry level {lvl} outside 1..t ({t})")
            p_sets.append(fields("p")[0])
            line_sets.append(fields("lines")[0])
        total = _fraction(fields("total")[0])
        if at < len(lines):
            raise ValueError(f"certificate line {at + 1}: text after the total")
        del lines  # only the set texts are kept through the decode
        bounds = np.cumsum([0, len(q_sets), len(p_sets), len(line_sets)]).tolist()

        def sizes_fit(count):
            # each bound follows from a check of reverify_certificate (Q and
            # every level's clusters partition the right side, entries are
            # disjoint) or from the ids increasing within a set, so an honest
            # certificate meets it; made before any set is expanded, so
            # that a forged set costs no memory
            q, p, ln = (count[a:z] for a, z in zip(bounds, bounds[1:]))
            if q.sum() > n_right:
                raise ValueError("the q cells of the certificate have more than n-right ids")
            if p.sum() > n_left:
                raise ValueError("the p sets of the certificate have more than n-left ids")
            if np.any(ln > n_right):
                raise ValueError("an entry's lines name more clusters than n-right")

        sets = _ranges_decode_many(q_sets + p_sets + line_sets, max(n_left, n_right), check=sizes_fit)
        # ids increase within a set, so the last of each set is its largest
        side = np.repeat([n_right, n_left, n_right], np.diff(bounds))
        top = np.fromiter(map(operator.itemgetter(-1), sets), dtype=np.int64, count=side.size)
        bad = np.flatnonzero(top >= side)
        if bad.size:
            raise ValueError(f"id {top[bad[0]]} out of range 0..{side[bad[0]] - 1} in the certificate")
        q_cells, p_sets, line_sets = (sets[a:z] for a, z in zip(bounds, bounds[1:]))
        return IrregularityCertificate(
            graph_sha256=head["graph-sha256"],
            n_left=n_left,
            n_right=n_right,
            ell=_header_count(head["level"]),
            member=_header_count(head["member"]),
            delta=_fraction(head["delta"]),
            gamma=_fraction(head["gamma"]),
            t=t,
            q_cells=q_cells,
            entries=list(map(CertEntry, p_sets, levels, line_sets)),
            total=total,
        )


# -- certificate text, in whole arrays ----------------------------------------
#
# Reading takes the lines in the order to_text writes them and decodes every
# vertex set in one call of _ranges_decode_many.  Writing renders every
# vertex set in one pass with the decimal writer of ``graphs``, and the rest
# of each line with f-strings.

_CERT_HEAD = ("graph-sha256", "n-left", "n-right", "level", "member", "delta", "gamma", "t", "q-cells")
_ID_LIMIT = 10**_MAX_DIGITS  # ids have at most 18 digits: below 2^63


def _fraction(s: str) -> Fraction:
    """'a' or 'a/b' in ASCII digits, as str(Fraction) writes them."""
    num, slash, den = s.partition("/")
    d = _header_count(den) if slash else 1
    if d == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(_header_count(num), d)


def _decode_spans(b: np.ndarray, runs: tuple, s: np.ndarray, e: np.ndarray, max_ids: int, check=None) -> tuple:
    """The vertex sets written in the byte spans [s, e) of b, each as
    _ranges_encode_many writes it: maximal runs of ids 'a' or 'a-b' joined
    by ','.  ``runs`` are the digit runs of b.  Each set must list strictly
    increasing ids of at most 18 digits and without leading zeros, in
    maximal runs, at most max_ids of them; anything else raises ValueError
    before any set is expanded.  ``check``, if given, gets the id count of
    every set, also before any set is expanded, and may raise ValueError.
    Returns the ids of all sets, concatenated, and the count of each."""
    rs, re_, rv = runs
    nr = rs.size
    ra, rb = np.searchsorted(rs, s), np.searchsorted(rs, e)
    # a set is its digit runs with one ',' or '-' between each two; after
    # '-' (a range) the next id is larger, after ',' larger by two at least
    # (runs are maximal), and no run of digits has '-' on both sides ('a-b-c')
    sep = b[np.minimum(re_, b.size - 1)]
    dash = sep == ord("-")
    bad = np.ones(nr, dtype=bool)
    bad[:-1] = (rs[1:] != re_[:-1] + 1) | ~(dash[:-1] | (sep[:-1] == ord(","))) | (rv[1:] - rv[:-1] < 2 - dash[:-1])
    bad[1:] |= dash[:-1] & dash[1:]
    bad |= rv < 0  # more than 18 digits, or a leading zero
    cum = np.concatenate(([0], np.cumsum(bad, dtype=np.int32)))
    if ra.size and (
        nr == 0
        or np.any(rb <= ra)
        or np.any(rs[np.minimum(ra, nr - 1)] != s)
        or np.any(re_[np.maximum(rb - 1, 0)] != e)
        or np.any(cum[np.maximum(rb - 1, ra)] != cum[ra])
        or np.any(rv[np.maximum(rb - 1, 0)] < 0)
    ):
        raise ValueError("malformed vertex set in the certificate")
    # the runs of all sets, in set order; a run after a '-' closes a range
    n_runs = rb - ra
    first = np.cumsum(n_runs) - n_runs
    idx = np.arange(int(n_runs.sum())) + np.repeat(ra - first, n_runs)
    v = rv[idx]
    step = np.diff(v, prepend=0)  # from the id before
    closes = dash[idx - 1]
    closes[first] = False
    ids = np.where(closes, step, 1)  # ids a run adds
    count = np.add.reduceat(ids, first) if ids.size else ids
    if np.any(count > max_ids):
        raise ValueError(f"vertex set in the certificate has more than {max_ids} ids")
    if check is not None:
        check(count)
    # one cumulative sum of the steps between ids: a run that opens a range
    # steps from the last id, the ids a range adds step by one
    flat = np.repeat(np.where(closes, 1, step), ids)
    np.cumsum(flat, out=flat)
    return flat, count


def _ranges_encode_many(arrays) -> list:
    """Text of many non-empty id sets at once: each set sorted and without
    repeats, as maximal runs of consecutive ids 'a' or 'a-b' joined by ','."""
    sizes = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
    if np.any(sizes == 0):
        raise ValueError("empty vertex set")
    flat = np.concatenate(arrays).astype(np.int64, copy=False) if len(arrays) else np.empty(0, dtype=np.int64)
    if flat.size and flat.min() < 0:
        raise ValueError("negative vertex id")
    if flat.size and flat.max() >= _ID_LIMIT:
        raise ValueError("vertex id of more than 18 digits")
    sid = np.repeat(np.arange(sizes.size), sizes)
    if np.any((sid[1:] == sid[:-1]) & (flat[1:] <= flat[:-1])):
        order = np.lexsort((flat, sid))
        flat, sid = flat[order], sid[order]
        keep = np.ones(flat.size, dtype=bool)
        keep[1:] = (flat[1:] != flat[:-1]) | (sid[1:] != sid[:-1])
        flat, sid = flat[keep], sid[keep]
    # maximal runs of consecutive ids
    first = np.ones(flat.size, dtype=bool)
    first[1:] = (sid[1:] != sid[:-1]) | (flat[1:] != flat[:-1] + 1)
    first = np.flatnonzero(first)
    last = np.append(first[1:], flat.size)[: first.size] - 1
    lo, hi = flat[first], flat[last]
    runs = np.bincount(sid[first], minlength=sizes.size)
    # one number per run, two for a range 'a-b'; ',' after each run but a
    # set's last, which ends its line
    ranged = hi > lo
    at = np.cumsum(1 + ranged) - 1  # each run's last number
    vals = np.empty(at.size + np.count_nonzero(ranged), dtype=np.int64)
    vals[at] = hi
    vals[at[ranged] - 1] = lo[ranged]
    seps = np.full(vals.size, ord(","), dtype=np.uint8)
    seps[at[ranged] - 1] = ord("-")
    seps[at[np.cumsum(runs) - 1]] = ord("\n")
    return _write_tokens(vals, seps).decode("ascii").split("\n")[:-1]


def _ranges_decode_many(texts, max_ids: int = 1 << 24, check=None) -> list:
    """Inverse of _ranges_encode_many, parsed in one pass over all the
    texts.  Each set must list strictly increasing non-negative ids of at
    most 18 digits and without leading zeros, at most max_ids of them;
    anything else, and a ValueError of ``check`` on the id count of every
    set, is raised before the ids are expanded."""
    if not texts:
        return []
    # the texts between newlines; a newline inside a text makes it malformed
    b = np.frombuffer("\n".join(["", *texts, ""]).encode("ascii"), dtype=np.uint8)
    size = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    end = np.cumsum(size + 1)
    flat, count = _decode_spans(b, _digit_runs(b, canonical=True), end - size, end, max_ids, check)
    return _split_flat(flat, count)


def refute_partition(
    seq: CoreSequence,
    ell: int,
    member: int,
    P: VertexPartition,
    Q: VertexPartition,
    delta,
    t: int,
    gamma=None,
) -> IrregularityCertificate:
    """Build the irregularity certificate for a partition pair against a
    chain member.

    Preconditions, each a ValueError when it fails: 1 <= t <= ell <= s, 0
    <= member < 2^ell, the right partition c-refines the level-t right
    clusters (c = 2^-9) and the left partition does NOT gamma-refine the
    level-t left clusters.  Emits one entry per deficient cell, with the R
    of each of its ledger lines by index among the level's right clusters,
    and the total of the line values, which, when above delta * e(G),
    certifies that no edit of at most that many edges makes every cross
    pair delta-regular.
    """
    if not 1 <= t <= ell <= seq.profile.s:
        raise ValueError(f"need 1 <= t <= level <= {seq.profile.s}, got t {t} and level {ell}")
    if not 0 <= member < 1 << ell:
        raise ValueError(f"member {member} is not one of the {1 << ell} members of level {ell}")
    delta = Fraction(delta)
    c = HOST_C
    if gamma is None:
        gamma = max(32 * dyadic_root_ceil(delta, 2, 40), Fraction(32, _iroot_floor(seq.profile.r_sizes[0], 6)))
    gamma = Fraction(gamma)
    if gamma > Fraction(1, 4):
        raise ValueError("gamma must be at most 1/4 for the witness pipeline")
    if 32 * dyadic_root_ceil(delta, 2, 40) > gamma:
        raise ValueError("delta too large for gamma: need gamma >= 32*sqrt(delta)")
    g = seq.member_graph(ell, member)
    rep_q = refines_beta(Q, seq.right_parts(t), c)
    if not rep_q.verdict:
        raise ValueError("right partition does not c-refine the level-t clusters")
    rep_p = refines_beta(P, seq.left_parts(t), gamma)
    if rep_p.verdict:
        raise ValueError("left partition gamma-refines the level-t clusters; nothing to refute")
    # classify cells by the deepest level they gamma-refine: a cell stays in
    # the chain while it is gamma-inside a level-i cluster; rep_p holds the
    # level-t step
    inside = [cell_hosts(P.owner, seq.left_parts(i).owner, gamma)[2] for i in range(1, t)]
    inside.append(np.asarray(rep_p.assignment) >= 0)
    depth = np.logical_and.accumulate(inside).sum(axis=0)
    # cells inside level t are not in the deficient family; each level's
    # cells are searched in one pass
    deficient = np.flatnonzero(depth < t)
    level = depth[deficient] + 1
    # line value gamma' (2^i p |P||R| / 4 - corr), gamma' = gamma/32 and
    # p = 2^-ell, summed over a common denominator
    gamma_prime = gamma / 32
    gn, den = gamma_prime.numerator, gamma_prime.denominator * 4 << ell
    clusters, line_entry = [], []
    total_num = 0
    for i in np.unique(level).tolist():
        at = np.flatnonzero(level == i)
        cells = [P.cells[k] for k in deficient[at].tolist()]
        found = _level_witnesses(seq, ell, member, i, cells, gamma, outside=~_rstar_mask(Q, seq.right_parts(i), c))
        # a line needs |P1| >= delta |P|
        psize = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))[found["cell"]]
        keep = np.flatnonzero(found["p1_size"] >= ceil_share(psize, delta))
        rsize = seq.right_parts(i).cell_sizes()[found["cluster"][keep]]
        # exact values, one per distinct (|P|, |R|, corr)
        key, count = np.unique(np.stack([psize[keep], rsize, found["corr"][keep]]), axis=1, return_counts=True)
        total_num += sum(max(gn * ((a * b << i) - (cr * 4 << ell)), 0) * n for (a, b, cr), n in zip(key.T.tolist(), count.tolist()))
        line_entry.append(at[found["cell"][keep]])
        clusters.append(found["cluster"][keep])
    # lines in entry order; each level's lines already are
    line_entry = np.concatenate(line_entry) if line_entry else np.empty(0, dtype=np.int64)
    clusters = np.concatenate(clusters) if clusters else np.empty(0, dtype=np.int64)
    ends = np.cumsum(np.bincount(line_entry, minlength=deficient.size))
    per_entry = np.split(clusters[np.argsort(line_entry, kind="stable")], ends[:-1])
    return IrregularityCertificate(
        graph_sha256=graph_hash(g),
        n_left=seq.n_left,
        n_right=seq.n_right,
        ell=ell,
        member=member,
        delta=delta,
        gamma=gamma,
        t=t,
        q_cells=[np.asarray(cq) for cq in Q.cells],
        entries=[CertEntry(P.cells[k], int(lv), lines) for k, lv, lines in zip(deficient.tolist(), level.tolist(), per_entry)],
        total=Fraction(total_num, den),
    )


def _rstar_mask(Q: VertexPartition, rparts: VertexPartition, c: Fraction) -> np.ndarray:
    """Boolean mask over right vertices: inside the union of Q&R for Q-cells
    c-inside a cluster R."""
    host = np.asarray(refines_beta(Q, rparts, c).assignment, dtype=np.int64)
    return host[Q.owner] == rparts.owner


_RECHECK_CHUNK = 1 << 23  # P rows x n-right unpacked bytes the re-check holds at once


def reverify_certificate(cert: IrregularityCertificate, g: BipartiteGraph, right_chain) -> dict:
    """Re-check every ledger line from the serialized certificate, the
    chain's right partitions (level L at ``right_chain[L - 1]``) and the
    graph.  Returns per-line results, the edit budget delta * e(G) and the
    final verdict.

    A line's R is ``right_chain[level - 1].cells[index]``; an index that is
    not one of those cells, an entry level the chain does not hold, or an
    index not above the index of the entry's line before fails the line, so
    no entry uses a cluster twice.
    A line needs an edge-free part P1 of P with |P1| >= max(delta,
    gamma/8)|P|; the largest one is every vertex of P with no edge into R,
    so the line passes this check when that many vertices of P have none.
    Each line's correction and value are recounted here, and only their
    sum is compared, with the claimed total.  The lines of one level are
    checked together, in chunks of entries whose rows of P unpack to at
    most ``_RECHECK_CHUNK`` bytes (one entry at least): each chunk's rows
    are summed per cluster, which gives the vertices of P with no edge into
    R, and per entry, which gives e(P, R) and the correction.  The recounts
    are int64; the line values, which involve loaded numbers of any size,
    are int64 only while every product fits in 62 bits, and exact Python
    integers otherwise."""
    budget = cert.delta * int(np.bitwise_count(g.rows).sum(dtype=np.int64))
    report = {"ok": False, "refutes": False, "budget": budget, "lines_checked": 0}
    if graph_hash(g) != cert.graph_sha256:
        return {**report, "failures": [("graph-hash", None)]}
    n_left, n_right = g.left.size, g.right.size
    entries = cert.entries
    n_e = len(entries)
    p_sets = [e.p_vertices for e in entries]
    p_ids = np.concatenate(p_sets).astype(np.int64, copy=False) if p_sets else np.empty(0, dtype=np.int64)
    psize = np.fromiter(map(len, p_sets), dtype=np.int64, count=n_e)
    n_lines = np.fromiter((len(e.lines) for e in entries), dtype=np.int64, count=n_e)
    n_l = int(n_lines.sum())
    if (cert.n_left, cert.n_right) != (n_left, n_right) or (p_ids.size and (p_ids.min() < 0 or p_ids.max() >= n_left)):
        # the sides the certificate names, or its P ids, do not fit the graph
        return {**report, "failures": [("sides", None)]}
    report.update(failures=[], lines_checked=n_l)
    if cert.gamma > Fraction(1, 4) or 32 * dyadic_root_ceil(cert.delta, 2, 40) > cert.gamma:
        report["failures"].append(("parameters", None))
    # each entry's level, 0 where the chain holds none (its lines then fail),
    # and each held level's R* mask, rebuilt from Q with no code shared with
    # refute_partition: a Q-cell whose largest overlap with a cluster R (the
    # first such R on ties) leaves fewer than c|Q| vertices outside
    # contributes Q & R
    level = np.array([e.level if 1 <= e.level <= len(right_chain) else 0 for e in entries], dtype=np.int64)
    q_owner = VertexPartition(cert.n_right, cert.q_cells).owner
    q_size = np.bincount(q_owner)
    cn, cd = HOST_C.numerator, HOST_C.denominator
    levels = {}
    for lvl in np.unique(level[level > 0]).tolist():
        r_owner, k = right_chain[lvl - 1].owner, len(right_chain[lvl - 1])
        pair, count = np.unique(q_owner * k + r_owner, return_counts=True)
        q_of = pair // k
        first = np.lexsort((pair, -count, q_of))
        first = first[np.r_[True, q_of[first[1:]] != q_of[first[:-1]]]]  # one per Q-cell, in Q order
        outside = q_size - count[first]
        keep = (outside == 0) | (outside * cd < cn * q_size)
        levels[lvl] = r_owner, ~(keep[q_owner] & (r_owner == (pair[first] % k)[q_owner]))

    def by_cluster(x, r_owner, dtype):
        """The sums of the columns of x over each cluster of r_owner.  Every
        cluster size is a multiple of their gcd g, so the columns in cluster
        order are summed in blocks of g by g strided adds; when the clusters
        differ in size, each cluster's first block is taken, and the e-th
        blocks of the clusters that have more than e are added one column
        take at a time."""
        size = np.bincount(r_owner)
        g = int(np.gcd.reduce(size))
        if np.any(r_owner[1:] < r_owner[:-1]):  # the clusters are not runs in order
            x = np.take(x, np.argsort(r_owner, kind="stable"), axis=1)
        parts = x.reshape(len(x), -1, g)
        out = parts[:, :, 0].astype(dtype, copy=g > 1)  # g = 1: the columns are the blocks
        for j in range(1, g):
            out += parts[:, :, j]
        blocks = size // g
        if np.any(blocks > 1):
            first = np.cumsum(blocks) - blocks
            sums = np.take(out, first, axis=1)
            for e in range(1, int(blocks.max())):
                more = np.flatnonzero(blocks > e)
                sums[:, more] += np.take(out, first[more] + e, axis=1)
            out = sums
        return out

    # entry cells must be disjoint: an entry overlaps when an id of its P is
    # in an earlier entry
    p_entry = np.repeat(np.arange(n_e), psize)
    overlap = np.zeros(n_e, dtype=bool)
    times = np.bincount(p_ids, minlength=n_left)
    shared = np.flatnonzero(times[p_ids] > 1)
    if shared.size:
        by_id = shared[np.argsort(p_ids[shared], kind="stable")]
        first = np.flatnonzero(np.r_[True, p_ids[by_id[1:]] != p_ids[by_id[:-1]]])
        first_entry = np.repeat(p_entry[by_id[first]], np.diff(np.append(first, by_id.size)))
        overlap[p_entry[by_id][p_entry[by_id] > first_entry]] = True
    # each line's R, clamped to -1..n-right so that it fits int64 and keeps
    # its order; it must be one of its level's cells, above the entry's
    # line before
    line_entry = np.repeat(np.arange(n_e), n_lines)
    given = np.concatenate([np.asarray(e.lines) for e in entries] + [np.empty(0, dtype=np.int64)])
    cluster = np.clip(given, -1, n_right).astype(np.int64)
    cells_of = np.array([0] + [len(p) for p in right_chain], dtype=np.int64)[level]
    valid = (cluster >= 0) & (cluster < cells_of[line_entry])
    ok = valid.copy()
    ok[1:] &= (line_entry[1:] != line_entry[:-1]) | (cluster[1:] > cluster[:-1])
    # e(P, R), the correction e(P, R \ R*) and the vertices of P with no
    # edge into R from the rows of P, decoded here, not through _kernels: the
    # re-check shares no code with the refuter
    e_pr, corr, free, r_size = (np.zeros(n_l, dtype=np.int64) for _ in range(4))
    counted = np.zeros(n_e, dtype=bool)
    counted[line_entry[valid]] = True
    counted &= psize > 0
    for lvl, (r_owner, outside) in levels.items():
        mine = counted & (level == lvl)
        ents = np.flatnonzero(mine)
        ids = p_ids[np.repeat(mine, psize)]  # their rows of P, entry after entry
        ends = np.cumsum(psize[ents])
        ls = np.flatnonzero(valid & mine[line_entry])  # their lines, in entry order
        slot = (np.cumsum(mine) - 1)[line_entry[ls]]  # each line's entry, as an index into ents
        sizes = np.bincount(r_owner)
        k = sizes.size
        a = 0
        while a < ents.size:
            r0 = int(ends[a] - psize[ents[a]])
            z = max(a + 1, int(np.searchsorted(ends, r0 + _RECHECK_CHUNK // n_right, side="right")))
            bits = np.unpackbits(g.rows[ids[r0 : ends[z - 1]]].view(np.uint8), axis=1, count=n_right, bitorder="little")
            zero = by_cluster(bits, r_owner, np.min_scalar_type(n_right)) == 0  # the rows with no edge into R
            size = psize[ents[a:z]]
            first = ends[a:z] - size - r0
            colsum, none = np.zeros((z - a, n_right), dtype=np.int64), np.zeros((z - a, k), dtype=np.int64)
            for s in np.unique(size).tolist():  # the entries of one size at a time
                ent = np.flatnonzero(size == s)
                take = slice(None) if ent.size == z - a else (first[ent, None] + np.arange(s)).ravel()
                colsum[ent] = bits[take].reshape(ent.size, s, n_right).sum(axis=1, dtype=np.min_scalar_type(s))
                none[ent] = zero[take].reshape(ent.size, s, k).sum(axis=1, dtype=np.min_scalar_type(s))
            l0, l1 = np.searchsorted(slot, [a, z])
            at, c, these = slot[l0:l1] - a, cluster[ls[l0:l1]], ls[l0:l1]
            e_pr[these] = by_cluster(colsum, r_owner, np.int64)[at, c]
            corr[these] = by_cluster(colsum * outside, r_owner, np.int64)[at, c]
            free[these], r_size[these] = none[at, c], sizes[c]
            a = z
    # the line checks, in exact integers
    psize_l = psize[line_entry]
    floor = max(cert.delta, cert.gamma / 8)
    usz, inv = np.unique(psize_l, return_inverse=True)
    need = np.array([min(-(-floor.numerator * s // floor.denominator), s + 1) for s in usz.tolist()], dtype=np.int64)
    ok &= free >= need[inv.ravel()]
    # line values gamma' (2^level p |P||R| / 4 - corr), gamma' = gamma/32
    # and p = 2^-ell, summed as numerators over one denominator
    gamma_prime = cert.gamma / 32
    gn, den = gamma_prime.numerator, gamma_prime.denominator * 4 << cert.ell
    shift = max(level.tolist() + [cert.ell + 2])
    bits_needed = (n_left * n_right).bit_length() + shift + gn.bit_length() + n_l.bit_length()
    dt = np.int64 if bits_needed <= 62 else object
    area = (psize_l * r_size).astype(dt) * np.array([1 << lv for lv in level.tolist()], dtype=dt)[line_entry]  # |P||R| 2^level
    num = gn * (area - corr.astype(dt) * (4 << cert.ell))
    num = np.where(num > 0, num, 0)
    ok &= e_pr.astype(dt) * (4 << cert.ell) >= area  # d(P, R) >= 2^level p / 4
    total_num = int(num.sum()) if n_l else 0
    # failures in entry order: an overlap, then the entry's failing lines
    fails = [(k, 0, ("entry-overlap", k)) for k in np.flatnonzero(overlap).tolist()]
    fails += [(k, 1, ("line", k, int(given[j]))) for j, k in zip(np.flatnonzero(~ok).tolist(), line_entry[~ok].tolist())]
    report["failures"] += [f for _, _, f in sorted(fails, key=lambda x: x[:2])]
    if Fraction(total_num, den) != cert.total:
        report["failures"].append(("total", None))
    report["ok"] = not report["failures"]
    report["refutes"] = report["ok"] and cert.total > budget
    return report


# -- directory serialization ----------------------------------------------


def save_core_sequence(seq: CoreSequence, out_dir: str) -> dict:
    """Write the manifest and, as ``gamma-i-m.bin``, the Gamma that split
    member m of level i - 1, its SHA-256 in ``gamma_hashes``.  Neither the
    members nor the chain are stored: the loader derives them from the
    Gammas and the profile, so a sequence on a chain other than
    ``default_chains(profile)``, or one not built, raises ValueError."""
    if (list(seq.left_chain), list(seq.right_chain)) != default_chains(seq.profile) or len(seq.gamma_records) < (1 << seq.profile.s) - 1:
        raise ValueError("a core artifact stores its Gammas and no chain: only a sequence built on default_chains(profile) can be saved")
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "profile": seq.profile.to_json(),
        "seed": seq.seed,
        "gamma_telemetry": {f"{i}/{idx}": rec["telemetry"]["draws"] for (i, idx), rec in seq.gamma_records.items()},
        "gamma_hashes": {},
        "sampler_stream": SAMPLER_STREAM,
    }
    for (i, idx), rec in seq.gamma_records.items():
        blob = bipartite_to_binary(rec["balanced"].graph)
        with open(os.path.join(out_dir, f"gamma-{i}-{idx}.bin"), "wb") as f:
            f.write(blob)
        manifest["gamma_hashes"][f"{i}/{idx}"] = hashlib.sha256(blob).hexdigest()
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return manifest


class ArtifactMismatch(ValueError):
    """A file of a core artifact differs from the hash its manifest records."""


def load_core_sequence(out_dir: str) -> CoreSequence:
    """The chain saved in out_dir, from ``manifest.json`` and the
    ``gamma-i-m.bin`` files alone: the partitions are ``default_chains`` of
    the recorded profile, and each parent's children are split by its Gamma
    as the build split them.  A Gamma file must have the SHA-256 that
    ``gamma_hashes`` records, else ArtifactMismatch naming the file, before
    it is parsed; one that does not parse raises ValueError, and so does one
    that is not l_i x r_i.  A manifest without a ``gamma_hashes`` object (an
    older artifact of quotient files) or ``SAMPLER_STREAM`` raises
    ValueError: the artifact must be rebuilt."""
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    check_sampler_stream(manifest, "manifest.json", "build-core")
    if type(manifest.get("gamma_hashes")) is not dict:
        raise ValueError("manifest.json records no gamma_hashes object: the artifact stores no Gammas; rebuild it with build-core")
    profile = GrowthProfile.from_json(manifest["profile"])
    seq = CoreSequence(profile, *default_chains(profile), _json_int(manifest, "seed"))
    for i in range(1, profile.s + 1):
        shape, level_members = (profile.l_sizes[i - 1], profile.r_sizes[i - 1]), []
        for idx in range(1 << (i - 1)):
            name = f"gamma-{i}-{idx}.bin"
            with open(os.path.join(out_dir, name), "rb") as f:
                blob = f.read()
            if hashlib.sha256(blob).hexdigest() != manifest["gamma_hashes"][f"{i}/{idx}"]:
                raise ArtifactMismatch(f"{name} does not match its hash in manifest.json")
            gamma = bipartite_from_binary(blob)
            if (gamma.left.size, gamma.right.size) != shape:
                raise ValueError(f"{name} is a {gamma.left.size} x {gamma.right.size} graph, not {shape[0]} x {shape[1]}")
            level_members += _split_by_gamma(seq, i, idx, gamma)
        seq.members.append(level_members)
    return seq
