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
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .balanced import BalanceSpec, check_one_twelve, sample_balanced
from .graphs import (
    BipartiteGraph,
    VertexClass,
    bipartite_from_binary,
    bipartite_to_binary,
    graph_hash,
)
from .partitions import VertexPartition, refines_beta


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
        alpha = d.get("alpha", "3/4")
        if isinstance(alpha, list):
            alpha = [Fraction(a) for a in alpha]
        elif alpha != "paper":
            alpha = Fraction(alpha)
        return GrowthProfile(
            s=d["s"],
            r_sizes=d["r_sizes"],
            l_sizes=d["l_sizes"],
            blowup_left=d.get("blowup_left", 1),
            blowup_right=d.get("blowup_right", 1),
            alpha=alpha,
            beta=Fraction(d.get("beta", "1/2")),
            enforce=tuple(d.get("enforce", ["ii", "iii"])),
            strict_mode=d.get("strict_mode", False),
            max_retries=d.get("max_retries", 50),
        )


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
    parent: int | None


@dataclass
class NeighborFamily:
    level: int
    left_cluster: int
    members: np.ndarray  # level-i right clusters

    def cardinality(self) -> int:
        return len(self.members)


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
        root = CoreMember(level=0, index=0, quotient=BipartiteGraph.complete(VertexClass("L", 1), VertexClass("R", 1)), parent=None)
        self.members = [[root]]
        self.gamma_records = {}
        self._materialized = {}

    # -- chain access ---------------------------------------------------

    def left_parts(self, i: int) -> VertexPartition:
        return self.left_chain[i - 1]

    def right_parts(self, i: int) -> VertexPartition:
        return self.right_chain[i - 1]

    def member(self, level: int, index: int) -> CoreMember:
        return self.members[level][index]

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

    def quotient_t_bits(self, level: int, index: int) -> np.ndarray:
        """Per-right-cluster uint8 0/1 rows over left clusters, cached."""
        key = ("tqbits", level, index)
        if key not in self._materialized:
            q = self.members[level][index].quotient
            tq = q.transposed()
            self._materialized[key] = _kernels.unpack_rows(tq.rows, q.left.size)
        return self._materialized[key]

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
                cluster_rows = _kernels.transpose_bits(m.quotient.transposed().rows[rp.owner], len(lp.cells))
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
    pairs = np.unique(child.owner * len(parent) + parent.owner)
    if pairs.size != len(child):
        raise ValueError("chain is not an exact successive refinement")
    return pairs % len(parent)


def default_chains(profile: GrowthProfile):
    """Nested contiguous-block cluster chains at the profile's sizes."""
    nl = profile.l_sizes[-1] * profile.blowup_left
    nr = profile.r_sizes[-1] * profile.blowup_right
    left = [VertexPartition.blocks(nl, c) for c in profile.l_sizes]
    right = [VertexPartition.blocks(nr, c) for c in profile.r_sizes]
    return left, right


def neighbor_family(seq: CoreSequence, i: int, left_cluster: int, member: int = 0) -> NeighborFamily:
    """Level-i right clusters inside level-(i-1) clusters adjacent to the
    given level-(i-1) left cluster in the member's quotient."""
    if i < 1 or i - 1 >= len(seq.members):
        raise ValueError("level out of range")
    parentq = seq.members[i - 1][member].quotient
    adjacent = _kernels.unpack_rows(parentq.rows[left_cluster], parentq.right.size)
    members = np.flatnonzero(adjacent[seq.rparent[i - 1]]).astype(np.int64)
    return NeighborFamily(level=i, left_cluster=left_cluster, members=members)


def build_core_sequence(profile: GrowthProfile, seed: int, left_chain=None, right_chain=None) -> CoreSequence:
    """Run the full construction at the profile's scale."""
    if left_chain is None or right_chain is None:
        left_chain, right_chain = default_chains(profile)
    seq = CoreSequence(profile, left_chain, right_chain, seed)
    for i in range(1, profile.s + 1):
        xs = seq.x_cells(i)
        ys = seq.y_cells(i)
        level_members = []
        for idx, parent in enumerate(seq.members[i - 1]):
            fam = [neighbor_family(seq, i, L, member=idx).members for L in range(parent.quotient.left.size)]
            spec = BalanceSpec(x_cells=xs, y_cells=ys, family=fam, alpha=profile.alpha_at(i), beta=profile.beta)
            gseed = derive_seed(seed, "gamma", i, idx)
            bg, telemetry = sample_balanced(spec, gseed, max_retries=profile.max_retries, enforce=profile.enforce)
            seq.gamma_records[(i, idx)] = {"seed": gseed, "telemetry": telemetry, "balanced": bg}
            expand = _expand_quotient(parent.quotient, seq.lparent[i - 1], seq.rparent[i - 1], profile.l_sizes[i - 1], profile.r_sizes[i - 1])
            inter = expand.rows & bg.graph.rows
            rest = expand.rows & ~bg.graph.rows
            lcls = VertexClass("L", profile.l_sizes[i - 1])
            rcls = VertexClass("R", profile.r_sizes[i - 1])
            child1 = BipartiteGraph(lcls, rcls, inter)
            child2 = BipartiteGraph(lcls, rcls, rest)
            level_members.append(CoreMember(level=i, index=2 * idx, quotient=child1, parent=idx))
            level_members.append(CoreMember(level=i, index=2 * idx + 1, quotient=child2, parent=idx))
        seq.members.append(level_members)
    return seq


def _expand_quotient(q: BipartiteGraph, lparent, rparent, l_new, r_new) -> BipartiteGraph:
    rows = _kernels.transpose_bits(q.transposed().rows[rparent], q.left.size)[lparent]
    return BipartiteGraph(VertexClass("L", l_new), VertexClass("R", r_new), rows)


# -- structural verification --------------------------------------------


def verify_structure(seq: CoreSequence) -> dict:
    """Exact recount of the four structural invariants: dyadic densities,
    two-child chain splits, zero/one block densities, neighbor-family
    cardinalities."""
    prof = seq.profile
    nl, nr = seq.n_left, seq.n_right
    report = {"density": True, "chain": True, "blocks": True, "families": True, "failures": []}
    for j in range(1, prof.s + 1):
        lp, rp = seq.left_parts(j), seq.right_parts(j)
        area = nl * nr
        for m in seq.members[j]:
            g = seq.member_graph(j, m.index)
            if g.edge_count() * (1 << j) != area:
                report["density"] = False
                report["failures"].append(("density", j, m.index))
            D = _block_degree_matrix(g, lp, rp)
            lsz = np.bincount(lp.owner, minlength=len(lp)).astype(D.dtype)
            rsz = np.bincount(rp.owner, minlength=len(rp)).astype(D.dtype)
            mixed = (D != 0) & (D != np.outer(lsz, rsz))
            if mixed.any():
                report["blocks"] = False
                for a, b in np.argwhere(mixed)[:8]:
                    report["failures"].append(("block", j, m.index, int(a), int(b)))
        for idx in range(len(seq.members[j - 1])):
            gparent = seq.member_graph(j - 1, idx)
            c1 = seq.member_graph(j, 2 * idx)
            c2 = seq.member_graph(j, 2 * idx + 1)
            if np.any(c1.rows & c2.rows) or not np.array_equal(c1.rows | c2.rows, gparent.rows):
                report["chain"] = False
                report["failures"].append(("chain", j, idx))
    for i in range(1, prof.s + 1):
        expected = prof.r_sizes[i - 1] >> (i - 1)
        for idx in range(len(seq.members[i - 1])):
            for L in range(prof.l_sizes[i - 2] if i >= 2 else 1):
                fam = neighbor_family(seq, i, L, member=idx)
                if fam.cardinality() != expected:
                    report["families"] = False
                    report["failures"].append(("family", i, idx, L))
    report["ok"] = all(report[k] for k in ("density", "chain", "blocks", "families"))
    return report


def _is_block_partition(p: VertexPartition) -> bool:
    k = len(p)
    return p.n % k == 0 and np.array_equal(p.owner, np.arange(p.n) // (p.n // k))


def _block_degree_matrix(g: BipartiteGraph, lp: VertexPartition, rp: VertexPartition) -> np.ndarray:
    """Edge counts of every (left cell, right cell) block, summed from a
    uint8 unpack of the rows."""
    bits = _kernels.unpack_rows(g.rows, g.right.size)
    return _group_sum(_group_sum(bits, lp, 0), rp, 1)


def verify_core_properties(seq: CoreSequence, i: int, left_cluster=None, member: int = 0) -> dict:
    """Two per-level properties of a level-i member:

    1. within every parent-adjacent block, the member's vertex graph is
       biregular of density one half (and the member is biregular overall);
    2. codegrees of distinct neighbor-family clusters inside each parent
       left cell stay at or below (1 + alpha_i)/4 of the cell.
    """
    prof = seq.profile
    parent_idx = member // 2
    parentq = seq.members[i - 1][parent_idx].quotient
    q = seq.members[i][member].quotient
    g = seq.member_graph(i, member)
    lp_prev = seq.left_parts(i - 1) if i >= 2 else VertexPartition(seq.n_left, [range(seq.n_left)])
    rp_prev = seq.right_parts(i - 1) if i >= 2 else VertexPartition(seq.n_right, [range(seq.n_right)])
    report = {"item1": True, "item2": True, "failures": []}
    lclusters = list(range(parentq.left.size)) if left_cluster is None else [left_cluster]
    # item 1, vectorized: per-vertex degrees into every parent block must be
    # exactly half the block side where the parent block is present, 0 where
    # absent; checked on both sides.
    par_bits = _kernels.unpack_rows(parentq.rows, parentq.right.size).astype(np.int64)
    bits = _kernels.unpack_rows(g.rows, seq.n_right)
    # (r_parent, n_left): degrees of every left vertex into each parent right cell
    deg_into_R = _group_sum(bits, rp_prev, 1).T
    lsizes = np.array([len(c) for c in rp_prev.cells], dtype=np.int64)
    expected = (par_bits.T * (lsizes[:, None] // 2))[:, lp_prev.owner]
    if not np.array_equal(deg_into_R, expected):
        report["item1"] = False
        bad = np.argwhere((deg_into_R != expected).T)
        for v, b in bad[:4]:
            report["failures"].append(("item1-left", i, member, int(lp_prev.owner[v]), int(b)))
    deg_into_L = _group_sum(bits, lp_prev, 0)  # (l_parent, n_right)
    rsizes = np.array([len(c) for c in lp_prev.cells], dtype=np.int64)
    expectedR = par_bits[:, rp_prev.owner] * (rsizes[:, None] // 2)
    if not np.array_equal(deg_into_L, expectedR):
        report["item1"] = False
        report["failures"].append(("item1-right", i, member))
    degs = g.degrees()
    if np.any(degs * (1 << i) != seq.n_right):
        report["item1"] = False
        report["failures"].append(("item1-global-left", i, member))
    # item 2 on the quotient: codegrees inside each parent left cell, counted
    # on the words that cell spans
    alpha = prof.alpha_at(i)
    an, ad = alpha.numerator, alpha.denominator
    tq = q.transposed()  # per right-cluster bits over left clusters
    cell_of = {int(seq.lparent[i - 1][cell[0]]): cell for cell in seq.x_cells(i).cells}
    for L in lclusters:
        fam = neighbor_family(seq, i, L, member=parent_idx).members
        if len(fam) < 2:
            continue
        cell = cell_of[L]
        lo, hi = int(cell[0]) >> 6, (int(cell[-1]) >> 6) + 1
        sub = tq.rows[fam, lo:hi] & _kernels.pack_indices(cell - 64 * lo, 64 * (hi - lo))
        counts = _kernels.and_popcount_pairs(sub, np.stack(np.triu_indices(len(fam), k=1), axis=1))
        if np.any(4 * counts * ad > len(cell) * (ad + an)):
            report["item2"] = False
            report["failures"].append(("item2", i, member, L))
    report["ok"] = report["item1"] and report["item2"]
    return report


_SLICE_SUM_WIDTH = 8


def _group_sum(x: np.ndarray, p: VertexPartition, axis: int) -> np.ndarray:
    """Sums of a non-negative integer matrix over each cell of p along an
    axis, in the smallest unsigned dtype that holds them."""
    k = len(p)
    sizes = np.bincount(p.owner, minlength=k)
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
            out += blocks[..., j]
        return out
    order = np.argsort(p.owner, kind="stable")
    return np.add.reduceat(np.take(x, order, axis=axis), np.cumsum(sizes) - sizes, axis=axis, dtype=dtype)


def verify_degree_property(seq: CoreSequence, ell: int, i: int, L: int, R: int, member: int = 0) -> dict:
    """With the level-i ancestor block (L, R) present, every vertex of the
    level-i left cluster L has exactly 2^(i-ell) |R| neighbors in R."""
    anc = seq.ancestor_index(ell, member, i)
    qi = seq.members[i][anc].quotient
    if not qi.has_edge(L, R):
        raise ValueError("block (L, R) is not present at the ancestor level")
    g = seq.member_graph(ell, member)
    Lverts = seq.left_parts(i).cells[L]
    Rverts = seq.right_parts(i).cells[R]
    mask = _kernels.pack_indices(Rverts, seq.n_right)
    degs = _kernels.masked_degrees(g.rows[Lverts], mask)
    expected_num = len(Rverts)  # degree = |R| * 2^(i-ell): exact integer check
    ok = bool(np.all(degs.astype(object) * (1 << (ell - i)) == expected_num))
    return {"ok": ok, "degrees": degs, "expected_times_2tothe(ell-i)": expected_num}


def verify_quasirandomness(seq: CoreSequence, ell: int, member: int = 0, subsample_cap: int = 20) -> dict:
    """Exact codegree-excess accounting over the right side and the derived
    deviation parameter; includes an exact small-subsample deviation check.
    """
    g = seq.member_graph(ell, member)
    q = seq.members[ell][member].quotient
    nl, nr = seq.n_left, seq.n_right
    p = Fraction(1, 1 << ell)
    rp = seq.right_parts(ell)
    wl = nl // q.left.size  # left cluster width
    tq = q.transposed()
    rpairs = np.array([(a, b) for a in range(q.right.size) for b in range(q.right.size)], dtype=np.int64)
    cod = _kernels.and_popcount_pairs(tq.rows, rpairs).reshape(q.right.size, q.right.size)
    # vertex-level codegree between v in R_a, v' in R_b is cod[a,b] * wl
    base = p * p * nl
    cluster_sizes = np.array([len(c) for c in rp.cells], dtype=np.int64)
    worst = Fraction(0)
    for a in range(q.right.size):
        excess = Fraction(0)
        for b in range(q.right.size):
            cd = Fraction(int(cod[a, b]) * wl)
            if cd > base:
                excess += (cd - base) * int(cluster_sizes[b])
        if excess > worst:
            worst = excess
    alpha_hat = worst / (p * p * nl * nr)
    eps = 2 * dyadic_root_ceil(alpha_hat, 6, 20)
    out = {"alpha_hat": alpha_hat, "eps": eps, "eps_vacuous": eps >= 1}
    if not out["eps_vacuous"]:
        from .regularity import CapExceeded, _induced_pair, is_eps_regular_graph

        sub = _induced_pair(g, np.arange(min(subsample_cap, nl)), np.arange(min(subsample_cap, nr)))
        try:
            out["subsample_exact"] = is_eps_regular_graph(sub, eps, mode="exact")
        except CapExceeded:
            out["subsample_exact"] = {"status": "cap-exceeded"}
        out["sampled_scan"] = is_eps_regular_graph(g, eps, mode="sampled", seed=derive_seed(seq.seed, "qr", ell, member))
    return out


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
    level-i right cluster count.
    """
    gamma = Fraction(gamma)
    P = np.unique(np.asarray(P, dtype=np.int64))
    lp_i = seq.left_parts(i)
    lp_prev = seq.left_parts(i - 1) if i >= 2 else VertexPartition(seq.n_left, [range(seq.n_left)])
    # the level-i clusters P touches, and its mass in each
    touched, tmass = np.unique(lp_i.owner[P], return_counts=True)
    tot = int(P.size)
    # precondition: P in_{1/4} previous level
    prev_mass = np.bincount(lp_prev.owner[P], minlength=len(lp_prev.cells)).astype(np.int64)
    host = int(np.argmax(prev_mass))
    outside_prev = tot - int(prev_mass[host])
    if not (outside_prev == 0 or 4 * outside_prev < tot):
        raise ValueError("subset is not 1/4-inside a previous-level cluster")
    # precondition: P not gamma-inside any level-i cluster, that is no cluster
    # leaves 0 or fewer than gamma|P| of P outside (all of P for a cluster P
    # misses); outside < gamma|P| is outside <= ceil(gamma|P|) - 1
    below = min(tot, -(-gamma.numerator * tot // gamma.denominator) - 1)
    outside = tot - tmass
    if np.any((outside == 0) | (outside <= below)) or (touched.size < len(lp_i) and (tot == 0 or tot <= below)):
        raise ValueError("subset is gamma-inside a level-i cluster; no witnesses")
    anc = seq.ancestor_index(ell, member, i)
    fam = neighbor_family(seq, i, host, member=seq.ancestor_index(ell, member, i - 1)).members
    maxmass = int(tmass.max())
    in_host = seq.lparent[i - 1][touched] == host
    out_of_host_mass = tot - int(tmass[in_host].sum())
    nb_bits = seq.quotient_t_bits(i, anc)[np.ix_(fam, touched)]
    in_nb = nb_bits @ tmass
    in_nb_in_host = nb_bits @ (tmass * in_host)
    # (a) non-neighbor mass >= (|P| - max cluster mass) / 8
    # (b) in-host neighbor mass >= |P|/2 - out-of-host mass
    qualifies = (8 * (tot - in_nb) >= tot - maxmass) & (2 * in_nb_in_host >= tot - 2 * out_of_host_mass)
    # P1 of each family cluster: the vertices of P in non-neighbor clusters
    in_p1 = nb_bits[:, np.searchsorted(touched, lp_i.owner[P])] == 0
    # e(P, R) and e(P1, R) for every family cluster, from one unpack of P's rows
    rp_i = seq.right_parts(i)
    g = seq.member_graph(ell, member)
    bits = _kernels.unpack_rows(g.rows[P], seq.n_right)
    row_deg = _group_sum(bits, rp_i, 1)[:, fam]
    e_pr = row_deg.sum(axis=0, dtype=np.int64)
    e_p1 = (row_deg * in_p1.T).sum(axis=0, dtype=np.int64)
    witnesses = []
    for fi in np.flatnonzero(qualifies):
        rverts = rp_i.cells[int(fam[fi])]
        p1 = P[in_p1[fi]]
        assert e_p1[fi] == 0, "witness construction must be edge-free"
        # d(P, R) >= 2^i p / 4, with p = 2^-ell
        assert int(e_pr[fi]) * 4 << ell >= tot * rverts.size << i
        assert 8 * p1.size * gamma.denominator >= gamma.numerator * tot
        witnesses.append(Witness(right_cluster=int(fam[fi]), r_vertices=rverts, p1_vertices=p1, d_pr_num=int(e_pr[fi]), level=i))
    bound = Fraction(seq.profile.r_sizes[i - 1], 6) / (1 << i)
    if require_count and Fraction(len(witnesses)) < bound:
        raise AssertionError(f"witness count {len(witnesses)} below the {bound} cluster bound")
    return witnesses


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
class LedgerLine:
    entry: int
    right_cluster_level: int
    r_vertices: np.ndarray
    p1_vertices: np.ndarray
    correction: int  # e_G(P, R \ Rstar_i)
    value: Fraction


@dataclass
class CertEntry:
    p_vertices: np.ndarray
    level: int
    lines: list


HOST_C = Fraction(1, 512)  # the c with which the refuter's Q must c-refine the level-t right clusters


@dataclass
class IrregularityCertificate:
    graph_sha256: str
    n_left: int
    n_right: int
    ell: int
    delta: Fraction
    gamma: Fraction
    gamma_prime: Fraction
    host_c: Fraction
    t: int
    q_cells: list
    r_level_cells: dict  # level -> list of cluster vertex arrays
    entries: list
    total: Fraction
    budget: Fraction

    @property
    def refutes(self) -> bool:
        return self.total > self.budget

    def to_text(self) -> str:
        levels = sorted(self.r_level_cells)
        sets = list(self.q_cells)
        for lvl in levels:
            sets.extend(self.r_level_cells[lvl])
        for e in self.entries:
            sets.append(e.p_vertices)
            for ln in e.lines:
                sets.extend((ln.r_vertices, ln.p1_vertices))
        enc = iter(_ranges_encode_many(sets))
        out = ["irregularity-certificate v1"]
        out.append(f"graph-sha256 {self.graph_sha256}")
        out.append(f"n-left {self.n_left}")
        out.append(f"n-right {self.n_right}")
        out.append(f"level {self.ell}")
        out.append(f"delta {self.delta}")
        out.append(f"gamma {self.gamma}")
        out.append(f"gamma-prime {self.gamma_prime}")
        out.append(f"host-c {self.host_c}")
        out.append(f"t {self.t}")
        out.append(f"budget {self.budget}")
        out.append(f"q-cells {len(self.q_cells)}")
        out.extend("q " + next(enc) for _ in self.q_cells)
        for lvl in levels:
            cells = self.r_level_cells[lvl]
            out.append(f"r-level {lvl} {len(cells)}")
            out.extend("r " + next(enc) for _ in cells)
        out.append(f"entries {len(self.entries)}")
        for k, e in enumerate(self.entries):
            out.append(f"entry {k} level {e.level}")
            out.append("p " + next(enc))
            out.append(f"lines {len(e.lines)}")
            for ln in e.lines:
                out.append(f"line R={next(enc)} P1={next(enc)} corr={ln.correction} value={ln.value}")
        out.append(f"total {self.total}")
        return "\n".join(out) + "\n"

    @staticmethod
    def from_text(text: str) -> "IrregularityCertificate":
        """Parse the text form.  Truncated or malformed text, and vertex ids
        outside the sides, raise ValueError."""
        rd = _LineReader(text)
        rd.take("irregularity-certificate v1")
        kv = {}
        while "q-cells" not in kv:
            k, sep, v = rd.take("").partition(" ")
            if not sep:
                raise ValueError(f"certificate line {rd.pos}: expected a header field")
            kv[k] = v
        missing = {"graph-sha256", "n-left", "n-right", "level", "delta", "gamma", "gamma-prime", "host-c", "t", "budget"} - set(kv)
        if missing:
            raise ValueError(f"certificate header misses {sorted(missing)}")
        n_left, n_right = _count(kv["n-left"]), _count(kv["n-right"])
        # range fields are decoded together at the end; until then every set
        # is its index into fields: (text, side size, may be empty)
        fields = []

        def field(text, n, may_be_empty=False):
            fields.append((text, n, may_be_empty))
            return len(fields) - 1

        q_cells = [field(rd.take("q "), n_right) for _ in range(_count(kv["q-cells"]))]
        r_level_cells = {}
        while rd.peek("r-level "):
            parts = rd.take("r-level ").split()
            if len(parts) != 2:
                raise ValueError(f"certificate line {rd.pos}: expected 'r-level <level> <count>'")
            r_level_cells[_count(parts[0])] = [field(rd.take("r "), n_right) for _ in range(_count(parts[1]))]
        entries = []
        for k in range(_count(rd.take("entries "))):
            head = rd.take("entry ").split()
            if len(head) != 3 or head[0] != str(k) or head[1] != "level":
                raise ValueError(f"certificate line {rd.pos}: expected 'entry {k} level <level>'")
            level = _count(head[2])
            if level not in r_level_cells:
                raise ValueError(f"certificate line {rd.pos}: no r-level cells for level {level}")
            p_vertices = field(rd.take("p "), n_left)
            lns = []
            for _ in range(_count(rd.take("lines "))):
                d = dict(part.split("=", 1) for part in rd.take("line ").split())
                if d.keys() != {"R", "P1", "corr", "value"}:
                    raise ValueError(f"certificate line {rd.pos}: expected 'line R= P1= corr= value='")
                lns.append(
                    LedgerLine(
                        entry=len(entries),
                        right_cluster_level=level,
                        r_vertices=field(d["R"], n_right),
                        p1_vertices=field(d["P1"], n_left, may_be_empty=True),
                        correction=_count(d["corr"]),
                        value=_fraction(d["value"]),
                    )
                )
            entries.append(CertEntry(p_vertices=p_vertices, level=level, lines=lns))
        total = _fraction(rd.take("total "))
        if rd.pos != len(rd.lines):
            raise ValueError(f"certificate line {rd.pos + 1}: text after the total")

        def sizes_fit(count):
            # each bound follows from a check of reverify_certificate (Q and
            # every r-level partition the right side, entries are disjoint,
            # no entry reuses a right vertex, P1 lies inside P), so an honest
            # certificate meets it; made before any set is expanded, so that
            # a forged set costs no memory
            count = count.tolist()

            def ids(sets):
                return sum(count[j] for j in sets)

            if ids(q_cells) > n_right:
                raise ValueError("the q cells of the certificate have more than n-right ids")
            if any(ids(cells) > n_right for cells in r_level_cells.values()):
                raise ValueError("one level's r cells in the certificate have more than n-right ids")
            if ids(e.p_vertices for e in entries) > n_left:
                raise ValueError("the p sets of the certificate have more than n-left ids")
            for k, e in enumerate(entries):
                if ids(ln.r_vertices for ln in e.lines) > n_right:
                    raise ValueError(f"the R sets of certificate entry {k} have more than n-right ids")
                if any(count[ln.p1_vertices] > count[e.p_vertices] for ln in e.lines):
                    raise ValueError(f"a P1 set of certificate entry {k} has more ids than its p set")

        sets = _ranges_decode_many([f for f, _, _ in fields], max_ids=max(n_left, n_right), check=sizes_fit)
        for (f, n, may_be_empty), ids in zip(fields, sets):
            if ids.size == 0 and not may_be_empty:
                raise ValueError(f"empty vertex set {f!r} in the certificate")
            if ids.size and ids[-1] >= n:
                raise ValueError(f"vertex id {ids[-1]} out of range 0..{n - 1} in the certificate")
        for e in entries:
            e.p_vertices = sets[e.p_vertices]
            for ln in e.lines:
                ln.r_vertices, ln.p1_vertices = sets[ln.r_vertices], sets[ln.p1_vertices]
        return IrregularityCertificate(
            graph_sha256=kv["graph-sha256"],
            n_left=n_left,
            n_right=n_right,
            ell=_count(kv["level"]),
            delta=_fraction(kv["delta"]),
            gamma=_fraction(kv["gamma"]),
            gamma_prime=_fraction(kv["gamma-prime"]),
            host_c=_fraction(kv["host-c"]),
            t=_count(kv["t"]),
            q_cells=[sets[j] for j in q_cells],
            r_level_cells={lvl: [sets[j] for j in cells] for lvl, cells in r_level_cells.items()},
            entries=entries,
            total=total,
            budget=_fraction(kv["budget"]),
        )


class _LineReader:
    """Lines of a text form, taken one at a time by their expected prefix."""

    def __init__(self, text: str):
        self.lines = text.strip("\n").split("\n")
        self.pos = 0

    def peek(self, prefix: str) -> bool:
        return self.pos < len(self.lines) and self.lines[self.pos].startswith(prefix)

    def take(self, prefix: str) -> str:
        if self.pos >= len(self.lines):
            raise ValueError(f"certificate truncated: expected {prefix.strip()!r} after line {self.pos}")
        if not self.peek(prefix):
            raise ValueError(f"certificate line {self.pos + 1}: expected {prefix.strip()!r}")
        self.pos += 1
        return self.lines[self.pos - 1][len(prefix) :]


def _count(s: str) -> int:
    v = int(s)
    if v < 0:
        raise ValueError(f"negative count {s!r}")
    return v


def _fraction(s: str) -> Fraction:
    """'a' or 'a/b', as str(Fraction) writes them."""
    num, _, den = s.partition("/")
    den = int(den or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), den)


def _ranges_encode(arr) -> str:
    return _ranges_encode_many([arr])[0]


def _ranges_decode(s: str) -> np.ndarray:
    return _ranges_decode_many([s])[0]


def _ranges_encode_many(arrays) -> list:
    """Text of many id sets at once: maximal runs of consecutive ids as 'a'
    or 'a-b', joined by ',', and '-' for an empty set."""
    arrs = [np.asarray(a, dtype=np.int64).ravel() for a in arrays]
    sizes = np.fromiter((a.size for a in arrs), dtype=np.int64, count=len(arrs))
    flat = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.int64)
    if flat.size == 0:
        return ["-"] * len(arrs)
    if flat.min() < 0:
        raise ValueError("negative vertex id")
    aid = np.repeat(np.arange(len(arrs)), sizes)
    if np.any((aid[1:] == aid[:-1]) & (flat[1:] <= flat[:-1])):
        order = np.lexsort((flat, aid))
        flat, aid = flat[order], aid[order]
        keep = np.ones(flat.size, dtype=bool)
        keep[1:] = (flat[1:] != flat[:-1]) | (aid[1:] != aid[:-1])
        flat, aid = flat[keep], aid[keep]
    first = np.ones(flat.size, dtype=bool)
    first[1:] = (aid[1:] != aid[:-1]) | (flat[1:] != flat[:-1] + 1)
    first = np.flatnonzero(first)
    last = np.append(first[1:], flat.size) - 1
    ranged = flat[last] > flat[first]
    # printed numbers: each run's first id, then its last id if it is a range;
    # after each number '-' (range follows), ',' (run follows) or '\n' (set ends)
    at = np.arange(first.size) + np.cumsum(ranged) - ranged
    nums = np.empty(first.size + int(ranged.sum()), dtype=np.int64)
    nums[at] = flat[first]
    nums[at[ranged] + 1] = flat[last[ranged]]
    seps = np.full(nums.size, 2, dtype=np.int64)
    run_ends = np.append(at[1:], nums.size) - 1
    seps[run_ends[:-1][aid[first[1:]] == aid[first[:-1]]]] = 1
    seps[at[ranged]] = 0
    # decimal digits of every number right-aligned in a byte matrix whose
    # last column is the separator; dropping the leading padding leaves the text
    wide = len(str(int(nums.max())))
    mat = np.empty((nums.size, wide + 1), dtype=np.uint8)
    mat[:, -1] = np.frombuffer(b"-,\n", dtype=np.uint8)[seps]
    rest = nums
    for k in range(wide - 1, -1, -1):
        mat[:, k] = ord("0") + rest % 10
        rest = rest // 10
    pad = np.zeros(nums.size, dtype=np.int64)
    for k in range(1, wide):
        pad += nums < 10**k
    text = ["-"] * len(arrs)
    run_aid = aid[first]
    listed = run_aid[np.flatnonzero(np.diff(run_aid, prepend=-1))]
    for a, s in zip(listed.tolist(), mat[np.arange(wide + 1) >= pad[:, None]].tobytes().decode("ascii").split("\n")):
        text[a] = s
    return text


def _ranges_decode_many(texts, max_ids: int = 1 << 24, check=None) -> list:
    """Inverse of _ranges_encode_many, parsed in one pass over all the
    texts.  Each set must list strictly increasing non-negative ids of at
    most 18 digits and expand to at most max_ids ids; anything else raises
    ValueError before the ids are expanded.  ``check``, if given, gets the
    id count of every text (0 for '-') as an int64 array, also before any
    set is expanded, and may raise ValueError."""
    out = [np.empty(0, dtype=np.int64) for _ in texts]
    full = [k for k, s in enumerate(texts) if s != "-"]
    if not full:
        return out
    joined = ",".join(texts[k] for k in full)
    if not joined.isascii():
        raise ValueError("vertex set text is not ASCII")
    b = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    digit = (b >= ord("0")) & (b <= ord("9"))
    seps = np.flatnonzero(~digit)
    dash = b[seps] == ord("-")
    bounds = np.concatenate(([-1], seps, [b.size]))
    if (
        not np.all(dash | (b[seps] == ord(",")))
        or np.any(np.diff(bounds) < 2)  # empty id: leading, trailing or doubled separator
        or np.any(np.diff(bounds) > 19)
        or np.any(dash[1:] & dash[:-1])  # 'a-b-c'
    ):
        raise ValueError("malformed vertex set in the certificate")
    ids = np.fromstring(joined.replace("-", ","), dtype=np.int64, sep=",")
    # runs: an id not preceded by '-', up to the id after its '-' if any
    starts = np.flatnonzero(np.concatenate(([True], ~dash)))
    ranged = np.append(dash, False)[starts]
    lo, hi = ids[starts], ids[starts + ranged]
    runs = np.array([texts[k].count(",") + 1 for k in full])
    first = np.cumsum(runs) - runs
    increasing = lo[1:] > hi[:-1]
    increasing[first[1:] - 1] = True  # a new set starts
    if np.any(hi < lo) or not np.all(increasing):
        raise ValueError("vertex set in the certificate is not strictly increasing")
    length = hi - lo + 1  # increasing ids below 10^18: no sum overflows int64
    per_set = np.add.reduceat(length, first)
    if np.any(per_set > max_ids):
        raise ValueError(f"vertex set in the certificate has more than {max_ids} ids")
    if check is not None:
        counts = np.zeros(len(texts), dtype=np.int64)
        counts[full] = per_set
        check(counts)
    ends = np.cumsum(length)
    flat = np.arange(ends[-1]) + np.repeat(lo - (ends - length), length)
    set_ends = ends[first + runs - 1].tolist()
    for k, a, e in zip(full, [0] + set_ends[:-1], set_ends):
        out[k] = flat[a:e]
    return out


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

    Preconditions: the right partition c-refines the level-t right clusters
    (c = 2^-9) and the left partition does NOT gamma-refine the level-t left
    clusters.  Emits per-cell ledger lines whose total, when above
    delta * e(G), certifies that no edit of at most that many edges makes
    every cross pair delta-regular.
    """
    delta = Fraction(delta)
    c = HOST_C
    if gamma is None:
        gamma = max(32 * dyadic_root_ceil(delta, 2, 40), Fraction(32, _iroot_floor(seq.profile.r_sizes[0], 6)))
    gamma = Fraction(gamma)
    if gamma > Fraction(1, 4):
        raise ValueError("gamma must be at most 1/4 for the witness pipeline")
    if 32 * dyadic_root_ceil(delta, 2, 40) > gamma:
        raise ValueError("delta too large for gamma: need gamma >= 32*sqrt(delta)")
    gamma_prime = gamma / 32
    g = seq.member_graph(ell, member)
    rep_q = refines_beta(Q, seq.right_parts(t), c)
    if not rep_q.verdict:
        raise ValueError("right partition does not c-refine the level-t clusters")
    rep_p = refines_beta(P, seq.left_parts(t), gamma)
    if rep_p.verdict:
        raise ValueError("left partition gamma-refines the level-t clusters; nothing to refute")
    # classify cells by the deepest level they gamma-refine: a cell stays in
    # the chain while its largest overlap with a level-i cluster leaves 0 or
    # fewer than gamma of it outside, that is at most ceil(gamma|cell|) - 1
    sizes = np.bincount(P.owner, minlength=len(P))
    below = np.array([min(s, -(-gamma.numerator * s // gamma.denominator) - 1) for s in sizes.tolist()])
    depth = np.zeros(len(P), dtype=np.int64)
    inside = np.ones(len(P), dtype=bool)
    for i in range(1, t + 1):
        lp = seq.left_parts(i)
        pairs, counts = np.unique(P.owner * len(lp) + lp.owner, return_counts=True)
        outside = sizes - np.maximum.reduceat(counts, np.searchsorted(pairs // len(lp), np.arange(len(P))))
        inside &= (outside == 0) | (outside <= below)
        depth += inside
    # cells inside level t are not in the deficient family
    entries = [(P.cells[k], int(depth[k]) + 1) for k in np.flatnonzero(depth < t)]
    used_levels = {i for _, i in entries}
    # Rstar per used level
    rstar = {}
    for i in sorted(used_levels):
        rstar[i] = _rstar_mask(Q, seq.right_parts(i), c, seq.n_right)
    # line value gamma' (2^i p |P||R| / 4 - corr), p = 2^-ell, over a common denominator
    gn, gd = gamma_prime.numerator, gamma_prime.denominator
    den = gd * 4 << ell
    cert_entries = []
    total_num = 0
    for cell, i in entries:
        wits = find_irregularity_witnesses(seq, ell, member, i, cell, gamma, require_count=False)
        # e(P, v) for the right vertices outside Rstar_i
        deg_out = _kernels.unpack_rows(g.rows[cell], seq.n_right).sum(axis=0, dtype=np.int64)
        deg_out[rstar[i]] = 0
        lines = []
        for w in wits:
            if w.p1_vertices.size * delta.denominator < delta.numerator * cell.size:
                continue
            corr = int(deg_out[w.r_vertices].sum())
            num = max(gn * ((cell.size * w.r_vertices.size << i) - (corr * 4 << ell)), 0)
            lines.append(
                LedgerLine(
                    entry=len(cert_entries),
                    right_cluster_level=i,
                    r_vertices=w.r_vertices,
                    p1_vertices=w.p1_vertices,
                    correction=corr,
                    value=Fraction(num, den),
                )
            )
            total_num += num
        cert_entries.append(CertEntry(p_vertices=cell, level=i, lines=lines))
    total = Fraction(total_num, den)
    budget = delta * g.edge_count()
    cert = IrregularityCertificate(
        graph_sha256=graph_hash(g),
        n_left=seq.n_left,
        n_right=seq.n_right,
        ell=ell,
        delta=delta,
        gamma=gamma,
        gamma_prime=gamma_prime,
        host_c=c,
        t=t,
        q_cells=[np.asarray(cq) for cq in Q.cells],
        r_level_cells={i: [np.asarray(cc) for cc in seq.right_parts(i).cells] for i in sorted(used_levels)},
        entries=cert_entries,
        total=total,
        budget=budget,
    )
    return cert


def _rstar_mask(Q: VertexPartition, rparts: VertexPartition, c: Fraction, n_right: int) -> np.ndarray:
    """Boolean mask over right vertices: inside the union of Q&R for Q-cells
    c-inside a cluster R."""
    mask = np.zeros(n_right, dtype=bool)
    for cell in Q.cells:
        m = np.bincount(rparts.owner[cell], minlength=len(rparts.cells))
        host = int(np.argmax(m))
        outside = int(cell.size - m[host])
        if outside == 0 or Fraction(outside) < c * int(cell.size):
            inter = cell[rparts.owner[cell] == host]
            mask[inter] = True
    return mask


def reverify_certificate(cert: IrregularityCertificate, g: BipartiteGraph) -> dict:
    """Re-check every ledger line from the serialized certificate plus the
    graph alone.  Returns per-line results and the final verdict."""
    report = {"ok": True, "failures": [], "lines_checked": 0}
    if graph_hash(g) != cert.graph_sha256:
        return {"ok": False, "failures": [("graph-hash", None)], "lines_checked": 0}
    if cert.gamma > Fraction(1, 4) or 32 * dyadic_root_ceil(cert.delta, 2, 40) > cert.gamma:
        report["ok"] = False
        report["failures"].append(("parameters", None))
    if cert.gamma_prime != cert.gamma / 32:
        report["ok"] = False
        report["failures"].append(("gamma-prime", None))
    if cert.host_c != HOST_C:  # a larger c puts more of Q in R* and lowers the corrections
        report["ok"] = False
        report["failures"].append(("host-c", None))
    # rebuild Rstar masks per level from Q and the stored cluster cells, with
    # no code shared with refute_partition: a Q-cell whose largest overlap
    # with a cluster R (the first such R on ties) leaves fewer than c|Q|
    # vertices outside contributes Q & R
    q_owner = VertexPartition(cert.n_right, cert.q_cells).owner
    q_size = np.bincount(q_owner).astype(object)  # exact products with any loaded c
    cn, cd = cert.host_c.numerator, cert.host_c.denominator
    rstar = {}
    for lvl, cells in cert.r_level_cells.items():
        r_owner = VertexPartition(cert.n_right, cells).owner
        pair, count = np.unique(q_owner * len(cells) + r_owner, return_counts=True)
        q_of = pair // len(cells)
        first = np.lexsort((pair, -count, q_of))
        first = first[np.r_[True, q_of[first[1:]] != q_of[first[:-1]]]]  # one per Q-cell, in Q order
        outside = q_size - count[first]
        keep = ((outside == 0) | (outside * cd < cn * q_size)).astype(bool)
        rstar[lvl] = keep[q_owner] & (r_owner == (pair[first] % len(cells))[q_owner])
    floor = max(cert.delta, cert.gamma / 8)
    # line values gamma' (2^level p |P||R| / 4 - corr), p = 2^-ell, are
    # compared and summed as numerators over one denominator
    gn, gd = cert.gamma_prime.numerator, cert.gamma_prime.denominator
    den = gd * 4 << cert.ell
    total_num = 0
    # entry cells must be disjoint
    seen = np.zeros(cert.n_left, dtype=bool)
    for k, e in enumerate(cert.entries):
        if np.any(seen[e.p_vertices]):
            report["ok"] = False
            report["failures"].append(("entry-overlap", k))
        seen[e.p_vertices] = True
        if not e.lines:
            continue
        P = e.p_vertices
        psize = int(P.size)
        r_len = np.array([ln.r_vertices.size for ln in e.lines])
        r_ids = np.concatenate([ln.r_vertices for ln in e.lines])
        r_line = np.repeat(np.arange(len(e.lines)), r_len)
        # a right vertex used twice, by one line or by an earlier one
        by_id = np.lexsort((r_line, r_ids))
        reused = np.zeros(len(e.lines), dtype=bool)
        reused[r_line[by_id[1:]][r_ids[by_id[1:]] == r_ids[by_id[:-1]]]] = True
        # rows of P against the columns of every line's R, one dense slice,
        # decoded here, not through _kernels: the re-check shares no code with the refuter
        dense = np.unpackbits(g.rows[P].view(np.uint8), axis=1, bitorder="little")[:, r_ids]
        cum = np.zeros((psize, r_ids.size + 1), dtype=np.int64)
        np.cumsum(dense, axis=1, dtype=np.int64, out=cum[:, 1:])
        r_end = np.cumsum(r_len)
        row_into_r = cum[:, r_end] - cum[:, r_end - r_len]  # (psize, lines): e(v, R) for v in P
        e_pr = row_into_r.sum(axis=0)
        outside = ~rstar[e.level][r_ids]
        deg_out = np.concatenate(([0], np.cumsum(dense.sum(axis=0, dtype=np.int64) * outside)))
        corr = deg_out[r_end] - deg_out[r_end - r_len]
        # P1 a set inside P, and e(P1, R) from the rows of P1 in the slice
        p1_len = np.array([ln.p1_vertices.size for ln in e.lines])
        p1_ids = np.concatenate([ln.p1_vertices for ln in e.lines])
        p1_line = np.repeat(np.arange(len(e.lines)), p1_len)
        at = np.minimum(np.searchsorted(P, p1_ids), max(psize - 1, 0))
        in_p = (P[at] == p1_ids) if psize else np.zeros(p1_ids.size, dtype=bool)
        by_p1 = np.lexsort((p1_ids, p1_line))
        twice = (p1_ids[by_p1[1:]] == p1_ids[by_p1[:-1]]) & (p1_line[by_p1[1:]] == p1_line[by_p1[:-1]])
        bad_p1 = np.bincount(np.concatenate((p1_line[~in_p], p1_line[by_p1[1:]][twice])), minlength=len(e.lines)) > 0
        into_r = np.where(in_p, row_into_r[at, p1_line] if psize else 0, 0)
        cum_p1 = np.concatenate(([0], np.cumsum(into_r)))
        p1_end = np.cumsum(p1_len)
        e_p1 = cum_p1[p1_end] - cum_p1[p1_end - p1_len]
        per_line = zip(e.lines, r_len.tolist(), reused.tolist(), p1_len.tolist(), bad_p1.tolist(), e_p1.tolist(), e_pr.tolist(), corr.tolist())
        for ln, rsize, r_twice, p1_size, p1_bad, ep1, epr, c in per_line:
            report["lines_checked"] += 1
            num = max(gn * ((psize * rsize << e.level) - (c * 4 << cert.ell)), 0)
            ok = (
                rsize > 0
                and not r_twice
                and p1_size * floor.denominator >= floor.numerator * psize
                and not p1_bad
                and ep1 == 0
                # d(P, R) >= 2^level p / 4
                and epr * 4 << cert.ell >= psize * rsize << e.level
                and c == ln.correction
                and ln.value.numerator * den == num * ln.value.denominator
            )
            if not ok:
                report["ok"] = False
                report["failures"].append(("line", k, int(ln.r_vertices[0]) if ln.r_vertices.size else -1))
            total_num += num
    total = Fraction(total_num, den)
    if total != cert.total:
        report["ok"] = False
        report["failures"].append(("total", None))
    if cert.budget != cert.delta * g.edge_count():
        report["ok"] = False
        report["failures"].append(("budget", None))
    report["refutes"] = cert.total > cert.budget and report["ok"]
    return report


# -- directory serialization ----------------------------------------------


def save_core_sequence(seq: CoreSequence, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "profile": seq.profile.to_json(),
        "seed": seq.seed,
        "n_left": seq.n_left,
        "n_right": seq.n_right,
        "gamma_seeds": {f"{i}/{idx}": rec["seed"] for (i, idx), rec in seq.gamma_records.items()},
        "gamma_telemetry": {f"{i}/{idx}": rec["telemetry"]["draws"] for (i, idx), rec in seq.gamma_records.items()},
        "member_hashes": {},
    }
    for i, lp in enumerate(seq.left_chain, start=1):
        with open(os.path.join(out_dir, f"left-{i}.part"), "w") as f:
            f.write(lp.to_text())
    for i, rp in enumerate(seq.right_chain, start=1):
        with open(os.path.join(out_dir, f"right-{i}.part"), "w") as f:
            f.write(rp.to_text())
    for j in range(1, seq.profile.s + 1):
        for m in seq.members[j]:
            path = os.path.join(out_dir, f"quotient-{j}-{m.index}.bin")
            blob = bipartite_to_binary(m.quotient)
            with open(path, "wb") as f:
                f.write(blob)
            manifest["member_hashes"][f"{j}/{m.index}"] = hashlib.sha256(blob).hexdigest()
    for (i, idx), rec in seq.gamma_records.items():
        path = os.path.join(out_dir, f"gamma-{i}-{idx}.bin")
        with open(path, "wb") as f:
            f.write(bipartite_to_binary(rec["balanced"].graph))
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return manifest


def load_core_sequence(out_dir: str) -> CoreSequence:
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    profile = GrowthProfile.from_json(manifest["profile"])
    nl, nr = manifest["n_left"], manifest["n_right"]
    left_chain = []
    for i in range(1, profile.s + 1):
        with open(os.path.join(out_dir, f"left-{i}.part")) as f:
            left_chain.append(VertexPartition.from_text(nl, f.read()))
    right_chain = []
    for i in range(1, profile.s + 1):
        with open(os.path.join(out_dir, f"right-{i}.part")) as f:
            right_chain.append(VertexPartition.from_text(nr, f.read()))
    seq = CoreSequence(profile, left_chain, right_chain, manifest["seed"])
    for j in range(1, profile.s + 1):
        members = []
        for idx in range(1 << j):
            with open(os.path.join(out_dir, f"quotient-{j}-{idx}.bin"), "rb") as f:
                q = bipartite_from_binary(f.read())
            members.append(CoreMember(level=j, index=idx, quotient=q, parent=idx // 2))
        seq.members.append(members)
    return seq
