"""Inductive families of hard k-graph partitions and the cycle pasting.

The recursion on uniformity: the 2-uniform base runs the bipartite chain
construction directly on the first two classes; at uniformity k the family
for k-1 supplies a chain of partitions of the complete (k-1)-partite
product, a schedule picks a depth-s subsequence of those and of the last
class's vertex partitions, the bipartite chain construction runs with the
product as its left ground set, and every bipartite member lifts to a
k-partite k-graph along the last axis.

Pasting: 2k vertex classes around a tight cycle, one inductive family per
length-k window, one chain member per family, all unioned into a single
k-partite k-graph on the doubled classes.

Lifts: a member's edge codes are read straight off its bipartite bits
(``InductiveFamily.member_codes``), so picking a window's member and
reading a level as a partition of the product lift nothing; each kept
member is lifted once, and ``KPartiteKGraph`` does not re-sort the lift's
canonical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .core import CoreSequence, GrowthProfile, build_core_sequence, derive_seed
from .graphs import (
    KPartiteKGraph,
    ProductClass,
    VertexClass,
    VertexClassSet,
    aux_graph,
    lift_graph_to_kgraph,
)
from .partitions import VertexPartition, refines_beta
from .regularity import is_delta_regular_kpartition
from .schedules import DeskSchedule


def nested_class_chain(class_size: int, t_values) -> list:
    """Per-class nested block partitions, one per level."""
    return [VertexPartition.blocks(class_size, t) for t in t_values]


@dataclass
class InductiveFamily:
    k: int
    s: int
    classes: VertexClassSet
    chain: list  # chain[i-1][h] = level-i partition of class h (local indices)
    schedule: DeskSchedule
    seed: int
    core_seq: CoreSequence = None
    sub_family: "InductiveFamily" = None
    f_selection: list = field(default_factory=list)  # per level j: index into the sub chain
    v_selection: list = field(default_factory=list)

    def h_member(self, j: int, idx: int) -> KPartiteKGraph:
        """Member idx of the level-j partition, lifted to a k-graph."""
        g = self.core_seq.member_graph(j, idx)
        prod = ProductClass.of([VertexClass(c.name, c.size) for c in self.classes.classes[:-1]])
        last = self.classes.classes[-1]
        return lift_graph_to_kgraph(g, prod, right_class=VertexClass(last.name, last.size))

    def member_count(self, j: int) -> int:
        return 1 << j

    def member_codes(self, j: int, idx: int) -> np.ndarray:
        """The encoded edges of ``h_member(j, idx)``, read off the bipartite
        member without a lift: edge (u, v) of the axis-k view is the k-tuple
        whose first k-1 entries encode to u, so its code is u * |V_k| + v,
        and the row-major bit order is the sorted order."""
        g = self.core_seq.member_graph(j, idx)
        u, v = _kernels.nonzero_bits(g.rows)
        return u * g.right.size + v


def build_inductive_family(k: int, s: int, classes: VertexClassSet, chain, sched: DeskSchedule, seed: int, core_kwargs=None) -> InductiveFamily:
    """Recursive build; ``chain`` holds one partition list per level, each a
    list with one local partition per class."""
    if k < 2:
        raise ValueError("uniformity must be at least 2")
    core_kwargs = core_kwargs or {}
    fam = InductiveFamily(k=k, s=s, classes=classes, chain=chain, schedule=sched, seed=seed)
    m_needed = sched.m(k, s)
    if len(chain) < m_needed:
        raise ValueError(f"chain depth {len(chain)} below the required {m_needed}")
    if k == 2:
        # base: left ground is the first class, right the second
        r_sizes = [len(chain[i][1].cells) for i in range(s)]
        l_sizes = [len(chain[i + 1][0].cells) for i in range(s)]
        profile = GrowthProfile(s=s, r_sizes=r_sizes, l_sizes=l_sizes, **core_kwargs)
        left_chain = [chain[i + 1][0] for i in range(s)]
        right_chain = [chain[i][1] for i in range(s)]
        fam.core_seq = build_core_sequence(profile, derive_seed(seed, "base"), left_chain=left_chain, right_chain=right_chain)
        return fam
    s_prime = sched.a_star(k, s)
    sub_classes = VertexClassSet([(c.name, c.size) for c in classes.classes[: k - 1]])
    sub_chain = [levels[: k - 1] for levels in chain]
    fam.sub_family = build_inductive_family(k - 1, s_prime, sub_classes, sub_chain, sched, derive_seed(seed, "sub", k), core_kwargs)
    prod = ProductClass.of([VertexClass(c.name, c.size) for c in classes.classes[: k - 1]])
    # selected subsequences
    fam.f_selection = [sched.a_star(k, j) for j in range(1, s + 1)]
    fam.v_selection = [sched.a(k, j) for j in range(1, s + 1)]
    left_chain = [
        _edge_partition_as_vertex_partition(fam.sub_family, ell, prod) for ell in fam.f_selection
    ]
    right_chain = [chain[i - 1][k - 1] for i in fam.v_selection]
    r_sizes = [len(p.cells) for p in right_chain]
    l_sizes = [len(p.cells) for p in left_chain]
    profile = GrowthProfile(s=s, r_sizes=r_sizes, l_sizes=l_sizes, **core_kwargs)
    fam.core_seq = build_core_sequence(profile, derive_seed(seed, "outer", k), left_chain=left_chain, right_chain=right_chain)
    return fam


def _edge_partition_as_vertex_partition(sub: InductiveFamily, level: int, prod: ProductClass) -> VertexPartition:
    """The level members of the sub-family, read as a partition of the
    product index space: a member's cell is its set of edge codes."""
    cells = [sub.member_codes(level, idx) for idx in range(sub.member_count(level))]
    return VertexPartition(prod.size, cells)


def verify_family(fam: InductiveFamily) -> dict:
    """Exact checks: member densities are dyadic, levels are equitable edge
    partitions, each member splits into its two children, and the axis-k
    view of every lifted member equals the bipartite member."""
    report = {"ok": True, "failures": []}
    prod_size = 1
    for c in fam.classes.classes:
        prod_size *= c.size
    for j in range(1, fam.s + 1):
        seen = 0
        for idx in range(fam.member_count(j)):
            h = fam.h_member(j, idx)
            if h.density() != Fraction(1, 1 << j):
                report["ok"] = False
                report["failures"].append(("density", j, idx))
            if h.edge_count() * (1 << j) != prod_size:
                report["ok"] = False
                report["failures"].append(("equitable", j, idx))
            seen += h.edge_count()
            g = fam.core_seq.member_graph(j, idx)
            back = aux_graph(h, fam.k)
            if not np.array_equal(back.graph.rows, g.rows):
                report["ok"] = False
                report["failures"].append(("lift-roundtrip", j, idx))
        if seen != prod_size:
            report["ok"] = False
            report["failures"].append(("cover", j))
        if j >= 2:
            for pidx in range(fam.member_count(j - 1)):
                c1 = fam.core_seq.member_graph(j, 2 * pidx).rows
                c2 = fam.core_seq.member_graph(j, 2 * pidx + 1).rows
                pr = fam.core_seq.member_graph(j - 1, pidx).rows
                if np.any(c1 & c2) or not np.array_equal(c1 | c2, pr):
                    report["ok"] = False
                    report["failures"].append(("chain", j, pidx))
    if fam.sub_family is not None:
        subrep = verify_family(fam.sub_family)
        if not subrep["ok"]:
            report["ok"] = False
            report["failures"].append(("sub", subrep["failures"]))
    return report


def verify_onesided_property(fam: InductiveFamily, j: int, member: int, P, i: int, delta=None, mode: str = "sampled", cap: int = 1 << 24) -> dict:
    """Evaluate the one-sided implication on an explicit layered partition:
    hypothesis = the partition's class-h vertex cells c-refine the level-i
    chain on every class except the first (c = 2^-9), conclusion = the
    first-class cells c-refine level i+1.  The partition's regularity status
    for the member is evaluated separately and reported; nothing universal
    is claimed."""
    if not (1 <= i < len(fam.chain)):
        raise ValueError("level out of range for the chain")
    if i > fam.schedule.a(fam.k, j):
        raise ValueError("level exceeds the schedule's reach for this depth")
    c = Fraction(1, 512)
    h = fam.h_member(j, member)
    hyp = []
    for cls in range(1, fam.k):
        cells = _class_cells(P, fam.classes, cls)
        rep = refines_beta(cells, fam.chain[i - 1][cls], c)
        hyp.append(rep.verdict)
    cells0 = _class_cells(P, fam.classes, 0)
    concl = refines_beta(cells0, fam.chain[i][0], c).verdict
    out = {"hypothesis": all(hyp), "per_class": hyp, "conclusion": concl}
    out["implication"] = (not out["hypothesis"]) or concl
    if delta is not None:
        out["regularity"] = is_delta_regular_kpartition(h, P, delta, mode=mode, cap=cap)
    return out


def _class_cells(P, classes: VertexClassSet, cls: int) -> VertexPartition:
    """Restriction of a layered partition's vertex cells to one class, in
    local indices."""
    c = classes.classes[cls]
    cells = []
    for cell in P.vertex.cells:
        v0 = int(cell[0])
        if c.offset <= v0 < c.offset + c.size:
            cells.append(cell - c.offset)
    return VertexPartition(c.size, cells)


@dataclass
class PastedInstance:
    k: int
    s: int
    n_per_class: int
    families: list
    edge_graphs: list  # one KPartiteKGraph per cycle window, on its own classes
    merged: KPartiteKGraph  # on the k doubled classes
    chain_per_class: list  # nested partitions shared by every class
    initial_cells: int

    def cycle_windows(self):
        two_k = 2 * self.k
        return [tuple((x + j) % two_k for j in range(self.k)) for x in range(two_k)]


def build_pasted_instance(k: int, s: int, sched: DeskSchedule, seed: int, blowup: int = 4, core_kwargs=None) -> PastedInstance:
    """One inductive family per tight-cycle window over 2k classes; one
    depth-s member from each, unioned on the doubled classes."""
    if k < 2:
        raise ValueError("uniformity must be at least 2")
    m = sched.m(k, s)
    n = sched.t(m) * blowup
    chain = nested_class_chain(n, [sched.t(i) for i in range(1, m + 1)])
    two_k = 2 * k
    families = []
    edge_graphs = []
    for x in range(two_k):
        names = [f"V{(x + j) % two_k}" for j in range(k)]
        classes = VertexClassSet([(nm, n) for nm in names])
        fam_chain = [[chain[i] for _ in range(k)] for i in range(m)]
        fam = build_inductive_family(k, s, classes, fam_chain, sched, derive_seed(seed, "edge", x), core_kwargs)
        families.append(fam)
        edge_graphs.append(_select_member(fam, s))
    merged_classes = VertexClassSet([(f"W{j}", 2 * n) for j in range(k)])
    rows = []
    for x, h in enumerate(edge_graphs):
        local = h.edges_arr.copy()
        mapped = np.empty_like(local)
        for j in range(k):
            cls = (x + j) % two_k
            target = cls % k
            offset = 0 if cls < k else n
            mapped[:, target] = local[:, j] + offset
        rows.append(mapped)
    merged = KPartiteKGraph(merged_classes, np.concatenate(rows, axis=0))
    return PastedInstance(
        k=k,
        s=s,
        n_per_class=n,
        families=families,
        edge_graphs=edge_graphs,
        merged=merged,
        chain_per_class=chain,
        initial_cells=two_k * sched.t(1),
    )


def _select_member(fam: InductiveFamily, j: int) -> KPartiteKGraph:
    """The level-j member whose edge codes, as little-endian int64 bytes,
    compare smallest bytewise (the first such member on ties), lifted; only
    the winner is lifted.

    Bytewise order on little-endian codes is not numeric order.  It is kept
    because it picks the members of every artifact built so far, and fixing
    the byte order makes the pick the same on every host."""
    best, best_idx = None, 0
    for idx in range(fam.member_count(j)):
        key = fam.member_codes(j, idx).astype("<i8", copy=False).tobytes()
        if best is None or key < best:
            best, best_idx = key, idx
    return fam.h_member(j, best_idx)


def pasted_density_check(inst: PastedInstance) -> dict:
    """d(merged) must equal (2k / 2^k) * 2^-s exactly; every window graph
    has density 2^-s on its own classes."""
    two_k = 2 * inst.k
    expected = Fraction(two_k, 1 << inst.k) * Fraction(1, 1 << inst.s)
    got = inst.merged.density()
    per_edge = [h.density() == Fraction(1, 1 << inst.s) for h in inst.edge_graphs]
    return {
        "merged_density": got,
        "expected": expected,
        "ok": got == expected and all(per_edge),
        "per_window": per_edge,
        "initial_cells": inst.initial_cells,
        "initial_cells_bound": two_k * (len(inst.chain_per_class[0].cells)),
    }


def beta_star_analysis(inst: PastedInstance, class_partitions: list, c=Fraction(1, 512)) -> dict:
    """Per-class deepest chain level approximately refined, its minimum, and
    the cycle window starting at the minimizing class.

    class_partitions[h] partitions class h (local indices) for each of the
    2k original classes.
    """
    two_k = 2 * inst.k
    if len(class_partitions) != two_k:
        raise ValueError("need one partition per original class")
    m = len(inst.chain_per_class)
    beta = []
    for h in range(two_k):
        rep1 = refines_beta(class_partitions[h], inst.chain_per_class[0], c)
        if not rep1.verdict:
            raise ValueError(f"class {h} does not refine the initial partition")
        best = 1
        for i in range(2, m + 1):
            if refines_beta(class_partitions[h], inst.chain_per_class[i - 1], c).verdict:
                best = i
            else:
                break
        beta.append(best)
    bstar = min(beta)
    x = beta.index(bstar)
    window = tuple((x + j) % two_k for j in range(inst.k))
    return {"beta": beta, "beta_star": bstar, "argmin_class": x, "window": window}
