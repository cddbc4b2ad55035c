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

Lifts: a k-graph is its sorted edge codes, and bit (u, v) of a bipartite
member is the edge of code u * |V_k| + v, so a lift is one scan of the
member's bits and no tuple is formed.  Reading a level as a partition of
the product takes each lifted member's codes as a cell.  Picking a
window's member reads one least code per member
(``InductiveFamily.least_code``, from the member's first set bit) and
lifts only the member it keeps.  The pasted merge decodes each window's
codes, moves every column to its doubled class, and encodes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .core import CoreSequence, GrowthProfile, build_core_sequence, derive_seed, verify_structure
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

# the approximate-refinement tolerance c = 2^-9 of the one-sided lemma
REFINE_C = Fraction(1, 512)


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

    def h_member(self, j: int, idx: int) -> KPartiteKGraph:
        """Member idx of the level-j partition, lifted to a k-graph."""
        g = self.core_seq.member_graph(j, idx)
        prod = ProductClass.of([VertexClass(c.name, c.size) for c in self.classes.classes[:-1]])
        last = self.classes.classes[-1]
        return lift_graph_to_kgraph(g, prod, right_class=VertexClass(last.name, last.size))

    def member_count(self, j: int) -> int:
        return 1 << j

    def least_code(self, j: int, idx: int):
        """The least edge code of ``h_member(j, idx)``, or None for an empty
        member, from the member's first set bit alone."""
        g = self.core_seq.member_graph(j, idx)
        first = _kernels.first_bit(g.rows)
        return None if first is None else first[0] * g.right.size + first[1]


def build_inductive_family(k: int, s: int, classes: VertexClassSet, chain, sched: DeskSchedule, seed: int) -> InductiveFamily:
    """Recursive build; ``chain`` holds one partition list per level, each a
    list with one local partition per class."""
    if k < 2:
        raise ValueError("uniformity must be at least 2")
    fam = InductiveFamily(k=k, s=s, classes=classes, chain=chain, schedule=sched, seed=seed)
    m_needed = sched.m(k, s)
    if len(chain) < m_needed:
        raise ValueError(f"chain depth {len(chain)} below the required {m_needed}")
    if k == 2:
        # base: left ground is the first class, right the second
        r_sizes = [len(chain[i][1]) for i in range(s)]
        l_sizes = [len(chain[i + 1][0]) for i in range(s)]
        profile = GrowthProfile(s=s, r_sizes=r_sizes, l_sizes=l_sizes)
        left_chain = [chain[i + 1][0] for i in range(s)]
        right_chain = [chain[i][1] for i in range(s)]
        fam.core_seq = build_core_sequence(profile, derive_seed(seed, "base"), left_chain=left_chain, right_chain=right_chain)
        return fam
    s_prime = sched.a_star(k, s)
    sub_classes = VertexClassSet([(c.name, c.size) for c in classes.classes[: k - 1]])
    sub_chain = [levels[: k - 1] for levels in chain]
    fam.sub_family = build_inductive_family(k - 1, s_prime, sub_classes, sub_chain, sched, derive_seed(seed, "sub", k))
    prod = ProductClass.of([VertexClass(c.name, c.size) for c in classes.classes[: k - 1]])
    # the selected subsequences: level j takes sub-family level a*(k, j)
    # and chain level a(k, j)
    left_chain = [_edge_partition_as_vertex_partition(fam.sub_family, sched.a_star(k, j), prod) for j in range(1, s + 1)]
    right_chain = [chain[sched.a(k, j) - 1][k - 1] for j in range(1, s + 1)]
    r_sizes = [len(p) for p in right_chain]
    l_sizes = [len(p) for p in left_chain]
    profile = GrowthProfile(s=s, r_sizes=r_sizes, l_sizes=l_sizes)
    fam.core_seq = build_core_sequence(profile, derive_seed(seed, "outer", k), left_chain=left_chain, right_chain=right_chain)
    return fam


def _edge_partition_as_vertex_partition(sub: InductiveFamily, level: int, prod: ProductClass) -> VertexPartition:
    """The level members of the sub-family, read as a partition of the
    product index space: a member's cell is its set of edge codes."""
    cells = [sub.h_member(level, idx).encoded for idx in range(sub.member_count(level))]
    return VertexPartition(prod.size, cells)


def verify_family(fam: InductiveFamily) -> dict:
    """The family's chain, decided by ``core.verify_structure`` on its
    quotients (dyadic densities, two-child splits, so that every level
    partitions the complete product, zero/one blocks and neighbor-family
    sizes), then the sub-family's the same way, its failures tagged
    ``("sub", failures)``.  A lifted member has its bipartite member's
    edges, so no member is lifted or recounted here; the hypergraph suite
    binds each window file to its member."""
    rep = verify_structure(fam.core_seq)
    report = {"ok": rep["ok"], "failures": rep["failures"]}
    if fam.sub_family is not None:
        subrep = verify_family(fam.sub_family)
        if not subrep["ok"]:
            report["ok"] = False
            report["failures"].append(("sub", subrep["failures"]))
    return report


def is_member_lift(h: KPartiteKGraph, fam: InductiveFamily, j: int, idx: int) -> bool:
    """Whether h is a k-graph whose axis-k view is the family's member idx of level j."""
    return h.k == fam.k and np.array_equal(aux_graph(h, fam.k).graph.rows, fam.core_seq.member_graph(j, idx).rows)


def verify_onesided_property(fam: InductiveFamily, j: int, member: int, P, i: int, delta=None) -> dict:
    """Evaluate the one-sided implication on an explicit layered partition:
    hypothesis = the partition's class-h vertex cells c-refine the level-i
    chain on every class except the first (c = REFINE_C), conclusion = the
    first-class cells c-refine level i+1.  Given delta, the partition's
    exact regularity status for the member is evaluated separately and
    reported; nothing universal is claimed."""
    if not (1 <= i < len(fam.chain)):
        raise ValueError("level out of range for the chain")
    if i > fam.schedule.a(fam.k, j):
        raise ValueError("level exceeds the schedule's reach for this depth")
    h = fam.h_member(j, member)
    hyp = []
    for cls in range(1, fam.k):
        cells = _class_cells(P, fam.classes, cls)
        rep = refines_beta(cells, fam.chain[i - 1][cls], REFINE_C)
        hyp.append(rep.verdict)
    cells0 = _class_cells(P, fam.classes, 0)
    concl = refines_beta(cells0, fam.chain[i][0], REFINE_C).verdict
    out = {"hypothesis": all(hyp), "per_class": hyp, "conclusion": concl}
    out["implication"] = (not out["hypothesis"]) or concl
    if delta is not None:
        out["regularity"] = is_delta_regular_kpartition(h, P, delta)
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
    picked: list  # per cycle window, the index of its family's depth-s member
    edge_graphs: list  # one KPartiteKGraph per cycle window, its picked member lifted
    merged: KPartiteKGraph  # on the k doubled classes
    chain_per_class: list  # nested partitions shared by every class
    initial_cells: int


def build_pasted_instance(k: int, s: int, sched: DeskSchedule, seed: int, blowup: int = 4) -> PastedInstance:
    """One inductive family per tight-cycle window over 2k classes; one
    depth-s member from each, unioned on the doubled classes."""
    if k < 2:
        raise ValueError("uniformity must be at least 2")
    if blowup < 1:
        raise ValueError(f"blowup must be at least 1, not {blowup}")
    m = sched.m(k, s)
    n = sched.t(m) * blowup
    chain = nested_class_chain(n, [sched.t(i) for i in range(1, m + 1)])
    two_k = 2 * k
    families, picked, edge_graphs = [], [], []
    for x in range(two_k):
        names = [f"V{(x + j) % two_k}" for j in range(k)]
        classes = VertexClassSet([(nm, n) for nm in names])
        fam_chain = [[chain[i] for _ in range(k)] for i in range(m)]
        fam = build_inductive_family(k, s, classes, fam_chain, sched, derive_seed(seed, "edge", x))
        families.append(fam)
        picked.append(_select_member(fam, s))
        edge_graphs.append(fam.h_member(s, picked[-1]))
    merged_classes = VertexClassSet([(f"W{j}", 2 * n) for j in range(k)])
    product = ProductClass.of(merged_classes.classes)
    codes = []
    for x, h in enumerate(edge_graphs):
        # column j is cycle class (x + j) mod 2k: doubled class (x + j) mod k,
        # shifted by n for the second k cycle classes
        tuples = h.edges()
        tuples += [n if (x + j) % two_k >= k else 0 for j in range(k)]
        codes.append(product.encode_array(np.roll(tuples, x % k, axis=1)))
    merged = KPartiteKGraph.from_codes(merged_classes, np.sort(np.concatenate(codes)))
    return PastedInstance(
        k=k,
        s=s,
        n_per_class=n,
        families=families,
        picked=picked,
        edge_graphs=edge_graphs,
        merged=merged,
        chain_per_class=chain,
        initial_cells=two_k * sched.t(1),
    )


def _select_member(fam: InductiveFamily, j: int) -> int:
    """The index of the level-j member whose lifted edge codes, as
    little-endian int64 bytes, compare smallest bytewise (the first such
    member on ties); no member is lifted unless it ties.

    A member's first 8 key bytes are its least code, so members are ranked
    by ``least_code`` alone, and full keys are read only for members that
    tie on it.  The members of a chain level are disjoint and non-empty, so
    they never tie.

    Bytewise order on little-endian codes is not numeric order.  It is kept
    because it picks the members of every artifact built so far, and fixing
    the byte order makes the pick the same on every host."""

    def head(idx):
        code = fam.least_code(j, idx)
        return b"" if code is None else int(code).to_bytes(8, "little", signed=True)

    heads = [head(idx) for idx in range(fam.member_count(j))]
    low = min(heads)
    tied = [idx for idx, key in enumerate(heads) if key == low]
    return tied[0] if len(tied) == 1 else min(tied, key=lambda idx: fam.h_member(j, idx).encoded.astype("<i8", copy=False).tobytes())


def pasted_density_check(inst: PastedInstance) -> dict:
    """d(merged) must equal (2k / 2^k) * 2^-s exactly; every window graph
    has density 2^-s on its own classes."""
    two_k = 2 * inst.k
    expected = Fraction(two_k, 1 << inst.k) * Fraction(1, 1 << inst.s)
    got = inst.merged.density()
    per_edge = [h.density() == Fraction(1, 1 << inst.s) for h in inst.edge_graphs]
    return {"merged_density": got, "expected": expected, "ok": got == expected and all(per_edge), "per_window": per_edge}


def beta_star_analysis(inst: PastedInstance, class_partitions: list) -> dict:
    """Per-class deepest chain level REFINE_C-refined, its minimum, and the
    cycle window starting at the minimizing class.

    class_partitions[h] partitions class h (local indices) for each of the
    2k original classes.
    """
    two_k = 2 * inst.k
    if len(class_partitions) != two_k:
        raise ValueError("need one partition per original class")
    m = len(inst.chain_per_class)
    beta = []
    for h in range(two_k):
        rep1 = refines_beta(class_partitions[h], inst.chain_per_class[0], REFINE_C)
        if not rep1.verdict:
            raise ValueError(f"class {h} does not refine the initial partition")
        best = 1
        for i in range(2, m + 1):
            if refines_beta(class_partitions[h], inst.chain_per_class[i - 1], REFINE_C).verdict:
                best = i
            else:
                break
        beta.append(best)
    bstar = min(beta)
    x = beta.index(bstar)
    window = tuple((x + j) % two_k for j in range(inst.k))
    return {"beta": beta, "beta_star": bstar, "argmin_class": x, "window": window}
