import hashlib

import numpy as np
import pytest
from fractions import Fraction

from deltareg import hypergraphs as H
from deltareg import schedules as S
from deltareg.graphs import ProductClass, VertexClassSet, aux_graph, lift_graph_to_kgraph
from deltareg.partitions import KPartition, VertexPartition
from test_graphs import _reference_kgraph_text



def test_tower_hierarchy_values():
    assert S.ackermann(1, 3) == 8
    assert S.ackermann(2, 1) == 2
    assert S.ackermann(2, 3) == 16
    assert S.ackermann(2, 4) == 65536
    assert S.ackermann(3, 1) == 2
    assert S.ackermann(3, 2) == 4
    assert S.ackermann(3, 3) == 65536
    assert isinstance(S.ackermann(2, 6), S.TowerDescriptor)


def test_delta_levels_exact():
    assert S.delta_level(1) == Fraction(1, 1 << 8)
    assert S.delta_level(2) == Fraction(1, 1 << 64)
    assert S.delta_level(3) == Fraction(1, 1 << 512)


def test_desk_schedule_shapes():
    d = S.desk_schedule_k3()
    assert d.t_values == (2, 4, 16)
    # recurrence shape: t(i+1) = 2^(t(i)/e(i)) with integer divisors
    for i in (1, 2):
        e = d.e(i)
        assert 2 ** (d.t(i) // e) == d.t(i + 1)
    assert d.m(3, 2) == 3
    assert d.m(2, 4) == 5
    rt = S.DeskSchedule.from_json(d.to_json())
    assert rt.t_values == d.t_values and rt.a_maps == d.a_maps


@pytest.mark.parametrize("which, j", [("a", 0), ("a", 3), ("a*", 0), ("a*", 3)])
def test_desk_index_maps_refuse_entries_outside_the_table(which, j):
    """A_3 and A_3* hold j = 1 and 2: j = 0 must not wrap to the last entry,
    and j = 3 must not raise IndexError."""
    sched = S.desk_schedule_k3()
    with pytest.raises(ValueError, match="outside the desk table"):
        {"a": sched.a, "a*": sched.a_star}[which](3, j)


@pytest.fixture(scope="module")
def k3_family():
    sched = S.desk_schedule_k3()
    n = 64
    classes = VertexClassSet([("V0", n), ("V1", n), ("V2", n)])
    levels = H.nested_class_chain(n, [sched.t(i) for i in (1, 2, 3)])
    chain = [[levels[i]] * 3 for i in range(3)]
    return H.build_inductive_family(3, 2, classes, chain, sched, seed=5)


def test_family_k2_delegates_to_chain(k3_family):
    sub = k3_family.sub_family
    assert sub.k == 2
    for j in (1, 2):
        for idx in range(1 << j):
            h = sub.h_member(j, idx)
            g = sub.core_seq.member_graph(j, idx)
            assert np.array_equal(aux_graph(h, 2).graph.rows, g.rows)


def test_family_invariants_exact(k3_family):
    rep = H.verify_family(k3_family)
    assert rep["ok"], rep["failures"][:4]


def test_family_with_copied_subtrees_fails_the_level_1_split(k3_family):
    """Both level-1 members the same graph, each level's second half a copy
    of its first: every density, lift and split from level 2 on still
    holds, and only the level-1 split of the complete graph fails."""
    import copy

    from deltareg.core import CoreMember

    seq = copy.copy(k3_family.core_seq)
    seq.members = [list(level) for level in seq.members]
    for j in range(1, k3_family.s + 1):
        half = 1 << (j - 1)
        for idx in range(half):
            m = seq.members[j][idx]
            seq.members[j][idx + half] = CoreMember(j, idx + half, m.quotient)
    seq._materialized = {}
    tampered = copy.copy(k3_family)
    tampered.core_seq = seq
    assert seq.member_graph(1, 0) == seq.member_graph(1, 1)
    rep = H.verify_family(tampered)
    assert not rep["ok"]
    assert rep["failures"] == [("chain", 1, 0)]


def test_family_densities_dyadic(k3_family):
    for j in (1, 2):
        for idx in range(1 << j):
            assert k3_family.h_member(j, idx).density() == Fraction(1, 1 << j)


def test_family_lift_round_trip(k3_family):
    h = k3_family.h_member(2, 1)
    g = k3_family.core_seq.member_graph(2, 1)
    assert np.array_equal(aux_graph(h, 3).graph.rows, g.rows)


def test_family_subsequence_bookkeeping(k3_family):
    sched = k3_family.schedule
    for j in range(1, k3_family.s + 1):
        # level j's left partition is sub-family level a*(3, j), with 2^a* parts
        assert len(k3_family.core_seq.left_chain[j - 1].cells) == 1 << sched.a_star(3, j)
        assert len(k3_family.core_seq.right_chain[j - 1].cells) == sched.t(sched.a(3, j))


def test_family_chain_depth_consistency():
    sched = S.desk_schedule_k3()
    n = 64
    classes = VertexClassSet([("V0", n), ("V1", n), ("V2", n)])
    levels = H.nested_class_chain(n, [2, 4])
    chain = [[levels[i]] * 3 for i in range(2)]
    with pytest.raises(ValueError):
        H.build_inductive_family(3, 2, classes, chain, sched, seed=1)


def test_onesided_property_trivial_and_error(k3_family):
    fam = k3_family
    n = 64
    # a layered partition whose vertex cells are exactly the level-2 chain
    cells = []
    for cls in range(3):
        for cell in fam.chain[1][cls].cells:
            cells.append(cell + cls * n)
    P = KPartition(fam.classes, VertexPartition(3 * n, cells), {})
    rep = H.verify_onesided_property(fam, 2, 0, P, 1)
    assert rep["hypothesis"] and rep["conclusion"] and rep["implication"]
    with pytest.raises(ValueError):
        H.verify_onesided_property(fam, 2, 0, P, 99)


def test_onesided_adversarial_scrambled_first_class(k3_family):
    fam = k3_family
    n = 64
    rng = np.random.default_rng(8)
    perm = rng.permutation(n)
    cells = [np.sort(perm[:32]), np.sort(perm[32:])]  # scrambled class 0 (2 cells)
    vcells = [c for c in cells]
    for cls in (1, 2):
        for cell in fam.chain[1][cls].cells:
            vcells.append(cell + cls * n)
    P = KPartition(fam.classes, VertexPartition(3 * n, vcells), {})
    rep = H.verify_onesided_property(fam, 2, 0, P, 1)
    assert rep["hypothesis"]  # classes 2..k refine level 1
    # the conclusion generically fails for a random scramble
    assert not rep["conclusion"]
    assert not rep["implication"]


def test_onesided_property_reports_the_kpartition_regularity():
    """Given delta, the report carries the member's exact partition
    regularity, as a direct is_delta_regular_kpartition call gives it."""
    from deltareg.partitions import complete_kpartition
    from deltareg.regularity import is_delta_regular_kpartition

    fam = _family(3, 0)
    P = complete_kpartition(fam.classes, 8, 2)
    delta = Fraction(1, 4)
    rep = H.verify_onesided_property(fam, 2, 0, P, 1, delta)
    assert rep["regularity"] == is_delta_regular_kpartition(fam.h_member(2, 0), P, delta)
    assert rep["regularity"]["good"] and len(rep["regularity"]["axes"]) == 3


def _vertex_cells_only(fam):
    """The family's classes cut by its level-1 chain, with no layer above."""
    n = fam.classes.classes[0].size
    cells = [cell + cls * n for cls in range(fam.k) for cell in fam.chain[0][cls].cells]
    return KPartition(fam.classes, VertexPartition(fam.k * n, cells), {})


def test_onesided_property_refuses_a_partition_without_layer_k_minus_1():
    """A 3-graph's axis views need layer 2: its absence is named, not
    mistaken for a k = 2 partition whose cells miss the ground set."""
    fam = _family(3, 0)
    with pytest.raises(ValueError, match="no layer 2"):
        H.verify_onesided_property(fam, 2, 0, _vertex_cells_only(fam), 1, Fraction(1, 4))


def test_onesided_property_refuses_an_untabulated_uniformity():
    """The desk schedule tabulates A_k for k = 3 only; a k = 2 family is
    refused with the tabulated uniformities, not a bare KeyError."""
    fam = _family(2, 0)
    with pytest.raises(ValueError, match=r"tabulated for uniformities \[3\], not 2"):
        H.verify_onesided_property(fam, 2, 0, _vertex_cells_only(fam), 1)


@pytest.fixture(scope="module")
def pasted():
    sched = S.desk_schedule_k3()
    return H.build_pasted_instance(3, 2, sched, seed=9, blowup=4)


@pytest.mark.parametrize("blowup", [0, -2])
def test_pasted_instance_refuses_a_blowup_below_1_by_name(blowup):
    with pytest.raises(ValueError, match=f"blowup must be at least 1, not {blowup}"):
        H.build_pasted_instance(3, 2, S.desk_schedule_k3(), seed=9, blowup=blowup)


def test_pasted_density_exact(pasted):
    rep = H.pasted_density_check(pasted)
    assert rep["ok"]
    assert rep["merged_density"] == Fraction(6, 8) * Fraction(1, 4) == Fraction(3, 16)


def test_pasted_equal_class_sizes(pasted):
    sizes = {c.size for c in pasted.merged.classes.classes}
    assert sizes == {2 * pasted.n_per_class}


def test_pasted_initial_cells_bound(pasted):
    assert pasted.initial_cells <= 2 * 3 * 2  # 2k * t(1)


def test_pasted_edge_disjoint(pasted):
    assert pasted.merged.edge_count() == sum(h.edge_count() for h in pasted.edge_graphs)


def _k2_pasted():
    sched = S.DeskSchedule(t_values=(2, 4, 16), a_maps={}, a_star_maps={})
    return H.build_pasted_instance(2, 2, sched, seed=1, blowup=4)


@pytest.mark.parametrize("which", ["k3", "k2"])
def test_every_window_family_passes_and_each_window_lifts_its_picked_member(pasted, which):
    """All 2k families of a pasted instance pass the chain check, and
    window x is the last-axis lift of member picked[x] at depth s of
    family x."""
    inst = pasted if which == "k3" else _k2_pasted()
    assert len(inst.families) == len(inst.picked) == len(inst.edge_graphs) == 2 * inst.k
    for fam, idx, h in zip(inst.families, inst.picked, inst.edge_graphs):
        rep = H.verify_family(fam)
        assert rep["ok"], rep["failures"][:4]
        assert np.array_equal(aux_graph(h, inst.k).graph.rows, fam.core_seq.member_graph(inst.s, idx).rows)


def test_beta_star_planted_lag(pasted):
    parts = [pasted.chain_per_class[2]] * 6
    parts = list(parts)
    parts[4] = pasted.chain_per_class[1]
    rep = H.beta_star_analysis(pasted, parts)
    assert rep["beta_star"] == 2
    assert rep["argmin_class"] == 4
    assert rep["window"] == (4, 5, 0)


def test_beta_star_initial_refinement(pasted):
    parts = [pasted.chain_per_class[0]] * 6
    rep = H.beta_star_analysis(pasted, parts)
    assert all(b >= 1 for b in rep["beta"])
    bad = [VertexPartition(pasted.n_per_class, [range(pasted.n_per_class)])] * 6
    with pytest.raises(ValueError):
        H.beta_star_analysis(pasted, bad)


# -- the member pick and the member cells against the lifting code -------------


def _lex_pick_by_lifting(fam, j):
    """The lex selector as it was: lift every member, keep the one whose
    encoded edges compare smallest as little-endian int64 bytes."""
    best, best_h = None, None
    for idx in range(fam.member_count(j)):
        h = fam.h_member(j, idx)
        key = h.encoded.astype("<i8").tobytes()
        if best is None or key < best:
            best, best_h = key, h
    return best_h


def _partition_by_lifting(fam, level, prod):
    """The member partition as it was: each lifted member's edges, encoded
    in the product of the family's classes, form one cell."""
    return VertexPartition(prod.size, [prod.encode_array(fam.h_member(level, idx).edges()) for idx in range(fam.member_count(level))])


def _family(k, seed):
    sched = S.desk_schedule_k3()
    n = 32
    classes = VertexClassSet([(f"V{j}", n) for j in range(k)])
    levels = H.nested_class_chain(n, [sched.t(i) for i in (1, 2, 3)])
    return H.build_inductive_family(k, 2, classes, [[levels[i]] * k for i in range(3)], sched, seed=seed)


@pytest.mark.parametrize("seed", [0, 3, 8])
@pytest.mark.parametrize("k", [2, 3])
def test_lift_free_pick_and_cells_match_the_lifting_code(k, seed):
    fam = _family(k, seed)
    prod = ProductClass.of(fam.classes.classes)
    for j in (1, 2):
        assert fam.h_member(j, H._select_member(fam, j)) == _lex_pick_by_lifting(fam, j)
        cells = H._edge_partition_as_vertex_partition(fam, j, prod).cells
        ref = _partition_by_lifting(fam, j, prod).cells
        assert len(cells) == len(ref) == fam.member_count(j)
        assert all(np.array_equal(c, r) for c, r in zip(cells, ref))


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_pick_reads_one_least_code_per_member(seed, monkeypatch):
    """A chain level's members are disjoint and non-empty, so their least
    codes differ: the pick returns the full-key winner's index and lifts no
    member."""
    fam = _family(3, seed)
    winners = {j: _lex_pick_by_lifting(fam, j) for j in (1, 2)}
    for j in (1, 2):
        for idx in range(fam.member_count(j)):
            assert fam.least_code(j, idx) == fam.h_member(j, idx).encoded[0]
    lifts = []

    def counted(*args, **kwargs):
        lifts.append(args)
        return lift_graph_to_kgraph(*args, **kwargs)

    monkeypatch.setattr(H, "lift_graph_to_kgraph", counted)
    picks = {j: H._select_member(fam, j) for j in winners}
    assert lifts == []
    for j, winner in winners.items():
        pick = fam.h_member(j, picks[j])
        assert pick == winner and [c.name for c in pick.classes.classes] == [c.name for c in winner.classes.classes]


class _StubMember:
    def __init__(self, encoded):
        self.encoded = encoded


class _StubFamily:
    """A family whose level members hold the given codes, in a given byte
    order; h_member returns the member's codes."""

    def __init__(self, codes, dtype):
        self.codes, self.dtype = codes, dtype

    def member_count(self, j):
        return len(self.codes)

    def least_code(self, j, idx):
        return min(self.codes[idx], default=None)

    def h_member(self, j, idx):
        return _StubMember(np.array(self.codes[idx], dtype=self.dtype))


@pytest.mark.parametrize("dtype", ["<i8", ">i8"])
def test_lex_pick_is_bytewise_on_little_endian_codes(dtype):
    """As little-endian bytes, 256 is 00 01 00 .. and 1 is 01 00 ..: the
    members starting with 256 win, though 1 < 256, whatever order the codes
    are stored in.  They tie on their least code, so their full codes
    decide: 300 is 2C 01 and 301 is 2D 01.  An empty member's key is empty,
    and so least of all."""
    assert H._select_member(_StubFamily([[1, 2], [256, 301], [257], [256, 300]], dtype), 2) == 3
    assert H._select_member(_StubFamily([[1, 2], [256, 300], [257], [256, 301]], dtype), 2) == 1
    assert H._select_member(_StubFamily([[256], [], [1], []], dtype), 2) == 1


def _sha(graphs):
    """SHA-256 of the graphs' v1 texts, one decimal line per edge: the pins
    name the graphs built, not how a file stores them."""
    return hashlib.sha256("".join(_reference_kgraph_text(h) for h in graphs).encode()).hexdigest()


def test_pasted_graphs_golden_sha256(pasted):
    """The pick, the lift and the merge, pinned: any change to which member
    a window keeps or to the codes of its edges changes these."""
    assert _sha([pasted.merged]) == "a478ee9b329a9083a7ed89356b4e28070a4e247c52ac7db58f4bf981be84237f"
    assert _sha(pasted.edge_graphs) == "5a9cff4dbc67b00ec9e47d75ca263790b771f05bfafaa4a190cb3adb67dbaa1b"
    inst2 = _k2_pasted()
    assert _sha([inst2.merged]) == "c70fa6b962adc77cd58e3787c90a4da3e669fdefd827198a73cb2d8e88b31c0b"
    assert _sha(inst2.edge_graphs) == "41298496215cd3f1c14c09d74d2a9551a0ecb7f5387a6eb2544cf7b4e8547dfe"


def test_desk_schedule_index_maps_and_levels():
    """The desk table's t, A_3, A_3* and delta entries, read through the
    methods the builders call."""
    d = S.desk_schedule_k3()
    assert [d.t(i) for i in (1, 2, 3)] == [2, 4, 16]
    assert d.a(3, 2) == 2 and d.a_star(3, 1) == 1
    assert d.delta(1) == Fraction(1, 256) == S.delta_level(1)
