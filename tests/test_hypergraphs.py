import hashlib

import numpy as np
import pytest
from fractions import Fraction

from deltareg import hypergraphs as H
from deltareg import schedules as S
from deltareg.graphs import ProductClass, VertexClassSet, aux_graph, kgraph_to_text
from deltareg.partitions import KPartition, VertexPartition

CORE_KW = dict(alpha=Fraction(3, 4), beta=Fraction(1, 2))


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


def test_strict_schedule_saturates():
    st = S.StrictSchedule()
    assert st.t(1) == 1 << 200
    assert isinstance(st.t(2), S.TowerDescriptor)
    assert st.a(2, 5) == 5
    a31 = st.a(3, 1)
    assert a31 == 1 << 2048
    assert a31 >= 2  # the hierarchy floor at argument 1
    assert isinstance(st.a(3, 2), S.TowerDescriptor) or st.a(3, 2) > 0


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


def test_schedule_eval_dispatch():
    d = S.desk_schedule_k3()
    assert S.schedule_eval(d, "t", 2) == 4
    assert S.schedule_eval(d, "a", 3, 2) == 2
    assert S.schedule_eval(d, "a*", 3, 1) == 1
    assert S.schedule_eval(d, "delta", 1) == Fraction(1, 256)
    with pytest.raises(ValueError):
        S.schedule_eval(d, "nope", 1)


@pytest.fixture(scope="module")
def k3_family():
    sched = S.desk_schedule_k3()
    n = 64
    classes = VertexClassSet([("V0", n), ("V1", n), ("V2", n)])
    levels = H.nested_class_chain(n, [sched.t(i) for i in (1, 2, 3)])
    chain = [[levels[i]] * 3 for i in range(3)]
    return H.build_inductive_family(3, 2, classes, chain, sched, seed=5, core_kwargs=CORE_KW)


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
    for j, ell in enumerate(k3_family.f_selection, start=1):
        assert ell == sched.a_star(3, j)
        # the selected chain partition has 2^ell parts
        assert len(k3_family.core_seq.left_chain[j - 1].cells) == 1 << ell
    for j, i in enumerate(k3_family.v_selection, start=1):
        assert len(k3_family.core_seq.right_chain[j - 1].cells) == sched.t(i)


def test_family_chain_depth_consistency():
    sched = S.desk_schedule_k3()
    n = 64
    classes = VertexClassSet([("V0", n), ("V1", n), ("V2", n)])
    levels = H.nested_class_chain(n, [2, 4])
    chain = [[levels[i]] * 3 for i in range(2)]
    with pytest.raises(ValueError):
        H.build_inductive_family(3, 2, classes, chain, sched, seed=1, core_kwargs=CORE_KW)


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


@pytest.fixture(scope="module")
def pasted():
    sched = S.desk_schedule_k3()
    return H.build_pasted_instance(3, 2, sched, seed=9, blowup=4, core_kwargs=CORE_KW)


def test_pasted_window_structure(pasted):
    wins = pasted.cycle_windows()
    assert len(wins) == 6
    assert wins[0] == (0, 1, 2) and wins[5] == (5, 0, 1)
    # for uniformity 2 the cycle has 4 windows on 4 classes
    sched = S.DeskSchedule(t_values=(2, 4, 16), a_maps={}, a_star_maps={})
    inst2 = H.build_pasted_instance(2, 2, sched, seed=1, blowup=4, core_kwargs=CORE_KW)
    assert inst2.cycle_windows() == [(0, 1), (1, 2), (2, 3), (3, 0)]


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


# -- lift-free member codes against the lifting code they replaced -------------


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
    return VertexPartition(prod.size, [prod.encode_array(fam.h_member(level, idx).edges_arr) for idx in range(fam.member_count(level))])


def _family(k, seed):
    sched = S.desk_schedule_k3()
    n = 32
    classes = VertexClassSet([(f"V{j}", n) for j in range(k)])
    levels = H.nested_class_chain(n, [sched.t(i) for i in (1, 2, 3)])
    return H.build_inductive_family(k, 2, classes, [[levels[i]] * k for i in range(3)], sched, seed=seed, core_kwargs=CORE_KW)


@pytest.mark.parametrize("seed", [0, 3, 8])
@pytest.mark.parametrize("k", [2, 3])
def test_lift_free_pick_and_cells_match_the_lifting_code(k, seed):
    fam = _family(k, seed)
    prod = ProductClass.of(fam.classes.classes)
    for j in (1, 2):
        for idx in range(fam.member_count(j)):
            assert np.array_equal(fam.member_codes(j, idx), fam.h_member(j, idx).encoded)
        assert H._select_member(fam, j) == _lex_pick_by_lifting(fam, j)
        cells = H._edge_partition_as_vertex_partition(fam, j, prod).cells
        ref = _partition_by_lifting(fam, j, prod).cells
        assert len(cells) == len(ref) == fam.member_count(j)
        assert all(np.array_equal(c, r) for c, r in zip(cells, ref))


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_pick_reads_one_least_code_per_member(seed, monkeypatch):
    """A chain level's members are disjoint and non-empty, so their least
    codes differ: the pick returns the full-key winner without reading any
    member's full codes."""
    fam = _family(3, seed)
    winners = {j: _lex_pick_by_lifting(fam, j) for j in (1, 2)}
    for j in (1, 2):
        for idx in range(fam.member_count(j)):
            assert fam.least_code(j, idx) == fam.member_codes(j, idx)[0]

    def unpacks(*args):
        raise AssertionError("member_codes called")

    monkeypatch.setattr(H.InductiveFamily, "member_codes", unpacks)
    for j, winner in winners.items():
        pick = H._select_member(fam, j)
        assert pick == winner and [c.name for c in pick.classes.classes] == [c.name for c in winner.classes.classes]


class _StubFamily:
    """A family whose level members hold the given codes, in a given byte
    order; h_member returns the member's index."""

    def __init__(self, codes, dtype):
        self.codes, self.dtype = codes, dtype

    def member_count(self, j):
        return len(self.codes)

    def member_codes(self, j, idx):
        return np.array(self.codes[idx], dtype=self.dtype)

    def least_code(self, j, idx):
        return min(self.codes[idx], default=None)

    def h_member(self, j, idx):
        return idx


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
    return hashlib.sha256("".join(kgraph_to_text(h) for h in graphs).encode()).hexdigest()


def test_pasted_graphs_golden_sha256(pasted):
    """The pick, the lift and the merge, pinned: any change to which member
    a window keeps or how a k-graph is encoded changes these."""
    assert _sha([pasted.merged]) == "0fd4882d5df325389e79b509f7a8905aacdbbcc06343e1d8b93488817a34e9e4"
    assert _sha(pasted.edge_graphs) == "4079c40e6881f8df8573912a54c0bb27862fb5570471436479f5b20a62b5b520"
    sched = S.DeskSchedule(t_values=(2, 4, 16), a_maps={}, a_star_maps={})
    inst2 = H.build_pasted_instance(2, 2, sched, seed=1, blowup=4, core_kwargs=CORE_KW)
    assert _sha([inst2.merged]) == "97f1c7d8726aeb3e69fabbdd70858059f7ffd8e2ebdf59e26b8f98d18665349c"
    assert _sha(inst2.edge_graphs) == "e13e2096101c93fcd6abcfc48ffa939ca441ea3ca4f49f2abae8d3df702c85c7"
