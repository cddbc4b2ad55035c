import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from deltareg import partitions as P
from deltareg.graphs import VertexClassSet


def test_refines_beta_straddling_cell():
    # 16-element ground set, one straddling cell of size 3
    p = P.VertexPartition(16, [range(0, 8), range(8, 16)])
    q = P.VertexPartition(16, [range(0, 7), [7, 8, 9], range(10, 16)])
    assert P.refines_beta(q, p, Fraction(3, 16)).verdict is True
    assert P.refines_beta(q, p, Fraction(2, 16)).verdict is False


def test_refines_beta_exact_and_identity():
    p = P.VertexPartition(12, [range(0, 6), range(6, 12)])
    q = P.VertexPartition(12, [range(0, 3), range(3, 6), range(6, 12)])
    assert P.refines_beta(q, p, 0).verdict
    for beta in (0, Fraction(1, 4), Fraction(1, 2)):
        assert P.refines_beta(p, p, beta).verdict


def test_refines_beta_monotone_in_beta():
    rng = np.random.default_rng(4)
    ground = 24
    p = P.VertexPartition.blocks(ground, 4)
    cells = np.split(rng.permutation(ground), [5, 9, 16, 20])
    q = P.VertexPartition(ground, cells)
    betas = [Fraction(i, 16) for i in range(0, 9)]
    verdicts = [P.refines_beta(q, p, b).verdict for b in betas]
    for a, b in zip(verdicts, verdicts[1:]):
        assert (not a) or b  # true stays true as beta grows


def test_refines_beta_rejects_large_beta():
    p = P.VertexPartition.blocks(8, 2)
    with pytest.raises(ValueError):
        P.refines_beta(p, p, Fraction(3, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.randoms(use_true_random=False))
def test_refines_beta_reflexive_property(cells_a, w, rnd):
    n = cells_a * w
    parts = P.VertexPartition.blocks(n, cells_a)
    assert P.refines_beta(parts, parts, 0).verdict
    assert P.refines_beta(P.VertexPartition.singletons(n), parts, 0).verdict


def test_cross_k_counts():
    assert P.cross_k(P.VertexPartition.singletons(5), 2).shape == (10, 2)
    vp = P.VertexPartition.blocks(6, 3)
    assert P.cross_k(vp, 2).shape == (12, 2)
    with pytest.raises(ValueError):
        P.cross_k(P.VertexPartition(4, [range(4)]), 2)


def test_clique_set_pair_and_triangles():
    pol = P.Polyad.pair([0, 1, 2], [0, 1])
    ks = P.clique_set(pol)
    assert ks.edge_count() == 6  # complete bipartite
    # tripartite polyad: triangles
    from deltareg.graphs import KPartiteKGraph

    cs = VertexClassSet([("V1", 2), ("V2", 2), ("V3", 2)])
    full = np.array([(i, j) for i in range(2) for j in range(2)], dtype=np.int64)
    parts = []
    for span in [(1, 2), (0, 2), (0, 1)]:
        sub = VertexClassSet([(f"V{j+1}", 2) for j in span])
        parts.append(KPartiteKGraph(sub, full))
    poly = P.Polyad(3, cs, parts)
    tri = P.clique_set(poly)
    assert tri.edge_count() == 8
    # empty first part kills every clique
    parts0 = [KPartiteKGraph(parts[0].classes, np.empty((0, 2), dtype=np.int64))] + parts[1:]
    assert P.clique_set(P.Polyad(3, cs, parts0)).edge_count() == 0


def test_compose_counts():
    from deltareg.graphs import KPartiteKGraph, VertexClass

    cs = VertexClassSet([("V1", 3), ("V2", 3)])
    F = KPartiteKGraph(cs, [[0, 0], [1, 2], [2, 1], [0, 1], [1, 1]])
    V = VertexClass("V3", 3)
    H = P.compose(F, V)
    assert H.edge_count() == 15
    empty = KPartiteKGraph(cs, np.empty((0, 2), dtype=np.int64))
    assert P.compose(empty, V).edge_count() == 0
    with pytest.raises(ValueError):
        P.compose(F, VertexClass("V1", 3))


@pytest.fixture()
def layered_3():
    cs = VertexClassSet([("V1", 4), ("V2", 4), ("V3", 4)])
    return P.complete_kpartition(cs, 2, 2)


def test_kpartition_layers_partition_exactly(layered_3):
    kp = layered_3
    total = sum(c.shape[0] for c in kp.layers[2])
    assert total == P.cross_k(kp.vertex, 2).shape[0]


def test_kpartition_under_unique(layered_3):
    kp = layered_3
    for ci in range(len(kp.layers[2])):
        prof = kp.under(2, ci)
        assert len(prof) == 2
        cell = kp.layers[2][ci]
        for row in cell:
            assert (kp.vertex.cell_of(int(row[0])), kp.vertex.cell_of(int(row[1]))) == prof


def test_kpartition_rejects_overlap():
    cs = VertexClassSet([("V1", 2), ("V2", 2)])
    vp = P.VertexPartition(4, [[0, 1], [2, 3]])
    dup = np.array([[0, 2], [0, 2]])
    with pytest.raises(ValueError):
        P.KPartition(cs, vp, {2: [dup]})


def test_decompose_polyads_tiles_exhaustively(layered_3):
    kp = layered_3
    fidx = None
    for ci, cell in enumerate(kp.layers[2]):
        classes = {kp.classes.class_of(int(v)) for v in cell[0]}
        if classes == {0, 1}:
            fidx = ci
            break
    vidx = next(i for i, c in enumerate(kp.vertex.cells) if int(c[0]) >= 8)
    parts = P.decompose_polyads(kp, fidx, vidx)
    F = kp.layers[2][fidx]
    V = kp.vertex.cells[vidx]
    seen = set()
    for _, tuples in parts:
        for t in tuples:
            key = tuple(int(x) for x in t)
            assert key not in seen
            seen.add(key)
    assert len(seen) == F.shape[0] * V.size


def test_decompose_polyads_base_pair():
    cs = VertexClassSet([("V1", 4), ("V2", 4)])
    vp = P.VertexPartition(8, [range(0, 2), range(2, 4), range(4, 6), range(6, 8)])
    kp = P.KPartition(cs, vp, {})
    parts = P.decompose_polyads(kp, 0, 2)
    assert len(parts) == 1
    assert parts[0][1].shape[0] == 4  # 2 x 2 pairs


def test_refinement_union_bound_and_determinism():
    rng = np.random.default_rng(12)
    p = P.VertexPartition.blocks(32, 4)
    # a delta-refinement with a bit of straddle noise
    cells = [list(range(0, 8)), list(range(8, 15)), [15, 16], list(range(17, 24)), list(range(24, 32))]
    q = P.VertexPartition(32, cells)
    delta = Fraction(1, 4)
    rep = P.refines_beta(q, p, delta)
    assert rep.verdict
    pi, union, diff = P.refinement_union(q, p, delta)
    assert Fraction(diff) <= 3 * delta * len(p.cells[pi])
    # oracle: the reported cell minimizes the symmetric difference
    best = None
    for cand in range(len(p.cells)):
        u = []
        for qi, cell in enumerate(q.cells):
            hosts, counts = np.unique(p.owner[cell], return_counts=True)
            h = int(hosts[np.argmax(counts)])
            outside = int(cell.size - counts.max())
            if (outside == 0 or outside < delta * cell.size) and h == cand:
                u.extend(cell.tolist())
            d = len(set(u) ^ set(p.cells[cand].tolist()))
        d = len(set(u) ^ set(p.cells[cand].tolist()))
        if best is None or d < best:
            best = d
    assert diff == best


def test_refinement_union_exact_gives_zero():
    p = P.VertexPartition.blocks(16, 2)
    q = P.VertexPartition.blocks(16, 8)
    _, _, diff = P.refinement_union(q, p, Fraction(1, 8))
    assert diff == 0
    one = P.VertexPartition(16, [range(16)])
    _, union, diff = P.refinement_union(q, one, Fraction(1, 8))
    assert diff == 0 and union.size == 16


def test_check_refinement_size():
    p = P.VertexPartition.blocks(32, 8)
    q = P.VertexPartition.blocks(32, 8)
    assert P.check_refinement_size(q, p)
    assert P.check_refinement_size(P.VertexPartition.singletons(32), p)
    # splitting within hosts plus bounded straddle noise keeps the bound
    cells = [range(0, 4), range(4, 8), range(8, 12), [12, 13, 14], [15, 16],
             [17, 18, 19], range(20, 24), range(24, 28), range(28, 32)]
    q2 = P.VertexPartition(32, [list(c) for c in cells])
    assert P.check_refinement_size(q2, p)
    with pytest.raises(ValueError):
        P.check_refinement_size(P.VertexPartition(32, [range(32)]), p)


def test_restrict_kpartition_identity_and_drop(layered_3):
    kp = layered_3
    same = P.restrict_kpartition(kp, [0, 1, 2])
    assert len(same.vertex.cells) == len(kp.vertex.cells)
    assert sum(c.shape[0] for c in same.layers[2]) == sum(c.shape[0] for c in kp.layers[2])
    dropped = P.restrict_kpartition(kp, [0, 1])
    assert len(dropped.classes) == 2
    # re-validated on construction: layers partition the restricted cross family
    assert sum(c.shape[0] for c in dropped.layers[2]) == P.cross_k(dropped.vertex, 2).shape[0]
    single = P.restrict_kpartition(kp, [0])
    assert single.k == 1 and len(single.vertex.cells) == 2


def test_partition_text_round_trip():
    vp = P.VertexPartition(10, [[0, 3, 4], [1, 2], [5, 6, 7, 8, 9]])
    assert P.VertexPartition.from_text(10, vp.to_text()) == vp


def test_kpartition_text_round_trip(layered_3):
    kp = layered_3
    text = P.kpartition_to_text(kp)
    back = P.kpartition_from_text(text)
    assert len(back.vertex.cells) == len(kp.vertex.cells)
    assert all(np.array_equal(a, b) for a, b in zip(back.vertex.cells, kp.vertex.cells))
    for r in kp.layers:
        assert len(back.layers[r]) == len(kp.layers[r])
        for a, b in zip(back.layers[r], kp.layers[r]):
            assert np.array_equal(a, b)
        assert back.under_map[r] == kp.under_map[r]
    # tampering the under-map is rejected
    bad = text.replace("under 0 ", "under 1 ", 1)
    with pytest.raises(ValueError):
        P.kpartition_from_text(bad)


def test_refines_beta_ground_mismatch():
    with pytest.raises(ValueError):
        P.refines_beta(P.VertexPartition.blocks(8, 2), P.VertexPartition.blocks(12, 2), 0)


def _reference_partition(n, cells):
    """The per-cell construction loop: normalise each cell, order cells by
    their least id, then check range and overlap in that order, then cover."""
    norm = []
    for cell in cells:
        arr = np.unique(np.asarray(cell, dtype=np.int64))
        if arr.size == 0:
            raise ValueError("empty cell")
        norm.append(arr)
    norm.sort(key=lambda a: int(a[0]))
    owner = np.full(n, -1, dtype=np.int64)
    for i, cell in enumerate(norm):
        if cell[0] < 0 or cell[-1] >= n:
            raise ValueError("cell element out of range")
        if np.any(owner[cell] != -1):
            raise ValueError("cells are not disjoint")
        owner[cell] = i
    if np.any(owner == -1):
        raise ValueError("cells do not cover the ground set")
    return [c.tolist() for c in norm], owner.tolist()


def _outcome(build):
    try:
        return build()
    except ValueError as e:
        return str(e)


@st.composite
def _cell_lists(draw):
    """Partitions of 0..n-1 (shuffled, cells unsorted) with optional damage:
    a repeated id, an empty cell, an overlap, a gap or an out-of-range id."""
    n = draw(st.integers(0, 12))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=4))) if n > 1 else []
    cells = [list(perm[a:b]) for a, b in zip([0] + cuts, cuts + [n])] if n else []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["repeat", "empty", "overlap", "gap", "range"]))
        if kind == "empty":
            cells.insert(draw(st.integers(0, len(cells))), [])
        elif cells:
            c = draw(st.integers(0, len(cells) - 1))
            if kind == "repeat" and cells[c]:
                cells[c].append(cells[c][0])
            elif kind == "overlap":
                cells[c].append(draw(st.integers(0, max(n - 1, 0))))
            elif kind == "gap" and cells[c]:
                cells[c].pop()
            elif kind == "range":
                cells[c].append(draw(st.sampled_from([-1, n, n + 3])))
    return n, cells


@settings(max_examples=400, deadline=None)
@given(_cell_lists())
def test_vertex_partition_matches_reference_loop(case):
    n, cells = case
    want = _outcome(lambda: _reference_partition(n, cells))

    def build():
        vp = P.VertexPartition(n, cells)
        assert vp.owner.dtype == np.int64 and not vp.owner.flags.writeable
        return [c.tolist() for c in vp.cells], vp.owner.tolist()

    assert _outcome(build) == want
    # the text form has no empty cells: a blank line is skipped
    filled = [c for c in cells if c]
    text = "\n".join(" ".join(map(str, c)) for c in filled) + "\n"

    def load():
        vp = P.VertexPartition.from_text(n, text)
        return [c.tolist() for c in vp.cells], vp.owner.tolist()

    assert _outcome(load) == _outcome(lambda: _reference_partition(n, filled))


@settings(max_examples=100, deadline=None)
@given(_cell_lists())
def test_vertex_partition_text_round_trip(case):
    n, cells = case
    try:
        vp = P.VertexPartition(n, cells)
    except ValueError:
        return
    back = P.VertexPartition.from_text(n, vp.to_text())
    assert back == vp
    assert [c.tolist() for c in back.cells] == [c.tolist() for c in vp.cells]
    assert back.to_text() == vp.to_text()


def test_vertex_partition_text_tolerates_blank_lines_and_spacing():
    vp = P.VertexPartition.from_text(5, "\n3  1\n\n0\t2 \n4\n\n")
    assert [c.tolist() for c in vp.cells] == [[0, 2], [1, 3], [4]]
    with pytest.raises(ValueError):
        P.VertexPartition.from_text(2, "0 x\n1\n")


def test_refines_exactly_and_equality():
    fine = P.VertexPartition(6, [[0, 1], [2], [3, 4, 5]])
    coarse = P.VertexPartition.blocks(6, 2)
    assert fine.refines_exactly(coarse)
    assert not coarse.refines_exactly(fine)
    assert not P.VertexPartition(6, [[0, 3], [1, 2], [4, 5]]).refines_exactly(coarse)
    assert P.VertexPartition.singletons(4) == P.VertexPartition(4, [[3], [2], [1], [0]])
    assert fine != coarse
