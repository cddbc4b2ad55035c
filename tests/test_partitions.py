import itertools
import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

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


def _reference_hosts(cells, owner, beta):
    """The per-cell loop ``refines_beta`` ran before ``cell_hosts``: per cell
    its host (smallest label of largest mass), that mass, and whether the
    outside is 0 or below beta|S|, compared in Fractions."""
    out = []
    for cell in cells:
        hosts, counts = np.unique(owner[cell], return_counts=True)
        outside = int(cell.size - counts.max())
        out.append((int(hosts[np.argmax(counts)]), int(counts.max()), outside == 0 or outside < Fraction(beta) * int(cell.size)))
    return out


def _hosts(cells, owner, beta):
    ids = np.concatenate(cells)
    cid = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    host, overlap, inside = P.cell_hosts(cid, owner[ids], beta)
    assert host.dtype == overlap.dtype == np.int64 and inside.dtype == bool
    return list(zip(host.tolist(), overlap.tolist(), inside.tolist()))


_betas = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 512)]),
    st.fractions(min_value=0, max_value=1, max_denominator=50),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 8), _betas, st.randoms(use_true_random=False))
def test_cell_hosts_matches_the_per_cell_loop(n, labels, ncells, beta, rnd):
    """Disjoint cells that need not cover the ground set, then a partition,
    against the reference loop; and refines_beta's report on it."""
    owner = np.array([rnd.randrange(labels) for _ in range(n)], dtype=np.int64)
    where = [rnd.randrange(-1, ncells) for _ in range(n)]  # -1: in no cell
    cells = [np.flatnonzero(np.array(where) == c) for c in range(ncells)]
    cells = [c for c in cells if c.size] or [np.arange(n)]
    assert _hosts(cells, owner, beta) == _reference_hosts(cells, owner, beta)
    q = P.VertexPartition(n, [np.flatnonzero(np.array(where) == c) for c in range(-1, ncells) if c in where])
    assert _hosts(q.cells, owner, beta) == _reference_hosts(q.cells, owner, beta)
    if beta <= Fraction(1, 2):
        p = P.VertexPartition(n, [np.flatnonzero(owner == a) for a in np.unique(owner)])
        ref = _reference_hosts(q.cells, p.owner, beta)
        rep = P.refines_beta(q, p, beta)
        assert rep.assignment == [h if inside else -1 for h, _, inside in ref]
        assert rep.mass_unassigned == sum(c.size for c, (_, _, inside) in zip(q.cells, ref) if not inside)
        assert (rep.beta, rep.ground) == (beta, n)


def test_cell_hosts_ties_thresholds_and_large_beta():
    owner = np.array([0, 0, 1, 1, 2, 2, 2, 0, 1, 2, 1, 1], dtype=np.int64)
    # ties go to the smallest label: {0, 1, 2, 3} is half 0, half 1
    cells = [np.arange(4), np.arange(4, 8), np.arange(8, 12)]
    assert [h for h, _, _ in _hosts(cells, owner, 0)] == [0, 2, 1]
    # {4..7} leaves 1 of 4 outside its host: inside only above beta = 1/4
    for beta, inside in ((Fraction(1, 4), False), (Fraction(1, 4) + Fraction(1, 10**30), True), (0, False)):
        assert _hosts(cells, owner, beta)[1] == (2, 3, inside) == _reference_hosts(cells, owner, beta)[1]
    # beta = 0 keeps exact containment only; a cell inside its host is inside at every beta
    assert [inside for _, _, inside in _hosts([np.arange(2), np.arange(4, 7)], owner, 0)] == [True, True]
    # ceil(beta |S|) far past int64 is clipped to |S| + 1: every cell is inside
    for beta in (Fraction(10**40, 3), Fraction(2**63 + 1)):
        assert [inside for _, _, inside in _hosts(cells, owner, beta)] == [True] * 3
    assert P.ceil_share(np.array([1, 4, 4, 9]), Fraction(10**40, 3)).tolist() == [2, 5, 5, 10]
    assert P.ceil_share(np.array([3, 4, 8]), Fraction(1, 4)).tolist() == [1, 1, 2]


def test_cell_hosts_refuses_empty_cells_and_wrapping_keys():
    assert [a.size for a in P.cell_hosts(np.empty(0, np.int64), np.empty(0, np.int64), 0)] == [0, 0, 0]
    with pytest.raises(ValueError, match="empty cell"):
        P.cell_hosts(np.array([0, 2]), np.array([0, 0]), 0)
    with pytest.raises(ValueError, match="int64"):
        P.cell_hosts(np.array([0, 1 << 32]), np.array([0, (1 << 31) - 1]), 0)
    # one key below 2^63 is taken
    host, overlap, _ = P.cell_hosts(np.array([0, 0]), np.array([(1 << 62) - 1, (1 << 62) - 1]), 0)
    assert host.tolist() == [(1 << 62) - 1] and overlap.tolist() == [2]


def _reference_cross_k(vp, r):
    """The filter cross_k replaced: every r-subset of the ground set, kept
    when its ids lie in r distinct cells."""
    out = [c for c in itertools.combinations(range(vp.n), r) if len(set(vp.owner[list(c)].tolist())) == r]
    return np.array(out, dtype=np.int64).reshape(-1, r)


def test_cross_k_counts():
    assert P.cross_k(P.VertexPartition.singletons(5), 2).shape == (10, 2)
    vp = P.VertexPartition.blocks(6, 3)
    assert P.cross_k(vp, 2).shape == (12, 2)
    with pytest.raises(ValueError):
        P.cross_k(P.VertexPartition(4, [range(4)]), 2)
    with pytest.raises(ValueError):
        P.cross_k(vp, 1)
    assert P.cross_k(vp, 2, cap=12).shape == (12, 2)
    with pytest.raises(ValueError, match="cap"):
        P.cross_k(vp, 2, cap=11)
    # random partitions, cells of uneven sizes in any order
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        owner = rng.permutation(np.arange(n) % k)
        vp = P.VertexPartition(n, [np.flatnonzero(owner == c) for c in range(k)])
        for r in range(2, 5):
            if r > k:
                with pytest.raises(ValueError, match="arity"):
                    P.cross_k(vp, r)
            else:
                got = P.cross_k(vp, r)
                assert got.dtype == np.int64 and np.array_equal(got, _reference_cross_k(vp, r))


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


def test_partition_text_round_trip():
    vp = P.VertexPartition(10, [[0, 3, 4], [1, 2], [5, 6, 7, 8, 9]])
    assert P.VertexPartition.from_text(10, vp.to_text()) == vp


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


@settings(max_examples=400, deadline=None)
@given(_cell_lists())
@example((4, [[0, 2], [1, 2]]))  # n ids, in order, one repeated and one missing
@example((3, [[0, 1], [1, 2]]))
def test_vertex_partition_in_canonical_order_matches_reference_loop(case):
    """Cells sorted within and ordered by their least id, as to_text writes
    them (so whole partitions take the path that skips the sorts), give the
    reference's cells, owner and error, damaged or not."""
    n, cells = case
    cells = sorted((sorted(c) for c in cells), key=lambda c: c[:1])
    want = _outcome(lambda: _reference_partition(n, cells))

    def build():
        vp = P.VertexPartition(n, cells)
        return [c.tolist() for c in vp.cells], vp.owner.tolist()

    assert _outcome(build) == want


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


def _eager_cells(vp):
    """The cells split out of the owner array, one array per cell."""
    sizes = np.bincount(vp.owner, minlength=len(vp))
    return np.split(np.argsort(vp.owner, kind="stable"), np.cumsum(sizes)[:-1])


def _assert_lazy_cells(vp):
    """len, sizes, equality and the text form leave the cells unbuilt; the
    cells, once built, are the eager split."""
    text = vp.to_text()
    assert len(vp) == len(vp.cell_sizes()) and vp == P.VertexPartition.from_text(vp.n, text)
    vp.is_equitable()
    assert "cells" not in vars(vp)
    want = _eager_cells(vp) if vp.n else []
    assert len(vp.cells) == len(want)
    assert all(c.dtype == np.int64 and np.array_equal(c, w) for c, w in zip(vp.cells, want))
    assert vp.cell_sizes().tolist() == [c.size for c in want] and vp.to_text() == text
    # the stored sizes are the recount by owner, and callers cannot write them
    sizes = vp.cell_sizes()
    assert sizes.dtype == np.int64 and np.array_equal(sizes, np.bincount(vp.owner, minlength=len(vp)))
    with pytest.raises(ValueError):
        sizes[:1] = 0


@settings(max_examples=100, deadline=None)
@given(_cell_lists())
def test_vertex_partition_cells_are_built_on_first_use(case):
    n, cells = case
    try:
        vp = P.VertexPartition(n, cells)
    except ValueError:
        return
    _assert_lazy_cells(vp)
    _assert_lazy_cells(P.VertexPartition.from_text(n, vp.to_text()))


@pytest.mark.parametrize("n, k", [(1, 1), (12, 3), (12, 12), (65536, 65536), (65536, 256)])
def test_block_partition_cells_are_built_on_first_use(n, k):
    _assert_lazy_cells(P.VertexPartition.blocks(n, k))
    _assert_lazy_cells(P.VertexPartition.from_text(n, P.VertexPartition.blocks(n, k).to_text()))
    unequal = P.VertexPartition(n + 3, [range(n), range(n, n + 3)])  # sizes n and 3
    _assert_lazy_cells(unequal)
    _assert_lazy_cells(P.VertexPartition.from_text(n + 3, unequal.to_text()))


def test_vertex_partition_text_tolerates_blank_lines_and_spacing():
    vp = P.VertexPartition.from_text(5, "\n3  1\n\n0\t2 \n4\n\n")
    assert [c.tolist() for c in vp.cells] == [[0, 2], [1, 3], [4]]
    assert P.VertexPartition.from_text(5, "\n03  1\n\n00\t002 \n4\n\n") == vp  # leading zeros allowed here
    with pytest.raises(ValueError):
        P.VertexPartition.from_text(2, "0 x\n1\n")


def _reference_to_text(vp):
    return "\n".join(" ".join(map(str, c.tolist())) for c in vp.cells) + "\n"


@settings(max_examples=200, deadline=None)
@given(_cell_lists())
def test_vertex_partition_to_text_matches_per_cell_join(case):
    n, cells = case
    try:
        vp = P.VertexPartition(n, cells)
    except ValueError:
        return
    assert vp.to_text() == _reference_to_text(vp)


def test_vertex_partition_to_text_edge_shapes():
    for vp in (P.VertexPartition(0, []), P.VertexPartition.singletons(1), P.VertexPartition.blocks(12, 3),
               P.VertexPartition(10**5 + 2, [[0, 10**5 + 1], range(1, 10**5 + 1)])):
        assert vp.to_text() == _reference_to_text(vp)
    assert P.VertexPartition(0, []).to_text() == "\n"
    assert P.VertexPartition.from_text(0, "\n") == P.VertexPartition(0, [])


# the ASCII bytes str.split() splits at, found by asking str.split itself
_SPLIT_WHITESPACE = [chr(c) for c in range(128) if ("a" + chr(c) + "b").split() == ["a", "b"]]


def test_vertex_partition_from_text_splits_as_str_split():
    assert len(_SPLIT_WHITESPACE) == 10
    for ws in _SPLIT_WHITESPACE:
        # ids apart by ws, cells apart by newlines, blank lines of ws between
        text = f"{ws}3{ws}{ws}1{ws}\n{ws}\n\n0{ws}2\n{ws}4\n{ws}"
        want = [[1, 3], [0, 2], [4]] if ws != "\n" else [[3], [1], [0], [2], [4]]
        vp = P.VertexPartition.from_text(5, text)
        assert [c.tolist() for c in vp.cells] == sorted(want), repr(ws)


@pytest.mark.parametrize("bad", ["+5", "5x", "x5", "0_5", "--5", "5-", "-", "5,", "0" * 18 + "5", "٥"])
def test_vertex_partition_from_text_refuses_malformed_ids(bad):
    # each stands where the id 5 would complete the partition
    P.VertexPartition.from_text(6, "0 1 2\n3 4 5\n")
    with pytest.raises(ValueError):
        P.VertexPartition.from_text(6, f"0 1 2\n3 4 {bad}\n")


def test_vertex_partition_from_text_reads_a_signed_id_as_out_of_range():
    with pytest.raises(ValueError, match="cell element out of range"):
        P.VertexPartition.from_text(3, "0 1\n-2\n")
    assert P.VertexPartition.from_text(3, "-0 1\n000000000000000002\n") == P.VertexPartition(3, [[0, 1], [2]])
    with pytest.raises(ValueError, match="not a decimal id"):
        P.VertexPartition.from_text(6, "1 2\n3 4 5-0\n")  # one token, not 5 and -0


def _reference_from_text(n, text):
    """str.split per line, each token matched against [-]digits."""
    cells = [line.split() for line in text.split("\n")]
    tokens = [t for c in cells for t in c]
    if not all(re.fullmatch(r"-?[0-9]+", t) for t in tokens):
        raise ValueError("partition text: a token is not a decimal id")
    if any(len(t.lstrip("-")) > 18 for t in tokens):
        raise ValueError("partition text: an id of more than 18 digits")
    return _reference_partition(n, [[int(t) for t in c] for c in cells if c])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6), st.text(alphabet="0123456789 -+x\n\t\r\x0b\x1f", max_size=30))
def test_vertex_partition_from_text_matches_a_split_reference(n, text):
    def load():
        vp = P.VertexPartition.from_text(n, text)
        return [c.tolist() for c in vp.cells], vp.owner.tolist()

    assert _outcome(load) == _outcome(lambda: _reference_from_text(n, text))


def test_partition_equality():
    fine = P.VertexPartition(6, [[0, 1], [2], [3, 4, 5]])
    coarse = P.VertexPartition.blocks(6, 2)
    assert P.VertexPartition.singletons(4) == P.VertexPartition(4, [[3], [2], [1], [0]])
    assert fine != coarse


@pytest.mark.parametrize("build", [
    lambda: P.VertexPartition(10, [[7, 2], [0, 9, 4], [1, 3, 5, 6, 8]]),
    lambda: P.VertexPartition.blocks(12, 4),
    lambda: P.VertexPartition.singletons(5),
    lambda: P.VertexPartition.from_text(9, "4 0\n8 1 2\n3 5 6 7\n"),
], ids=["cells", "blocks", "singletons", "text"])
def test_every_constructor_stores_read_only_sizes_in_owner_order(build):
    """Callers read cell_sizes() in place of recounting np.bincount(owner),
    so every way of building a partition must store that count."""
    vp = build()
    sizes = vp.cell_sizes()
    assert sizes.dtype == np.int64 and sizes.tolist() == [c.size for c in vp.cells]
    assert np.array_equal(sizes, np.bincount(vp.owner, minlength=len(vp))) and int(sizes.sum()) == vp.n
    with pytest.raises(ValueError):
        sizes[0] = 0
    assert vp.cell_sizes().tolist() == [c.size for c in vp.cells]  # a second call sees the stored sizes unchanged


def test_singletons_refine_everything_and_one_cell_refines_only_one_cell():
    p = P.VertexPartition.blocks(32, 8)
    fine = P.VertexPartition.singletons(32)
    rep = P.refines_beta(fine, p, Fraction(1, 8))
    assert rep.verdict and rep.mass_unassigned == 0
    assert rep.assignment == (np.arange(32) // 4).tolist() and np.array_equal(np.asarray(rep.assignment)[fine.owner], p.owner)
    whole = P.VertexPartition(32, [range(32)])
    rep = P.refines_beta(whole, p, Fraction(1, 8))
    assert not rep.verdict and rep.assignment == [-1] and rep.mass_unassigned == 32
    # against one cell the whole set is its own host
    assert P.refines_beta(whole, whole, 0).assignment == [0]


def test_refines_beta_hosts_under_straddle_noise():
    """A refinement of four blocks of 8 with one cell split 1:1 across a
    boundary: at beta = 1/4 that cell is beta-inside no block, and the rest
    keep their blocks as hosts."""
    p = P.VertexPartition.blocks(32, 4)
    cells = [range(0, 8), range(8, 15), [15, 16], range(17, 24), range(24, 32)]
    q = P.VertexPartition(32, [list(c) for c in cells])
    rep = P.refines_beta(q, p, Fraction(1, 4))
    assert rep.assignment == [0, 1, -1, 2, 3] and rep.mass_unassigned == 2 and rep.verdict
    # 2 unassigned vertices of 32 exceed beta n once beta < 1/16
    assert not P.refines_beta(q, p, Fraction(1, 17)).verdict and P.refines_beta(q, p, Fraction(1, 16)).verdict


def test_complete_kpartition_cells_are_whole_products_of_vertex_cells(layered_3):
    kp = layered_3
    assert len(kp.vertex) == 6 and kp.vertex.is_equitable() and kp.k == 2
    # one cell per pair of vertex cells (the cross family meets distinct
    # cells, not distinct classes), each cell their full product
    assert len(kp.layers[2]) == 15
    for ci, cell in enumerate(kp.layers[2]):
        a, b = kp.under(2, ci)
        want = sorted(tuple(sorted((int(u), int(v)))) for u in kp.vertex.cells[a] for v in kp.vertex.cells[b])
        assert [tuple(row) for row in cell.tolist()] == want
    depth3 = P.complete_kpartition(kp.classes, 2, 3)
    assert len(depth3.layers[3]) == 20 and sum(c.shape[0] for c in depth3.layers[3]) == 20 * 2 ** 3
    with pytest.raises(ValueError, match="split equally"):
        P.complete_kpartition(kp.classes, 3, 2)


def _pair_kpartition(layer2):
    cs = VertexClassSet([("V1", 2), ("V2", 2)])
    return P.KPartition(cs, P.VertexPartition(4, [[0, 1], [2, 3]]), layer2)


FULL_PAIRS = [[0, 2], [0, 3], [1, 2], [1, 3]]


@pytest.mark.parametrize("layers, match", [
    ({2: [np.array(FULL_PAIRS[:3]), np.empty((0, 2))]}, "empty layer cell"),
    ({2: [np.array([[2, 0], [0, 3], [1, 2], [1, 3]])]}, "must be sorted"),
    ({2: [np.array(FULL_PAIRS[:3])]}, "does not cover"),
    ({3: [np.array([[0, 1, 2]])]}, "contiguous"),
    ({1: [np.array([[0]])]}, "start at 2"),
], ids=["empty-cell", "unsorted-tuple", "uncovered", "gap-below", "arity-1"])
def test_kpartition_refuses_malformed_layers(layers, match):
    assert len(_pair_kpartition({2: [np.array(FULL_PAIRS)]}).layers[2]) == 1
    with pytest.raises(ValueError, match=match):
        _pair_kpartition(layers)


def test_kpartition_refuses_cells_across_polyads():
    # a layer-2 cell over two vertex-cell pairs, and a class set of another size
    cs = VertexClassSet([("V1", 2), ("V2", 2)])
    singles = P.VertexPartition.singletons(4)
    pairs = P.cross_k(singles, 2)
    crossing = pairs[(pairs[:, 0] < 2) & (pairs[:, 1] >= 2)]
    rest = pairs[~((pairs[:, 0] < 2) & (pairs[:, 1] >= 2))]
    with pytest.raises(ValueError, match="spans several vertex-cell pairs"):
        P.KPartition(cs, singles, {2: [crossing, rest]})
    with pytest.raises(ValueError, match="does not match the class set"):
        P.KPartition(cs, P.VertexPartition.singletons(5), {})
