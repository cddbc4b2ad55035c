import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from deltareg import _kernels
from deltareg import balanced as B
from deltareg.graphs import BipartiteGraph, VertexClass
from deltareg.partitions import VertexPartition

SEEDS = list(range(10))


def small_spec(alpha=Fraction(3, 4), beta=Fraction(1, 2)):
    return B.BalanceSpec(
        x_cells=VertexPartition.blocks(32, 2),
        y_cells=VertexPartition.blocks(16, 2),
        family=[np.arange(8), np.arange(8, 16)],
        alpha=alpha,
        beta=beta,
    )


def naive_verify(graph, spec):
    """From-scratch recount of all four conditions with plain loops."""
    nx, ny = spec.nx, spec.ny
    adj = np.zeros((nx, ny), dtype=bool)
    for u in range(nx):
        for v in graph.neighbors(u):
            adj[u, int(v)] = True
    # (i)
    for cell in spec.x_cells.cells:
        for y in range(ny):
            if adj[cell, y].sum() * 2 != len(cell):
                return False, "i"
    # (ii)
    for F in spec.family:
        limit = (Fraction(1, 2) + spec.beta) * len(F)
        for x1 in range(nx):
            for x2 in range(x1 + 1, nx):
                agree = sum(1 for y in F if adj[x1, y] == adj[x2, y])
                if agree > limit:
                    return False, "ii"
    # (iii)
    for cell in spec.x_cells.cells:
        lim = (1 + spec.alpha) * len(cell) / 4
        for F in spec.family:
            for i, y1 in enumerate(F):
                for y2 in F[i + 1 :]:
                    cod = int((adj[cell, y1] & adj[cell, y2]).sum())
                    if cod > lim:
                        return False, "iii"
    # (iv)
    for cell in spec.y_cells.cells:
        used = set()
        for y in cell:
            if y in used:
                continue
            comp = ~adj[:, y]
            mates = [z for z in cell if z != y and z not in used and np.array_equal(adj[:, z], comp)]
            if not mates:
                return False, "iv"
            used.add(y)
            used.add(mates[0])
    return True, None


@pytest.mark.parametrize("seed", SEEDS)
def test_sampler_forced_conditions_every_draw(seed):
    spec = small_spec()
    bg, tel = B.sample_balanced(spec, seed=seed)
    rep = B.verify_balanced(bg.graph, spec, conditions=("i", "iv"))
    assert rep.ok
    phi = bg.involution
    assert np.all(phi[phi] == np.arange(spec.ny))
    # phi maps each cell to itself and realizes complements
    yr = bg.y_rows()
    for cell in spec.y_cells.cells:
        for y in cell:
            assert phi[int(y)] in set(cell.tolist())
            comp = (~yr[int(y)]).copy()
            extra = spec.nx % 64
            if extra:
                comp[-1] &= np.uint64((1 << extra) - 1)
            assert np.array_equal(yr[int(phi[int(y)])], comp)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_verify_matches_naive_recount(seed):
    spec = small_spec(alpha=Fraction(1, 2), beta=Fraction(1, 4))
    try:
        bg, _ = B.sample_balanced(spec, seed=seed, max_retries=30)
        g = bg.graph
    except B.SamplerExhausted:
        # draw one unverified sample instead: recount must still agree
        bg, _ = B.sample_balanced(spec, seed=seed, max_retries=1, enforce=())
        g = bg.graph
    rep = B.verify_balanced(g, spec)
    ok, which = naive_verify(g, spec)
    assert rep.ok == ok, (rep.first_violation, which)


def test_verify_planted_degree_violation():
    spec = small_spec()
    bg, _ = B.sample_balanced(spec, seed=0)
    rows = bg.graph.transposed().rows.copy()
    rows[0, 0] ^= np.uint64(1)
    bad = BipartiteGraph(VertexClass("Y", spec.ny), VertexClass("X", spec.nx), rows).transposed()
    rep = B.verify_balanced(bad, spec)
    assert not rep.ok and rep.first_violation.startswith("equitable-degrees")


def test_degenerate_empty_family_immediate_success():
    spec = B.BalanceSpec(
        x_cells=VertexPartition.blocks(16, 1),
        y_cells=VertexPartition.blocks(8, 1),
        family=[],
        alpha=1,
        beta=1,
    )
    bg, tel = B.sample_balanced(spec, seed=5)
    assert tel["draws"] == 1
    rep = B.verify_balanced(bg.graph, spec)
    assert rep.ok


def test_spec_invariants_rejected():
    with pytest.raises(ValueError):
        B.BalanceSpec(VertexPartition.blocks(9, 3), VertexPartition.blocks(8, 2), [], 1, 1)  # odd X-cells
    with pytest.raises(ValueError):
        B.BalanceSpec(VertexPartition.blocks(8, 2), VertexPartition.blocks(9, 3), [], 1, 1)  # odd Y-cells
    with pytest.raises(ValueError):
        # family member not a union of Y-cells
        B.BalanceSpec(VertexPartition.blocks(8, 2), VertexPartition.blocks(8, 2), [np.arange(3)], 1, 1)


def one_six_fixture(seed, ny=4096):
    """A sampler draw on one X-cell wide enough to be 1/16-balanced whp."""
    spec = B.BalanceSpec(
        x_cells=VertexPartition.blocks(64, 1),
        y_cells=VertexPartition.blocks(ny, 1),
        family=[],
        alpha=1,
        beta=1,
    )
    bg, _ = B.sample_balanced(spec, seed=seed, enforce=())
    return bg.graph


def test_check_one_six_degenerate_lambda():
    g = one_six_fixture(0, ny=64)
    lam = [Fraction(1)] + [Fraction(0)] * 63
    rep = B.check_one_six(g, lam, require_balanced=False)
    assert rep["count"] == 64  # threshold 0: every vertex qualifies
    assert rep["count_ok"]


def test_check_one_six_uniform_on_balanced_sample():
    g = one_six_fixture(1)
    if not B.is_beta_balanced(g, Fraction(1, 16)):
        pytest.skip("sample missed the balance event")
    lam = [Fraction(1, 64)] * 64
    rep = B.check_one_six(g, lam)
    assert rep["count_ok"], (rep["count"], rep["bound"])


def test_check_one_six_two_point_lambda_matches_direct_recount():
    g = one_six_fixture(2, ny=64)
    lam = [Fraction(0)] * 64
    lam[3] = lam[40] = Fraction(1, 2)
    rep = B.check_one_six(g, lam, require_balanced=False)
    # direct evaluation: threshold is 1/16; qualifying y either separate the
    # two vertices or see both/neither with mass 1/2 on each side
    yrows = g.transposed().rows
    direct = []
    for y in range(64):
        nb = set(_kernels.unpack_row(yrows[y], 64).tolist())
        inside = sum(lam[i] for i in nb)
        if min(inside, 1 - inside) >= Fraction(1, 16):
            direct.append(y)
    assert rep["qualifying"] == direct


def test_check_one_six_rejects_bad_lambda():
    g = one_six_fixture(3, ny=64)
    with pytest.raises(ValueError):
        B.check_one_six(g, [Fraction(1, 2)] * 64, require_balanced=False)


def test_check_one_twelve_thresholds():
    # neighbor rows over a tiny left space; right vertices 0..3
    nx = 8
    rows = np.zeros((4, 1), dtype=np.uint64)
    rows[0, 0] = np.uint64(0b00001111)  # neighbors 0..3
    rows[1, 0] = np.uint64(0b11110000)
    rows[2, 0] = np.uint64(0b00111100)
    rows[3, 0] = np.uint64(0b11000011)
    lam = [Fraction(1, 8)] * 8
    rep = B.check_one_twelve(rows, nx, np.arange(4), lam, np.arange(4), level=1, right_total=8)
    # every row has mass 1/2 on each side: threshold1 = (1-1/8)/8 = 7/64;
    # inside-cell = clusters 0..3
    t1, t2 = rep["thresholds"]
    assert t1 == Fraction(7, 64)
    assert t2 == Fraction(1, 2) - Fraction(4, 8)
    assert rep["count"] == 4  # all qualify
    # lambda fully outside the cell: second threshold is 1/2 - 1/2 = 0
    lam2 = [Fraction(0)] * 4 + [Fraction(1, 4)] * 4
    rep2 = B.check_one_twelve(rows, nx, np.arange(4), lam2, np.arange(4), level=1, right_total=8)
    assert rep2["thresholds"][1] == Fraction(-1, 2)


def test_balanced_graph_serialization_self_contained():
    # verification needs nothing but the graph, as saved (gamma-*.bin), and
    # the cell spec
    from deltareg.graphs import bipartite_from_binary, bipartite_to_binary

    spec = small_spec()
    bg, _ = B.sample_balanced(spec, seed=6)
    back = bipartite_from_binary(bipartite_to_binary(bg.graph))
    assert back == bg.graph
    assert B.verify_balanced(back, spec).ok
    # restriction to (X, any Y-cell) is biregular with right-degree |X|/2
    y_rows = back.transposed().rows
    for cell in spec.y_cells.cells:
        yr = y_rows[cell]
        from deltareg import _kernels as K

        degs = K.popcount_rows(yr)
        assert np.all(degs * 2 == spec.nx)
        xdeg = np.zeros(spec.nx, dtype=np.int64)
        for y in cell:
            xdeg += np.unpackbits(y_rows[int(y)].view(np.uint8), bitorder="little")[: spec.nx]
        assert np.all(xdeg * 2 == len(cell))


def test_sampler_exhaustion_reports_failures():
    # an unattainable spec: tiny sides with a harsh codegree bound
    spec = B.BalanceSpec(
        x_cells=VertexPartition.blocks(8, 1),
        y_cells=VertexPartition.blocks(8, 1),
        family=[np.arange(8)],
        alpha=Fraction(0),
        beta=Fraction(0),
    )
    with pytest.raises(B.SamplerExhausted) as ei:
        B.sample_balanced(spec, seed=4, max_retries=6)
    assert sum(ei.value.failures.values()) == 6


def _interleaved_spec(alpha):
    # X-cells {x : x % 3 == r} are not contiguous; Y-cells of 4 and family
    # members that share a Y-cell, so their pairs overlap
    return B.BalanceSpec(
        x_cells=VertexPartition(96, [np.arange(r, 96, 3) for r in range(3)]),
        y_cells=VertexPartition.blocks(16, 4),
        family=[np.arange(0, 8), np.arange(4, 12), np.concatenate([np.arange(0, 4), np.arange(12, 16)])],
        alpha=alpha,
        beta=Fraction(1, 2),
    )


def _reference_stream_2(spec, seed):
    """Stream 2 drawn plainly: per Y-cell, one row of m uint32 keys per
    (y, X-cell) in that order; rounds that redraw every row whose sorted
    keys tie at m/2, in row order; then each row's m/2 least keys (a stable
    argsort) name its half of the X-cell, and the second half of the Y-cell
    is the complement.  Uses no partition, mask or column scatter."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    m = spec.m
    expected = np.zeros((spec.ny, spec.nx), dtype=bool)
    for cell in spec.y_cells.cells:
        half = len(cell) // 2
        slots = [(int(y), xc) for y in cell[:half] for xc in spec.x_cells.cells]
        keys = [rng.integers(1 << 32, size=m, dtype=np.uint32) for _ in slots]
        tied = [r for r in range(len(slots)) if np.sort(keys[r])[m // 2 - 1] == np.sort(keys[r])[m // 2]]
        while tied:
            for r in tied:
                keys[r] = rng.integers(1 << 32, size=m, dtype=np.uint32)
            tied = [r for r in tied if np.sort(keys[r])[m // 2 - 1] == np.sort(keys[r])[m // 2]]
        for (y, xc), k in zip(slots, keys):
            expected[y, xc[np.argsort(k, kind="stable")[: m // 2]]] = True
        expected[cell[half:]] = ~expected[cell[:half]]
    return expected


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_draw_on_scattered_x_cells_matches_the_plain_stream_2(seed):
    """On X-cells that are not runs of X the sampler scatters its slot
    columns to X ids; the draw equals the plain per-(y, X-cell) stream."""
    spec = _interleaved_spec(Fraction(3, 4))
    bg, _ = B.sample_balanced(spec, seed=seed, max_retries=1, enforce=())
    got = _kernels.unpack_rows(bg.y_rows(), spec.nx).astype(bool)
    assert np.array_equal(got, _reference_stream_2(spec, seed))


def test_each_first_half_row_is_an_exact_half_and_its_mirror_the_complement():
    spec = B.BalanceSpec(
        x_cells=VertexPartition.blocks(256, 4),
        y_cells=VertexPartition.blocks(24, 3),
        family=[],
        alpha=1,
        beta=1,
    )
    bg, _ = B.sample_balanced(spec, seed=11, enforce=())
    adj = _kernels.unpack_rows(bg.y_rows(), spec.nx).astype(bool)
    assert np.array_equal(adj, _reference_stream_2(spec, 11))
    for cell in spec.y_cells.cells:
        firsts, seconds = cell[: len(cell) // 2], cell[len(cell) // 2 :]
        for xc in spec.x_cells.cells:
            assert np.all(adj[np.ix_(firsts, xc)].sum(axis=1) == spec.m // 2)
        assert np.array_equal(adj[seconds], ~adj[firsts])
        assert np.array_equal(bg.involution[firsts], seconds)


def _binomial_bound(n, elements, inverse_p):
    """The least c such that, for Bin(n, 1/2), a count below c or above
    n - c has probability at most 1/(inverse_p * elements): summed exactly
    in integers."""
    tail, c = 0, 0
    while 2 * (tail + math.comb(n, c)) * inverse_p * elements <= 1 << n:
        tail += math.comb(n, c)
        c += 1
    return c


def test_every_element_is_picked_about_half_the_time():
    """Over 4096 first-half rows of one seed, each X id's pick count is a
    Bin(4096, 1/2) count: all 64 lie within the two-sided exact binomial
    bound of probability 1e-9 (union bound over the 64)."""
    spec = B.BalanceSpec(
        x_cells=VertexPartition.blocks(64, 4),
        y_cells=VertexPartition.blocks(8192, 4096),
        family=[],
        alpha=1,
        beta=1,
    )
    bg, _ = B.sample_balanced(spec, seed=3, enforce=())
    firsts = np.concatenate([cell[: len(cell) // 2] for cell in spec.y_cells.cells])
    counts = _kernels.unpack_rows(bg.y_rows()[firsts], spec.nx).sum(axis=0, dtype=np.int64)
    n = len(firsts)
    lo = _binomial_bound(n, spec.nx, 10**9)
    assert 1800 < lo < n // 2  # the bound is not vacuous
    assert counts.min() >= lo and counts.max() <= n - lo, (lo, counts.min(), counts.max())


class _ScriptedKeys:
    """A stand-in rng whose integers() hands out the given key blocks in
    turn, recording the shape of each request."""

    def __init__(self, blocks):
        self.blocks, self.sizes = list(blocks), []

    def integers(self, high, size, dtype):
        assert (high, dtype) == (1 << 32, np.uint32)
        self.sizes.append(size)
        block = np.asarray(self.blocks.pop(0), dtype=np.uint32)
        assert block.shape == size
        return block


def test_only_a_row_tied_at_the_cut_is_redrawn():
    """Row 1's second and third least keys are equal, so its cut splits no
    half: that row alone is redrawn (a (1, m) request), and the redrawn row
    then names the half.  Row 0's equal keys lie on one side of the cut
    each, which decides nothing."""
    first = [[9, 3, 7, 3, 1, 7], [5, 2, 5, 8, 0, 9], [4, 6, 2, 0, 1, 3]]
    rng = _ScriptedKeys([first, [[6, 1, 4, 2, 3, 5]]])
    bits = B._exact_halves(rng, 3, 6)
    assert rng.sizes == [(3, 6), (1, 6)]
    assert bits.tolist() == [
        [False, True, False, True, True, False],
        [False, True, False, True, True, False],
        [False, False, True, True, True, False],
    ]
    assert np.all(bits.sum(axis=1) == 3)


def test_a_row_that_ties_again_is_redrawn_until_it_does_not():
    rng = _ScriptedKeys([[[1, 1, 1, 1], [2, 0, 3, 1]], [[5, 5, 5, 0]], [[5, 5, 6, 0]], [[4, 3, 2, 1]]])
    bits = B._exact_halves(rng, 2, 4)
    assert rng.sizes == [(2, 4), (1, 4), (1, 4), (1, 4)]
    assert bits.tolist() == [[False, False, True, True], [False, True, False, True]]


def _recount(adj, spec, conditions):
    """The report of verify_balanced on conditions (i), (iii) and (iv),
    recounted plainly per (y, X-cell) from the Y-major bool matrix adj: the
    first violation in the order (i) by X-cell then y, (iii) by member then
    pair, (iv); None when all hold.  (iv) holds when every row of a Y-cell
    is as frequent in it as its complement."""
    cells = spec.x_cells.cells
    if "i" in conditions:
        for ci, cell in enumerate(cells):
            for y in range(spec.ny):
                if 2 * int(adj[y, cell].sum()) != spec.m:
                    return f"equitable-degrees: y={y} X-cell={ci}"
    if "iii" in conditions:
        limit = (1 + spec.alpha) * spec.m / 4
        for fi, F in enumerate(spec.family):
            for i, a in enumerate(F):
                for b in F[i + 1 :]:
                    if any(int((adj[a, cell] & adj[b, cell]).sum()) > limit for cell in cells):
                        return f"codegree: member={fi} y={a} y'={b}"
    if "iv" in conditions:
        for cell in spec.y_cells.cells:
            rows = [adj[int(y)].tobytes() for y in cell]
            if any(rows.count(r) != rows.count((~adj[int(y)]).tobytes()) for r, y in zip(rows, cell)):
                return "complement-closure"
    return None


def _graph(adj):
    """The bipartite graph on (X, Y) whose Y-major bool matrix is adj."""
    ny, nx = adj.shape
    return BipartiteGraph(VertexClass("Y", ny), VertexClass("X", nx), _kernels.pack_rows(adj)).transposed()


@pytest.mark.parametrize("aligned", [True, False])
@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(1)])
def test_deduplicated_codegree_check_reports_the_per_member_first_violation(aligned, alpha):
    if aligned:
        spec = B.BalanceSpec(
            x_cells=VertexPartition.blocks(128, 2),
            y_cells=VertexPartition.blocks(16, 4),
            family=_interleaved_spec(alpha).family,
            alpha=alpha,
            beta=Fraction(1, 2),
        )
    else:
        spec = _interleaved_spec(alpha)
    assert (spec.x_order is None) == aligned  # the rows are their own layout
    # at alpha 1/4 and 3/8 some draws fail first in a later member
    for seed in range(8):
        bg, _ = B.sample_balanced(spec, seed=seed, max_retries=1, enforce=())
        rep = B.verify_balanced(bg.graph, spec, ("iii",))
        adj = _kernels.unpack_rows(bg.y_rows(), spec.nx).astype(bool)
        assert rep.first_violation == _recount(adj, spec, ("iii",))
        assert rep.ok == (rep.first_violation is None)
        if alpha == 1:
            assert rep.ok  # degrees are m/2, so no codegree exceeds m/2


def test_codegree_bound_ignores_an_over_bound_pair_outside_every_member():
    """Aligned X-cells (two of 64), bound (1+0)/4 * 64 = 16.  Y-rows 4 and
    5 are equal and half full, so their codegree 32 in each cell is over
    the bound; rows 0..3 meet in no X-vertex.  The row sweep sees the pair
    (4, 5), but no member holds it, so (iii) holds; with a member on
    4..7 it is that member's first violation."""
    yrows = _kernels.zero_rows(8, 128)
    for y in range(4):
        _kernels.set_bits(yrows, y, np.r_[8 * y : 8 * y + 8, 64 + 8 * y : 64 + 8 * y + 8])
    _kernels.set_bits(yrows, 4, np.r_[0:32, 64:96])
    yrows[5] = yrows[4]
    graph = BipartiteGraph(VertexClass("Y", 8), VertexClass("X", 128), yrows).transposed()

    def spec(family):
        return B.BalanceSpec(VertexPartition.blocks(128, 2), VertexPartition.blocks(8, 4), family, Fraction(0), Fraction(1, 2))

    lone = spec([np.arange(4)])
    assert lone.cell_rows(yrows) is yrows  # word-aligned runs in order are their own layout
    (over, cells), = _kernels.and_popcount_over(yrows, [0, 1], [1, 2], 16)
    pairs = list(zip(*np.triu_indices(8, k=1)))
    assert [pairs[i] for i in over] == [(4, 5), (4, 5)] and cells.tolist() == [0, 1]
    assert B.verify_balanced(graph, lone, ("iii",)).ok
    rep = B.verify_balanced(graph, spec([np.arange(4), np.arange(4, 8)]), ("iii",))
    assert not rep.ok and rep.first_violation == "codegree: member=1 y=4 y'=5"


@pytest.mark.parametrize(
    "over, expected",
    [([(0, 2), (0, 4)], "member=0 y=0 y'=4"), ([(1, 3), (4, 5)], "member=0 y=4 y'=5")],
    ids=["first-hit-of-the-row-in-member-1-only", "member-1-before-member-0"],
)
def test_codegree_violation_is_the_first_member_s_first_pair(over, expected):
    """Two members, {0, 1, 4, 5} and {0, 1, 2, 3}, and two y-pairs over the
    bound 16 of (1+0)/4 * 64, each sharing 20 bits of the first X-cell:
    member 0's first over pair is reported even when a pair of member 1
    alone comes first in its row, or in an earlier row."""
    yrows = _kernels.zero_rows(8, 128)
    for j, (a, b) in enumerate(over):
        _kernels.set_bits(yrows, np.repeat([a, b], 20), np.tile(np.arange(20 * j, 20 * j + 20), 2))
    graph = BipartiteGraph(VertexClass("Y", 8), VertexClass("X", 128), yrows).transposed()
    members = [[0, 1, 4, 5], [0, 1, 2, 3]]
    spec = B.BalanceSpec(VertexPartition.blocks(128, 2), VertexPartition.blocks(8, 4), members, Fraction(0), Fraction(1, 2))
    assert B.verify_balanced(graph, spec, ("iii",)).first_violation == f"codegree: {expected}"


# (m, X-cells, scattered): word-aligned runs of one and two words, runs of
# fewer than 64 bits or of a word and a half, and cells {x : x % c == r}
LAYOUTS = [(64, 2, False), (128, 2, False), (2, 6, False), (4, 5, False), (16, 4, False), (96, 2, False), (16, 3, True), (64, 2, True)]


@settings(max_examples=120, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    alpha=st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(1)]),
    seed=st.integers(0, 2**16),
    plant=st.sampled_from([None, "i", "iii", "iv"]),
    where=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16)),
)
def test_conditions_i_iii_iv_match_a_per_cell_recount_on_every_layout(layout, alpha, seed, plant, where):
    """verify_balanced on (i), (iii) and (iv) reports what a plain recount
    per (y, X-cell) reports, on a sampled graph and on one with a planted
    failure: (i) one flipped bit; (iii) one member's y' given y's row, a
    codegree of m/2 in every cell, over the bound when alpha < 1; (iv) a
    first-half y given its mate's row, so that row outnumbers its
    complement in the Y-cell while every degree stays m/2."""
    m, c, scattered = layout
    nx = m * c
    x_cells = VertexPartition(nx, [np.arange(r, nx, c) for r in range(c)]) if scattered else VertexPartition.blocks(nx, c)
    spec = B.BalanceSpec(x_cells, VertexPartition.blocks(16, 4), _interleaved_spec(alpha).family, alpha, Fraction(1, 2))
    assert (spec.x_order is None) == (m % 64 == 0 and not scattered)
    bg, _ = B.sample_balanced(spec, seed=seed, max_retries=1, enforce=())
    adj = _kernels.unpack_rows(bg.y_rows(), nx).astype(bool)
    F = spec.family[where[0] % len(spec.family)]
    y, y2 = sorted(np.random.default_rng(where[1]).choice(F, 2, replace=False))
    if plant == "i":
        adj[y, where[2] % nx] ^= True
    elif plant == "iii":
        adj[y2] = adj[y]
    elif plant == "iv":
        first = int(spec.y_cells.cells[where[2] % 4][where[1] % 2])  # a first-half y of a Y-cell of 4
        adj[first] = adj[int(bg.involution[first])]
    graph = _graph(adj)
    for conditions in [("i", "iii", "iv")] + [(cond,) for cond in ("i", "iii", "iv")]:
        rep = B.verify_balanced(graph, spec, conditions)
        expected = _recount(adj, spec, conditions)
        assert rep.first_violation == expected and rep.ok == (expected is None)
        if conditions == ("iv",) and rep.ok:
            phi = rep.involution
            assert np.all(phi[phi] == np.arange(spec.ny)) and np.all(phi != np.arange(spec.ny))
            assert np.array_equal(adj[phi], ~adj)
    if plant is not None and (plant != "iii" or alpha < 1):
        assert not B.verify_balanced(graph, spec, (plant,)).ok


def _reference_family(family, y_cells):
    """The per-member family check: each member deduplicated by np.unique,
    one size, and each a union of the Y-cells it meets; "size" or "union"
    for the first check that fails."""
    fam = [np.unique(np.asarray(F, dtype=np.int64)) for F in family]
    if len({len(F) for F in fam}) > 1:
        return "size"
    for F in fam:
        if F.size and (F[0] < 0 or F[-1] >= y_cells.n):
            return "union"
        cells = {y_cells.cell_of(int(y)) for y in F}
        if sorted(v for c in cells for v in y_cells.cells[c].tolist()) != F.tolist():
            return "union"
    return [F.tolist() for F in fam]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scattered=st.booleans(),
    members=st.integers(0, 5),
    edit=st.sampled_from(["none", "shuffle", "repeat", "drop", "stray", "negative", "past-end", "unequal"]),
)
def test_family_check_matches_the_per_member_reference(seed, scattered, members, edit):
    """Members drawn as unions of two Y-cells of 2 (blocks or scattered
    cells), then one edit: shuffled or repeated ids keep the member valid;
    a dropped id, a stray id of another cell, an id below 0 or past the end,
    or one member of another size does not."""
    rng = np.random.default_rng(seed)
    ny = 12
    order = rng.permutation(ny) if scattered else np.arange(ny)
    y_cells = VertexPartition(ny, [np.sort(order[i : i + 2]) for i in range(0, ny, 2)])
    family = [np.concatenate([y_cells.cells[c] for c in rng.choice(len(y_cells), 2, replace=False)]) for _ in range(members)]
    if family and edit != "none":
        F = family[rng.integers(len(family))]
        others = np.setdiff1d(np.arange(ny), F)
        F = {
            "shuffle": rng.permutation(F),
            "repeat": np.append(F, F[0]),
            "drop": F[1:],
            "stray": np.append(F[1:], others[0]),
            "negative": np.append(F[1:], -1),
            "past-end": np.append(F[1:], ny),
            "unequal": np.concatenate([F, y_cells.cells[y_cells.cell_of(int(others[0]))]]),
        }[edit]
        family[0] = F
    expected = _reference_family(family, y_cells)
    spec = lambda: B.BalanceSpec(VertexPartition.blocks(4, 1), y_cells, family, 1, 1)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match="share one size" if expected == "size" else "unions of Y-cells"):
            spec()
    else:
        got = spec()
        assert [F.tolist() for F in got.family] == expected
        assert all(F.dtype == np.int64 for F in got.family)
        assert got.k == (len(expected[0]) if expected else 0)


@settings(max_examples=80, deadline=None)
@given(
    nx=st.sampled_from([2, 3, 8, 63, 65, 70]),
    y_pairs=st.integers(1, 40),
    members=st.integers(1, 3),
    beta=st.sampled_from([Fraction(-1, 8), Fraction(0), Fraction(1, 16), Fraction(1, 4), Fraction(3, 8)]),
    density=st.sampled_from([0.1, 0.5, 0.9]),
    seed=st.integers(0, 2**16),
)
def test_agreement_bound_matches_the_per_pair_recount(nx, y_pairs, members, beta, density, seed):
    """Condition (ii) and is_beta_balanced against a per-pair recount on
    random graphs: Y-cells of two, members that are random unions of them,
    rows of one word, more than a word or of many words, so that each
    member's rows of 2|F| bits end inside a word or on a word boundary.
    (ii) reports the first pair over the bound in member order, then pair
    order."""
    rng = np.random.default_rng(seed)
    ny = 2 * y_pairs
    adj = rng.random((nx, ny)) < density
    g = BipartiteGraph(VertexClass("X", nx), VertexClass("Y", ny), _kernels.pack_rows(adj))
    size = int(rng.integers(1, y_pairs + 1))
    family = [np.sort(np.concatenate([[2 * c, 2 * c + 1] for c in rng.choice(y_pairs, size, replace=False)])) for _ in range(members)]
    spec = None  # X-cells must have an even size
    if nx % 2 == 0:
        spec = B.BalanceSpec(VertexPartition.blocks(nx, 1), VertexPartition.blocks(ny, y_pairs), family, Fraction(1), beta)

    def first_over(F):
        limit = (Fraction(1, 2) + beta) * len(F)
        for x1 in range(nx):
            for x2 in range(x1 + 1, nx):
                if np.count_nonzero(adj[x1, F] == adj[x2, F]) > limit:
                    return x1, x2
        return None

    assert B.is_beta_balanced(g, beta) == (first_over(np.arange(ny)) is None)
    if spec is None:
        return
    expected = next((f"agreement: member={fi} x={p[0]} x'={p[1]}" for fi, F in enumerate(family) if (p := first_over(F))), None)
    rep = B.verify_balanced(g, spec, ("ii",))
    assert rep.first_violation == expected and rep.ok == (expected is None)


@pytest.mark.parametrize("beta, planted", [(Fraction(1, 4), False), (Fraction(1, 4), True), (Fraction(0), False)])
def test_agreement_checks_hold_no_pair_list(beta, planted):
    """At nx = 4096 the list of every X-pair alone is 134 MB of int64;
    condition (ii) on two members of 256 Y-vertices and is_beta_balanced
    over all 512 decide with a peak under 32 MB.  Random rows agree on
    about half of a member: far below the bound 192 of 256 at beta 1/4,
    where a planted copy of row 1 in row 4095 is the first violation, and
    over the bound 128 for about half of the pairs at beta 0, where the
    first violation is row 0's first partner over it."""
    import tracemalloc

    rng = np.random.default_rng(4)
    bits = rng.random((4096, 512)) < 0.5
    if planted:
        bits[4095] = bits[1]
    g = BipartiteGraph(VertexClass("X", 4096), VertexClass("Y", 512), _kernels.pack_rows(bits))
    spec = B.BalanceSpec(
        VertexPartition.blocks(4096, 64), VertexPartition.blocks(512, 256), [np.arange(256), np.arange(256, 512)], Fraction(0), beta
    )
    g.transposed()
    tracemalloc.start()
    try:
        rep = B.verify_balanced(g, spec, ("ii",))
        balanced = B.is_beta_balanced(g, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, f"peak {peak / 2**20:.1f} MB"
    if beta:
        assert rep.first_violation == ("agreement: member=0 x=1 x'=4095" if planted else None)
        assert balanced is not planted
    else:
        partner = 1 + int(np.flatnonzero((bits[1:, :256] == bits[0, :256]).sum(axis=1) > 128)[0])
        assert rep.first_violation == f"agreement: member=0 x=0 x'={partner}" and not balanced
