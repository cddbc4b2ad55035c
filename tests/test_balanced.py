import numpy as np
import pytest
from fractions import Fraction

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
    spec = small_spec()
    bg, _ = B.sample_balanced(spec, seed=6)
    text = bg.to_text()
    back = B.balanced_from_text(text, spec)
    assert np.array_equal(back.graph.rows, bg.graph.rows)
    assert np.array_equal(back.involution, bg.involution)
    # verification runs on the serialized form alone
    assert B.verify_balanced(back.graph, spec).ok
    # restriction to (X, any Y-cell) is biregular with right-degree |X|/2
    for cell in spec.y_cells.cells:
        yr = back.y_rows()[cell]
        from deltareg import _kernels as K

        degs = K.popcount_rows(yr)
        assert np.all(degs * 2 == spec.nx)
        xdeg = np.zeros(spec.nx, dtype=np.int64)
        for y in cell:
            xdeg += np.unpackbits(back.y_rows()[int(y)].view(np.uint8), bitorder="little")[: spec.nx]
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


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_batched_draw_matches_per_cell_permutation_loop(seed):
    """One rng.permuted per Y-cell yields the rows of one rng.permutation per
    (y, X-cell), so the seed stream is that of the per-cell loop."""
    spec = _interleaved_spec(Fraction(3, 4))
    bg, _ = B.sample_balanced(spec, seed=seed, max_retries=1, enforce=())
    rng = np.random.default_rng(np.random.PCG64(seed))
    expected = np.zeros((spec.ny, spec.nx), dtype=bool)
    for cell in spec.y_cells.cells:
        half = len(cell) // 2
        for y in cell[:half]:
            for xc in spec.x_cells.cells:
                expected[y, rng.permutation(xc)[: len(xc) // 2]] = True
        expected[cell[half:]] = ~expected[cell[:half]]
    got = np.unpackbits(bg.y_rows().view(np.uint8), axis=1, bitorder="little")[:, : spec.nx]
    assert np.array_equal(got, expected)


def _first_codegree_violation_per_member(graph, spec, aligned):
    """Plain recount of (iii) in the order members, cells, pairs."""
    adj = np.unpackbits(graph.transposed().rows.view(np.uint8), axis=1, bitorder="little")[:, : spec.nx].astype(bool)
    limit = (1 + spec.alpha) * spec.m / 4
    for fi, F in enumerate(spec.family):
        pairs = [(int(a), int(b)) for i, a in enumerate(F) for b in F[i + 1 :]]
        if aligned:
            for a, b in pairs:
                if any((adj[a, cell] & adj[b, cell]).sum() > limit for cell in spec.x_cells.cells):
                    return f"member={fi} y={a} y'={b}"
        else:
            for ci, cell in enumerate(spec.x_cells.cells):
                for a, b in pairs:
                    if (adj[a, cell] & adj[b, cell]).sum() > limit:
                        return f"member={fi} X-cell={ci} y={a} y'={b}"
    return None


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
    assert B._cell_segments(spec.x_cells)[2] == aligned
    # at alpha 1/4 and 3/8 some draws fail first in a later member or cell
    for seed in range(8):
        bg, _ = B.sample_balanced(spec, seed=seed, max_retries=1, enforce=())
        got = B._codegree_violation(bg.y_rows(), spec)
        assert got == _first_codegree_violation_per_member(bg.graph, spec, aligned)
        if alpha == 1:
            assert got is None  # degrees are m/2, so no codegree exceeds m/2
