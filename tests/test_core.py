import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from deltareg import core as C
from deltareg.graphs import BipartiteGraph, VertexClass, edges_between, unpack_row
from deltareg.partitions import VertexPartition


@pytest.fixture(scope="module")
def small_seq():
    prof = C.GrowthProfile(
        s=2, r_sizes=[8, 32], l_sizes=[16, 256], blowup_left=2, blowup_right=2,
        alpha=Fraction(3, 4), beta=Fraction(1, 2),
    )
    return C.build_core_sequence(prof, seed=11)


def test_profile_validation():
    with pytest.raises(ValueError):
        C.GrowthProfile(s=1, r_sizes=[6], l_sizes=[8])  # not a power of 2
    with pytest.raises(ValueError):
        C.GrowthProfile(s=2, r_sizes=[8, 8], l_sizes=[16, 32])  # right fails to double
    with pytest.raises(ValueError):
        C.GrowthProfile(s=1, r_sizes=[8], l_sizes=[32])  # 32 != 2^(8/e) for integer e
    with pytest.raises(ValueError, match="quadruple"):
        C.GrowthProfile(s=2, r_sizes=[8, 16], l_sizes=[16, 256], strict_mode=True)
    with pytest.raises(ValueError, match="divisor schedule"):
        C.GrowthProfile(s=1, r_sizes=[8], l_sizes=[16], strict_mode=True)
    with pytest.raises(ValueError, match="astronomically"):
        big = 1 << 20
        C.GrowthProfile(s=1, r_sizes=[big << 11], l_sizes=[1 << big], strict_mode=True)


def test_level0_quotient_is_single_edge(small_seq):
    q0 = small_seq.members[0][0].quotient
    assert (q0.left.size, q0.right.size, q0.edge_count()) == (1, 1, 1)


def test_structure_invariants(small_seq):
    rep = C.verify_structure(small_seq)
    assert rep["ok"], rep["failures"][:5]


def test_member_density_dyadic(small_seq):
    for j in (1, 2):
        for idx in range(1 << j):
            g = small_seq.member_graph(j, idx)
            assert g.edge_count() * (1 << j) == small_seq.n_left * small_seq.n_right


def test_neighbor_family_matches_adjacency_scan(small_seq):
    # membership equals a brute-force scan of the parent quotient adjacency
    for i, member in [(1, 0), (2, 0), (2, 1)]:
        parentq = small_seq.members[i - 1][member].quotient
        rp = small_seq.right_parts(i) if True else None
        for L in range(parentq.left.size):
            fam = C.neighbor_family(small_seq, i, L, member=member)
            expected = set()
            for R in unpack_row(parentq.rows[L], parentq.right.size):
                for rc in np.flatnonzero(small_seq.rparent[i - 1] == int(R)):
                    expected.add(int(rc))
            assert set(fam.members.tolist()) == expected
            assert fam.cardinality() == small_seq.profile.r_sizes[i - 1] >> (i - 1)


def test_neighbor_family_level1_is_everything(small_seq):
    fam = C.neighbor_family(small_seq, 1, 0)
    assert fam.cardinality() == small_seq.profile.r_sizes[0]


def test_core_properties_all_members(small_seq):
    for i in (1, 2):
        for m in range(1 << i):
            rep = C.verify_core_properties(small_seq, i, member=m)
            assert rep["ok"], (i, m, rep["failures"][:4])


def test_core_properties_vacuous_single_family_member(small_seq):
    rep = C.verify_core_properties(small_seq, 1, left_cluster=0, member=0)
    assert rep["ok"]


def test_planted_corruption_located():
    prof = C.GrowthProfile(s=2, r_sizes=[8, 32], l_sizes=[16, 256], alpha=Fraction(3, 4), beta=Fraction(1, 2))
    seq = C.build_core_sequence(prof, seed=2)
    q = seq.members[2][1].quotient
    rows = q.rows.copy()
    rows[5, 0] ^= np.uint64(1)
    seq.members[2][1].quotient = BipartiteGraph(q.left, q.right, rows)
    seq._materialized.clear()
    rep = C.verify_core_properties(seq, 2, member=1)
    assert not rep["item1"]
    assert rep["failures"]


def test_degree_property(small_seq):
    # every vertex of a level-i block cluster has degree 2^(i-ell) |R| into R
    q1 = small_seq.members[1][0].quotient
    L = 0
    R = int(q1.neighbors(0)[0])
    rep = C.verify_degree_property(small_seq, 2, 1, L, R, member=0)
    assert rep["ok"]
    # i = ell: full-degree within the block
    q2 = small_seq.members[2][0].quotient
    L2 = 0
    nbrs = q2.neighbors(0)
    rep2 = C.verify_degree_property(small_seq, 2, 2, L2, int(nbrs[0]), member=0)
    assert rep2["ok"]
    with pytest.raises(ValueError):
        missing = next(r for r in range(q2.right.size) if not q2.has_edge(0, r))
        C.verify_degree_property(small_seq, 2, 2, 0, missing, member=0)


def test_quasirandomness_on_complete_block_blowup():
    # a blowup of one complete block: codegrees all hit the forced values
    prof = C.GrowthProfile(s=1, r_sizes=[8], l_sizes=[16], blowup_left=4, blowup_right=4, alpha=1, beta=Fraction(1, 2))
    seq = C.build_core_sequence(prof, seed=3)
    rep = C.verify_quasirandomness(seq, 1, member=0)
    # level-1 member: quotient is balanced with exact half-degrees, so
    # same-cluster codegree is deg = |L|/2 scaled; alpha_hat is exact
    assert isinstance(rep["alpha_hat"], Fraction)
    assert rep["alpha_hat"] >= 0
    g = seq.member_graph(1, 0)
    # recount the worst codegree excess directly at vertex level
    t = g.transposed()
    p = Fraction(1, 2)
    base = p * p * seq.n_left
    worst = Fraction(0)
    for v in range(seq.n_right):
        excess = Fraction(0)
        for w in range(seq.n_right):
            cd = len(set(t.neighbors(v).tolist()) & set(t.neighbors(w).tolist()))
            if cd > base:
                excess += cd - base
        worst = max(worst, excess)
    assert rep["alpha_hat"] == worst / (p * p * seq.n_left * seq.n_right)


def test_witnesses_and_one_twelve_cross_check(small_seq):
    seq = small_seq
    # adversarial subset: union of two level-2 clusters inside one level-1 cluster
    lp2 = seq.left_parts(2)
    host_clusters = np.flatnonzero(seq.lparent[1] == 0)
    P = np.concatenate([lp2.cells[host_clusters[0]], lp2.cells[host_clusters[1]]])
    gamma = Fraction(1, 4)
    wits = C.find_irregularity_witnesses(seq, 2, 0, 2, P, gamma, require_count=False)
    lam = [Fraction(0)] * seq.profile.l_sizes[1]
    lam[int(host_clusters[0])] = Fraction(1, 2)
    lam[int(host_clusters[1])] = Fraction(1, 2)
    rep = C.one_twelve_context(seq, 2, 0, 2, 0, lam)
    assert rep["count"] == len(wits)
    g = seq.member_graph(2, 0)
    for w in wits:
        assert edges_between(g, w.p1_vertices, w.r_vertices) == 0
        d = Fraction(w.d_pr_num, len(P) * len(w.r_vertices))
        assert d >= Fraction(1, 4) * (1 << 2) * Fraction(1, 4)
        assert 8 * len(w.p1_vertices) >= gamma * len(P)


def test_witness_preconditions(small_seq):
    seq = small_seq
    # a single level-2 cluster is gamma-inside its own cluster: rejected
    P = seq.left_parts(2).cells[0]
    with pytest.raises(ValueError):
        C.find_irregularity_witnesses(seq, 2, 0, 2, P, Fraction(1, 4))
    # a subset spread over two level-1 clusters is not 1/4-inside any
    bad = np.concatenate([seq.left_parts(1).cells[0], seq.left_parts(1).cells[1]])
    with pytest.raises(ValueError):
        C.find_irregularity_witnesses(seq, 2, 0, 2, bad, Fraction(1, 4))


def test_full_cell_witness_count_deterministic(small_seq):
    seq = small_seq
    # the whole level-1 cluster: both mass inequalities hold for every
    # neighbor-family cluster by the exact half-degree structure
    P = seq.left_parts(1).cells[0]
    wits = C.find_irregularity_witnesses(seq, 2, 0, 2, P, Fraction(1, 4))
    fam = C.neighbor_family(seq, 2, 0, member=0)
    assert len(wits) == fam.cardinality()


def test_refutation_certificate_round_trip(small_seq):
    seq = small_seq
    Pp = seq.left_parts(1)
    Qq = seq.right_parts(2)
    delta = Fraction(1, 1 << 14)
    cert = C.refute_partition(seq, 2, 0, Pp, Qq, delta, 2, gamma=Fraction(1, 4))
    assert cert.refutes
    g = seq.member_graph(2, 0)
    text = cert.to_text()
    cert2 = C.IrregularityCertificate.from_text(text)
    rep = C.reverify_certificate(cert2, g)
    assert rep["ok"] and rep["refutes"]
    assert rep["lines_checked"] == sum(len(e.lines) for e in cert.entries)


def test_refutation_precondition_failures(small_seq):
    seq = small_seq
    delta = Fraction(1, 1 << 14)
    with pytest.raises(ValueError):
        # P already refines level 2: nothing to refute
        C.refute_partition(seq, 2, 0, seq.left_parts(2), seq.right_parts(2), delta, 2, gamma=Fraction(1, 4))
    with pytest.raises(ValueError):
        # right partition does not refine the level-2 clusters
        C.refute_partition(seq, 2, 0, seq.left_parts(1), VertexPartition(seq.n_right, [range(seq.n_right)]), delta, 2, gamma=Fraction(1, 4))
    with pytest.raises(ValueError):
        # delta too large for gamma
        C.refute_partition(seq, 2, 0, seq.left_parts(1), seq.right_parts(2), Fraction(1, 4), 2, gamma=Fraction(1, 4))


def test_refutation_zero_delta_degenerate(small_seq):
    seq = small_seq
    cert = C.refute_partition(seq, 2, 0, seq.left_parts(1), seq.right_parts(2), Fraction(0), 2, gamma=Fraction(1, 4))
    assert cert.budget == 0
    assert cert.refutes  # any nonzero total refutes a zero budget


def test_refutation_honest_failure_report(small_seq):
    # a budget the ledger cannot beat: verdict stays honest
    seq = small_seq
    delta = Fraction(1, 1 << 14)
    cert = C.refute_partition(seq, 2, 0, seq.left_parts(1), seq.right_parts(2), delta, 2, gamma=Fraction(1, 4))
    # synthetic: scale the budget beyond the total and re-check the verdict flag
    cert.budget = cert.total + 1
    assert not cert.refutes


def test_tampered_certificate_fails(small_seq):
    seq = small_seq
    cert = C.refute_partition(
        seq, 2, 0, seq.left_parts(1), seq.right_parts(2), Fraction(1, 1 << 14), 2, gamma=Fraction(1, 4)
    )
    g = seq.member_graph(2, 0)
    text = cert.to_text()
    lines = text.split("\n")
    li = next(i for i, ln in enumerate(lines) if ln.startswith("line "))
    # tamper the correction field
    lines[li] = lines[li].replace("corr=0", "corr=1") if "corr=0" in lines[li] else lines[li].replace("corr=", "corr=9")
    bad = C.IrregularityCertificate.from_text("\n".join(lines))
    rep = C.reverify_certificate(bad, g)
    assert not rep["ok"]
    # graph mismatch is detected
    other = BipartiteGraph.complete(VertexClass("L", seq.n_left), VertexClass("R", seq.n_right))
    rep2 = C.reverify_certificate(cert, other)
    assert not rep2["ok"] and rep2["failures"][0][0] == "graph-hash"


def test_save_load_round_trip(tmp_path, small_seq):
    d = str(tmp_path / "seq")
    C.save_core_sequence(small_seq, d)
    seq2 = C.load_core_sequence(d)
    for j in (1, 2):
        for idx in range(1 << j):
            assert np.array_equal(
                seq2.members[j][idx].quotient.rows, small_seq.members[j][idx].quotient.rows
            )
    assert C.verify_structure(seq2)["ok"]


def test_build_determinism():
    prof = C.GrowthProfile(s=2, r_sizes=[8, 32], l_sizes=[16, 256], alpha=Fraction(3, 4), beta=Fraction(1, 2))
    a = C.build_core_sequence(prof, seed=42)
    b = C.build_core_sequence(prof, seed=42)
    for j in (1, 2):
        for idx in range(1 << j):
            assert np.array_equal(a.members[j][idx].quotient.rows, b.members[j][idx].quotient.rows)


def test_ranges_codec():
    arr = np.array([0, 1, 2, 5, 7, 8, 9, 64], dtype=np.int64)
    s = C._ranges_encode(arr)
    assert np.array_equal(C._ranges_decode(s), arr)
    assert C._ranges_decode("-").size == 0


# -- exact integer root ------------------------------------------------------


def test_iroot_floor_huge_and_far_from_float():
    # 2**2000 overflows a float; 3**140 is far from its float root
    for r in (2, 3, 6):
        f = C._iroot_floor(2**2000, r)
        assert f**r <= 2**2000 < (f + 1) ** r
    assert C._iroot_floor(3**140, 2) == 3**70
    assert C.iroot_ceil(3**140 + 1, 2) == 3**70 + 1
    assert C.dyadic_root_ceil(Fraction(1, 2**2000), 2, 40) == Fraction(1, 1 << 40)


def test_dyadic_root_ceil_pinned_values():
    assert C.dyadic_root_ceil(Fraction(0), 2, 40) == 0
    assert C.dyadic_root_ceil(Fraction(1, 2), 2, 40) == Fraction(388736063997, 1 << 39)
    assert C.dyadic_root_ceil(Fraction(1, 2), 6, 20) == Fraction(29193, 1 << 15)
    assert C.dyadic_root_ceil(Fraction(1, 64), 6, 20) == Fraction(1, 2)
    with pytest.raises(ValueError):
        C.dyadic_root_ceil(Fraction(-1, 4), 2, 40)


def test_two_sqrt_pinned_values():
    from deltareg.epsreg import _two_sqrt

    assert _two_sqrt(Fraction(1, 9)) == Fraction(2, 3)  # rational squares are exact
    assert _two_sqrt(Fraction(1, 4)) == 1
    assert _two_sqrt(Fraction(1, 2)) == Fraction(759250125, 1 << 29)  # 2 * ceil(2^30 / sqrt 2) / 2^30
    assert _two_sqrt(Fraction(1, 2**2000)) == Fraction(1, 1 << 999)
    assert _two_sqrt(Fraction(0)) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**3000), st.integers(1, 12))
def test_iroot_floor_brackets_the_root(n, r):
    f = C._iroot_floor(n, r)
    assert f**r <= n < (f + 1) ** r
    c = C.iroot_ceil(n, r)
    assert (c - 1) ** r < n <= c**r


# -- range codec ---------------------------------------------------------------


def _runs(draw_runs):
    ids = set()
    for start, length in draw_runs:
        ids.update(range(start, start + length))
    return np.array(sorted(ids), dtype=np.int64)


_id_sets = st.one_of(
    st.lists(st.integers(0, 10**12), max_size=30).map(lambda v: np.array(v, dtype=np.int64)),  # scattered, unsorted, repeats
    st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 300)), max_size=6).map(_runs),  # long runs
    st.integers(0, 10**15).map(lambda v: np.array([v], dtype=np.int64)),  # singletons
    st.just(np.empty(0, dtype=np.int64)),
)


def _reference_ranges_encode(arr):
    """The per-id loop: maximal runs of consecutive ids, '-' when empty."""
    runs = []
    for v in np.unique(arr).tolist():
        if runs and v == runs[-1][1] + 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return ",".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs) or "-"


@settings(max_examples=200, deadline=None)
@given(st.lists(_id_sets, max_size=8))
def test_ranges_codec_round_trip(sets):
    texts = C._ranges_encode_many(sets)
    assert texts == [_reference_ranges_encode(s) for s in sets]
    assert texts == [C._ranges_encode(s) for s in sets]
    for s, text, back in zip(sets, texts, C._ranges_decode_many(texts)):
        assert np.array_equal(back, np.unique(s))
        assert np.array_equal(C._ranges_decode(text), back)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789,- x", max_size=24))
def test_ranges_decode_accepts_only_increasing_id_lists(text):
    try:
        ids = C._ranges_decode(text)
    except ValueError:
        return
    assert ids.dtype == np.int64 and np.all(ids >= 0) and np.all(np.diff(ids) > 0)
    assert text == "-" or C._ranges_decode(C._ranges_encode(ids)).tolist() == ids.tolist()


# -- certificate re-check: one tamper per failure kind -------------------------


def _small_cert(seq):
    return C.refute_partition(seq, 2, 0, seq.left_parts(1), seq.right_parts(2), Fraction(1, 1 << 14), 2, gamma=Fraction(1, 4))


def _reseal(cert, g, k, j):
    """Recount line j of entry k with edges_between and fix the total, so
    that a tamper of its sets breaks only the check it aims at."""
    e, ln = cert.entries[k], cert.entries[k].lines[j]
    q = VertexPartition(cert.n_right, cert.q_cells)
    rstar = C._rstar_mask(q, VertexPartition(cert.n_right, cert.r_level_cells[e.level]), cert.host_c, cert.n_right)
    corr = edges_between(g, e.p_vertices, ln.r_vertices[~rstar[ln.r_vertices]])
    p = Fraction(1, 1 << cert.ell)
    value = max(Fraction(0), cert.gamma_prime * (Fraction(1, 4) * (1 << e.level) * p * e.p_vertices.size * ln.r_vertices.size - corr))
    cert.total += value - ln.value
    ln.correction, ln.value = corr, value


def _first_vertex(g, candidates, R, edges):
    return next(int(v) for v in candidates if (edges_between(g, [v], R) > 0) == edges)


def _tamper_entry_overlap(cert, g):
    e = cert.entries[0]
    cert.entries.append(C.CertEntry(p_vertices=e.p_vertices, level=e.level, lines=[]))
    return ("entry-overlap", len(cert.entries) - 1)


def _tamper_r_reused(cert, g):
    lines = cert.entries[0].lines
    lines.insert(1, C.LedgerLine(**vars(lines[0])))
    cert.total += lines[0].value
    return ("line", 0, int(lines[0].r_vertices[0]))


def _tamper_p1_too_small(cert, g):
    ln = cert.entries[0].lines[0]
    ln.p1_vertices = ln.p1_vertices[:0]
    return ("line", 0, int(ln.r_vertices[0]))


def _tamper_p1_outside_p(cert, g):
    ln = cert.entries[0].lines[0]
    v = _first_vertex(g, cert.entries[1].p_vertices, ln.r_vertices, edges=False)
    ln.p1_vertices = np.sort(np.append(ln.p1_vertices, v))
    return ("line", 0, int(ln.r_vertices[0]))


def _tamper_p1_has_edges(cert, g):
    e, ln = cert.entries[0], cert.entries[0].lines[0]
    u = _first_vertex(g, np.setdiff1d(e.p_vertices, ln.p1_vertices), ln.r_vertices, edges=True)
    ln.p1_vertices = np.sort(np.append(ln.p1_vertices, u))
    return ("line", 0, int(ln.r_vertices[0]))


def _tamper_density_floor(cert, g):
    # a cluster P sends no edges to: P itself is an edge-free P1 there
    e, ln = cert.entries[0], cert.entries[0].lines[0]
    used = {int(x.r_vertices[0]) for x in e.lines}
    ln.r_vertices = next(
        c for c in cert.r_level_cells[e.level] if int(c[0]) not in used and edges_between(g, e.p_vertices, c) == 0
    )
    ln.p1_vertices = e.p_vertices
    _reseal(cert, g, 0, 0)
    return ("line", 0, int(ln.r_vertices[0]))


def _tamper_corr(cert, g):
    ln = cert.entries[0].lines[0]
    ln.correction += 1
    return ("line", 0, int(ln.r_vertices[0]))


def _tamper_value(cert, g):
    ln = cert.entries[0].lines[0]
    ln.value += 1  # the total stays the sum of the recounted values
    return ("line", 0, int(ln.r_vertices[0]))


def _tamper_total(cert, g):
    cert.total += Fraction(1, 3)
    return ("total", None)


def _tamper_budget(cert, g):
    cert.budget -= 1
    return ("budget", None)


def _tamper_parameters(cert, g):
    # delta above (gamma/32)^2, with the budget that delta gives
    cert.delta = Fraction(1, 64)
    cert.budget = cert.delta * g.edge_count()
    return ("parameters", None)


def _tamper_gamma_prime(cert, g):
    cert.gamma_prime = cert.gamma / 16
    for k, e in enumerate(cert.entries):
        for j in range(len(e.lines)):
            _reseal(cert, g, k, j)
    return ("gamma-prime", None)


@pytest.mark.parametrize(
    "tamper",
    [
        _tamper_entry_overlap,
        _tamper_r_reused,
        _tamper_p1_too_small,
        _tamper_p1_outside_p,
        _tamper_p1_has_edges,
        _tamper_density_floor,
        _tamper_corr,
        _tamper_value,
        _tamper_total,
        _tamper_budget,
        _tamper_parameters,
        _tamper_gamma_prime,
    ],
)
def test_reverify_reports_each_tamper(small_seq, tamper):
    g = small_seq.member_graph(2, 0)
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    assert C.reverify_certificate(cert, g)["ok"]
    expected = tamper(cert, g)
    rep = C.reverify_certificate(cert, g)
    assert not rep["ok"]
    assert rep["failures"] == [expected]


def test_reverify_does_not_repeat_a_faulty_rstar_mask(small_seq, monkeypatch):
    """The re-check rebuilds R* on its own, so an R* mask that drops one
    qualifying Q-cell in the refuter gives corrections it rejects."""
    real = C._rstar_mask

    def drops_one_cell(Q, rparts, c, n_right):
        mask = real(Q, rparts, c, n_right)
        mask[next(cell for cell in Q.cells if mask[cell].any())] = False
        return mask

    monkeypatch.setattr(C, "_rstar_mask", drops_one_cell)
    g = small_seq.member_graph(2, 0)
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    rep = C.reverify_certificate(cert, g)
    assert not rep["ok"]
    assert any(kind == "line" for kind, *_ in rep["failures"])


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1, 3)])
def test_reverify_rstar_agrees_with_the_refuter_on_partly_outside_cells(small_seq, c):
    """Q-cells that stick out of their host cluster by one vertex in three,
    inside at c = 1/2 and not at c = 1/3: the re-check's own R* must give
    the corrections _rstar_mask gives."""
    g = small_seq.member_graph(2, 0)
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    q = cert.q_cells
    cells = []
    for a, b in zip(q[0::2], q[1::2]):  # A plus one vertex of B, then the rest of B
        cells += [np.sort(np.append(a, b[0])), b[1:]]
    cert.q_cells, cert.host_c = [cell for cell in cells if cell.size], c
    before = [ln.correction for e in cert.entries for ln in e.lines]
    for k, e in enumerate(cert.entries):
        for j in range(len(e.lines)):
            _reseal(cert, g, k, j)
    assert [ln.correction for e in cert.entries for ln in e.lines] != before
    rep = C.reverify_certificate(cert, g)
    assert [f for f in rep["failures"] if f[0] in ("line", "total")] == []


def test_reverify_rejects_a_certificate_under_another_host_c(small_seq, tmp_path):
    """A larger c puts more of Q inside R* and lowers the corrections; a
    certificate re-sealed under c = 1/2 agrees with itself line by line, yet
    is rejected by the re-check and by ``verify --suite certificate``."""
    from deltareg.cli import main
    from deltareg.graphs import bipartite_to_binary

    g = small_seq.member_graph(2, 0)
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    cert.host_c = Fraction(1, 2)
    for k, e in enumerate(cert.entries):
        for j in range(len(e.lines)):
            _reseal(cert, g, k, j)
    rep = C.reverify_certificate(cert, g)
    assert not rep["ok"] and not rep["refutes"]
    assert rep["failures"] == [("host-c", None)]
    (tmp_path / "certificate.txt").write_text(cert.to_text())
    (tmp_path / "refuted-graph.bin").write_bytes(bipartite_to_binary(g))
    assert main(["verify", "--artifact", str(tmp_path), "--suite", "certificate"]) == 1


def test_certificate_text_rejects_malformed_input(small_seq):
    text = _small_cert(small_seq).to_text()
    lines = text.split("\n")
    li = next(i for i, ln in enumerate(lines) if ln.startswith("line "))
    bad = {
        "truncated": "\n".join(lines[:li]) + "\n",
        "prefix": text.replace("\nq ", "\nx ", 1),
        "right id": text.replace(lines[li].split()[1], "R=99999", 1),
        "left id": text.replace(lines[li].split()[2], "P1=99999", 1),
        "unsorted": text.replace(lines[li].split()[2], "P1=5,3", 1),
        "repeated": text.replace(lines[li].split()[2], "P1=3,3", 1),
        "empty R": text.replace(lines[li].split()[1], "R=-", 1),
        "zero denominator": text.replace("\ntotal ", "\ntotal 1/0\nx ", 1),
        "trailing": text + "total 0\n",
        "missing field": text.replace("corr=", "cor=", 1),
    }
    for name, t in bad.items():
        with pytest.raises(ValueError):
            C.IrregularityCertificate.from_text(t)


def _rewrite(text, prefix, new, every=True):
    """text with the lines starting with prefix replaced by new(line), all of
    them or the first only."""
    lines = text.split("\n")
    hits = [i for i, ln in enumerate(lines) if ln.startswith(prefix)]
    for i in hits if every else hits[:1]:
        lines[i] = new(lines[i])
    return "\n".join(lines)


def test_certificate_loader_refuses_oversized_sets_before_expanding(small_seq, tmp_path):
    """Each bound follows from a re-check (P1 inside P, disjoint entries, no
    reused R vertex, Q and each r-level a partition), so the honest
    certificate loads, and a forged one is refused with ValueError, before
    any set is expanded, and ``verify --suite certificate`` exits 2."""
    from deltareg.cli import main
    from deltareg.graphs import bipartite_to_binary

    cert = _small_cert(small_seq)
    nl, nr = cert.n_left, cert.n_right
    assert len(cert.entries) > 1 and len(cert.entries[0].lines) > 1 and len(cert.q_cells) > 1
    text = cert.to_text()
    C.IrregularityCertificate.from_text(text)

    def field(name, value):
        return lambda ln: " ".join(f"{name}={value}" if part.startswith(f"{name}=") else part for part in ln.split())

    entry0_end = text.index("\nentry 1 ")
    forged = {
        "a P1 set": _rewrite(text, "line ", field("P1", f"0-{nl - 1}")),
        "the p sets": _rewrite(text, "p ", lambda ln: f"p 0-{nl - 1}"),
        "the R sets of certificate entry 0": _rewrite(text[:entry0_end], "line ", field("R", f"0-{nr - 1}")) + text[entry0_end:],
        "the q cells": _rewrite(text, "q ", lambda ln: f"q 0-{nr - 1}", every=False),
        "one level's r cells": _rewrite(text, "r ", lambda ln: f"r 0-{nr - 1}", every=False),
    }
    g = small_seq.member_graph(2, 0)
    (tmp_path / "refuted-graph.bin").write_bytes(bipartite_to_binary(g))
    for what, t in forged.items():
        with pytest.raises(ValueError, match=what):
            C.IrregularityCertificate.from_text(t)
    (tmp_path / "certificate.txt").write_text(forged["a P1 set"])
    assert main(["verify", "--artifact", str(tmp_path), "--suite", "certificate"]) == 2
