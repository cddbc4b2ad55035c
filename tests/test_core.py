import os
import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from deltareg import core as C
from deltareg.graphs import BipartiteGraph, VertexClass, bipartite_to_binary, edges_between, unpack_row
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


def test_parent_map_matches_pair_count_and_refuses_non_refinements():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        parent = VertexPartition(n, np.array_split(rng.permutation(n), int(rng.integers(1, n + 1))))
        # split every parent cell at random: a refinement
        kids = [part for cell in parent.cells for part in np.array_split(rng.permutation(cell), int(rng.integers(1, cell.size + 1)))]
        child = VertexPartition(n, kids)
        pairs = np.unique(child.owner * len(parent) + parent.owner)
        assert np.array_equal(C._parent_map(child, parent), pairs % len(parent))
        if len(parent) > 1:
            # one vertex moved into another parent cell's child
            v = int(parent.cells[0][0])
            w = int(parent.cells[1][0])
            moved = [np.setdiff1d(c, [v]) for c in child.cells]
            moved[child.owner[w]] = np.append(moved[child.owner[w]], v)
            with pytest.raises(ValueError, match="exact successive refinement"):
                C._parent_map(VertexPartition(n, [c for c in moved if c.size]), parent)
    with pytest.raises(ValueError, match="exact successive refinement"):
        C._parent_map(VertexPartition.blocks(8, 2), VertexPartition.blocks(4, 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 5, 8, 12, 16, 24, 40, 64, 128]), st.sampled_from([1, 2, 3, 200]), st.booleans(), st.booleans(), st.data())
def test_group_sum_matches_a_per_cell_sum(k, w, top, blocks, axis, data):
    """Block and scattered partitions, sums that fit a byte and sums that do
    not, along either axis: every path of _group_sum against a plain sum."""
    n, axis = k * w, int(axis)
    if blocks:
        p = VertexPartition.blocks(n, k)
    else:
        cut = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        p = VertexPartition(n, np.split(perm, cut))
    other = data.draw(st.integers(1, 5))
    shape = (n, other) if axis == 0 else (other, n)
    seed = data.draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).integers(0, top + 1, size=shape).astype(np.uint8)
    got = C._group_sum(x, p, axis)
    want = np.stack([x.astype(np.int64).take(c, axis=axis).sum(axis=axis) for c in p.cells], axis=axis)
    assert np.array_equal(got, want)
    assert got.dtype == np.min_scalar_type(max(map(len, p.cells)) * int(x.max()))


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
            assert len(fam.members) == small_seq.profile.r_sizes[i - 1] >> (i - 1)


def test_neighbor_family_level1_is_everything(small_seq):
    fam = C.neighbor_family(small_seq, 1, 0)
    assert len(fam.members) == small_seq.profile.r_sizes[0]


def test_level_block_degrees_halve_per_level(small_seq):
    """With the level-i block (L, R) present in the ancestor of a level-ell
    member, every vertex of left cluster L has 2^(i-ell) |R| neighbours in
    R; with the block absent it has none."""
    seq = small_seq
    for ell in (1, 2):
        adj = C._kernels.unpack_rows(seq.member_graph(ell, 0).rows, seq.n_right).astype(np.int64)
        for i in range(1, ell + 1):
            q = seq.members[i][seq.ancestor_index(ell, 0, i)].quotient
            lp, rp = seq.left_parts(i), seq.right_parts(i)
            for L in range(len(lp)):
                degs = adj[lp.cells[L]] @ (rp.owner[:, None] == np.arange(len(rp))).astype(np.int64)
                want = [rp.cell_sizes()[R] >> (ell - i) if q.has_edge(L, R) else 0 for R in range(len(rp))]
                assert (degs == np.array(want)).all(), (ell, i, L)


def test_cluster_sizes_read_the_stored_partition_sizes(small_seq):
    seq = small_seq
    assert [s.tolist() for s in C._cluster_sizes(seq, 0)] == [[seq.n_left], [seq.n_right]]
    for i in (1, 2):
        lsz, rsz = C._cluster_sizes(seq, i)
        for got, p, n in ((lsz, seq.left_parts(i), seq.n_left), (rsz, seq.right_parts(i), seq.n_right)):
            assert np.array_equal(got, np.bincount(p.owner)) and int(got.sum()) == n and not got.flags.writeable


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
    assert len(wits) == len(fam.members)


def test_refutation_certificate_round_trip(small_seq):
    seq = small_seq
    Pp = seq.left_parts(1)
    Qq = seq.right_parts(2)
    delta = Fraction(1, 1 << 14)
    cert = C.refute_partition(seq, 2, 0, Pp, Qq, delta, 2, gamma=Fraction(1, 4))
    g = seq.member_graph(2, 0)
    text = cert.to_text()
    cert2 = C.IrregularityCertificate.from_text(text)
    rep = C.reverify_certificate(cert2, g, seq.right_chain)
    assert rep["ok"] and rep["refutes"]
    assert rep["budget"] == delta * g.edge_count()
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
    rep = C.reverify_certificate(cert, seq.member_graph(2, 0), seq.right_chain)
    assert rep["budget"] == 0
    assert rep["refutes"]  # any nonzero total refutes a zero budget


def test_refutation_honest_failure_report(small_seq):
    """A ledger that recounts but whose total does not beat the budget the
    re-check derives from the graph: ok, and no refutation."""
    seq = small_seq
    g = seq.member_graph(2, 0)
    cert = _small_cert(seq)
    cert.entries = [C.CertEntry(cert.entries[0].p_vertices, cert.entries[0].level, cert.entries[0].lines[:1])]
    _reseal(cert, g, seq.right_chain)
    rep = C.reverify_certificate(cert, g, seq.right_chain)
    assert rep["ok"] and 0 < cert.total <= rep["budget"]
    assert not rep["refutes"]


def test_tampered_certificate_fails(small_seq):
    seq = small_seq
    cert = _small_cert(seq)
    g = seq.member_graph(2, 0)
    text = cert.to_text()
    # tamper the claimed total
    bad = C.IrregularityCertificate.from_text(text.replace(f"\ntotal {cert.total}\n", f"\ntotal {cert.total + 1}\n"))
    rep = C.reverify_certificate(bad, g, seq.right_chain)
    assert not rep["ok"] and rep["failures"] == [("total", None)]
    # graph mismatch is detected
    other = BipartiteGraph.complete(VertexClass("L", seq.n_left), VertexClass("R", seq.n_right))
    rep2 = C.reverify_certificate(cert, other, seq.right_chain)
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


def test_saved_artifact_holds_no_chain_and_the_loader_reads_only_manifest_and_gammas(tmp_path, small_seq, monkeypatch):
    """The chain is a function of the profile and the members follow from
    the Gammas: the writer stores neither, and the loader opens the
    manifest and the Gammas only and rebuilds the chain as
    default_chains(profile), owner for owner."""
    d = tmp_path / "seq"
    manifest = C.save_core_sequence(small_seq, str(d))
    assert sorted(manifest) == ["gamma_hashes", "gamma_telemetry", "profile", "sampler_stream", "seed"]
    assert sorted(p.name for p in d.iterdir()) == ["gamma-1-0.bin", "gamma-2-0.bin", "gamma-2-1.bin", "manifest.json"]
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(C, "open", recording_open, raising=False)
    seq = C.load_core_sequence(str(d))
    assert opened == ["manifest.json", "gamma-1-0.bin", "gamma-2-0.bin", "gamma-2-1.bin"]
    left, right = C.default_chains(small_seq.profile)
    for got, want in zip(seq.left_chain + seq.right_chain, left + right):
        assert np.array_equal(got.owner, want.owner)
    assert (seq.n_left, seq.n_right) == (small_seq.n_left, small_seq.n_right)


def test_build_determinism():
    prof = C.GrowthProfile(s=2, r_sizes=[8, 32], l_sizes=[16, 256], alpha=Fraction(3, 4), beta=Fraction(1, 2))
    a = C.build_core_sequence(prof, seed=42)
    b = C.build_core_sequence(prof, seed=42)
    for j in (1, 2):
        for idx in range(1 << j):
            assert np.array_equal(a.members[j][idx].quotient.rows, b.members[j][idx].quotient.rows)


def test_ranges_codec():
    arr = np.array([0, 1, 2, 5, 7, 8, 9, 64], dtype=np.int64)
    texts = C._ranges_encode_many([arr, arr[3:4]])
    assert texts == ["0-2,5,7-9,64", "5"]
    back, single = C._ranges_decode_many(texts)
    assert np.array_equal(back, arr) and single.tolist() == [5]
    # no certificate set is empty: the codec has no text for one
    with pytest.raises(ValueError):
        C._ranges_encode_many([arr, arr[:0]])
    with pytest.raises(ValueError):
        C._ranges_decode_many(["-"])


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
    st.lists(st.integers(0, 10**12), min_size=1, max_size=30).map(lambda v: np.array(v, dtype=np.int64)),  # scattered, unsorted, repeats
    st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 300)), min_size=1, max_size=6).map(_runs),  # long runs
    st.integers(0, 10**15).map(lambda v: np.array([v], dtype=np.int64)),  # singletons
)


def _reference_ranges_encode(arr):
    """The per-id loop: maximal runs of consecutive ids."""
    runs = []
    for v in np.unique(arr).tolist():
        if runs and v == runs[-1][1] + 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return ",".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


@settings(max_examples=200, deadline=None)
@given(st.lists(_id_sets, max_size=8))
def test_ranges_codec_round_trip(sets):
    texts = C._ranges_encode_many(sets)
    assert texts == [_reference_ranges_encode(s) for s in sets]
    assert texts == [C._ranges_encode_many([s])[0] for s in sets]
    for s, text, back in zip(sets, texts, C._ranges_decode_many(texts)):
        assert np.array_equal(back, np.unique(s))
        assert np.array_equal(C._ranges_decode_many([text])[0], back)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789,- x", max_size=24))
@example("007")
@example("01-03")
@example("1,05")
@example("3-3")
@example("3,4")
@example("1-2,3")
@example("-")
def test_ranges_decode_accepts_only_increasing_id_lists(text):
    """The decoder is the strict inverse of the encoder: the only text it
    accepts is the text the encoder writes for the ids it returns, in
    maximal runs ('3-3', '3,4' and '1-2,3' are refused)."""
    try:
        (ids,) = C._ranges_decode_many([text])
    except ValueError:
        return
    assert ids.dtype == np.int64 and np.all(ids >= 0) and np.all(np.diff(ids) > 0)
    assert re.search(r"(^|[,-])0[0-9]", text) is None  # no id with a leading zero
    assert C._ranges_encode_many([ids]) == [text]


# -- certificate re-check: one tamper per failure kind -------------------------


def _small_cert(seq):
    return C.refute_partition(seq, 2, 0, seq.left_parts(1), seq.right_parts(2), Fraction(1, 1 << 14), 2, gamma=Fraction(1, 4))


def _cert_artifact(seq, d, text):
    """d as a core artifact of seq holding the certificate text."""
    C.save_core_sequence(seq, str(d))
    with open(d / "certificate.txt", "w", encoding="utf-8", newline="") as f:
        f.write(text)
    return ["verify", "--artifact", str(d), "--suite", "certificate"]


def _reseal(cert, g, chain):
    """Set the total to the sum of the line values, each recounted with
    edges_between on the refuter's R* (``_rstar_mask``) of the right
    clusters in ``chain``, so that a tamper of the sets breaks only the
    check it aims at.  A line whose index is not one of its level's cells
    is worth 0."""
    q = VertexPartition(cert.n_right, cert.q_cells)
    rstar = [C._rstar_mask(q, rparts, C.HOST_C) for rparts in chain]
    p = Fraction(1, 1 << cert.ell)
    total = Fraction(0)
    for e in cert.entries:
        cells = chain[e.level - 1].cells
        for c in e.lines:
            if 0 <= c < len(cells):
                R = cells[c]
                corr = edges_between(g, e.p_vertices, R[~rstar[e.level - 1][R]])
                total += max(Fraction(0), cert.gamma / 32 * (Fraction(1, 4) * (1 << e.level) * p * e.p_vertices.size * R.size - corr))
    cert.total = total


# each tamper edits a certificate, re-checked against the right clusters
# of chain, for one failure kind and returns that failure and the graph to
# re-check against


def _tamper_entry_overlap(cert, g, chain):
    e = cert.entries[0]
    cert.entries.append(C.CertEntry(p_vertices=e.p_vertices, level=e.level, lines=np.empty(0, dtype=np.int64)))
    return ("entry-overlap", len(cert.entries) - 1), g


def _tamper_r_reused(cert, g, chain):
    e = cert.entries[0]
    e.lines = np.insert(e.lines, 1, e.lines[0])
    _reseal(cert, g, chain)
    return ("line", 0, int(e.lines[0])), g


def _tamper_p1_too_small(cert, g, chain):
    # all but need - 1 vertices of P get an edge into R, in a graph the
    # certificate is resealed to: the edge-free part of P is one too small
    e = cert.entries[0]
    R = chain[e.level - 1].cells[e.lines[0]]
    floor = max(cert.delta, cert.gamma / 8)
    need = -(-floor.numerator * e.p_vertices.size // floor.denominator)
    free = [int(v) for v in e.p_vertices if edges_between(g, [v], R) == 0]
    added = [(v, int(R[0])) for v in free[need - 1 :]]
    g = BipartiteGraph.from_edges(g.left, g.right, np.concatenate([g.edges(), np.array(added).reshape(-1, 2)]))
    cert.graph_sha256 = C.graph_hash(g)
    _reseal(cert, g, chain)
    return ("line", 0, int(e.lines[0])), g


def _tamper_density_floor(cert, g, chain):
    # a cluster P sends no edges to: every vertex of P is edge-free there;
    # the entry's lines are then put back in cluster order
    e = cert.entries[0]
    cells = chain[e.level - 1].cells
    c = next(c for c in range(len(cells)) if c not in e.lines and edges_between(g, e.p_vertices, cells[c]) == 0)
    e.lines = np.sort(np.append(e.lines[1:], c))
    _reseal(cert, g, chain)
    return ("line", 0, c), g


def _tamper_cluster_out_of_range(cert, g, chain):
    # the last line of entry 0 names a cluster past its level's cells; the
    # total drops the line's value, which the re-check counts as 0
    e = cert.entries[0]
    e.lines = np.append(e.lines[:-1], len(chain[e.level - 1]))
    _reseal(cert, g, chain)
    return ("line", 0, int(e.lines[-1])), g


def _tamper_total(cert, g, chain):
    cert.total += Fraction(1, 3)
    return ("total", None), g


def _tamper_parameters(cert, g, chain):
    # delta above (gamma/32)^2
    cert.delta = Fraction(1, 64)
    return ("parameters", None), g


TAMPERS = [
    _tamper_entry_overlap,
    _tamper_r_reused,
    _tamper_p1_too_small,
    _tamper_density_floor,
    _tamper_cluster_out_of_range,
    _tamper_total,
    _tamper_parameters,
]


@pytest.mark.parametrize("tamper", TAMPERS)
def test_reverify_reports_each_tamper(small_seq, tamper):
    g = small_seq.member_graph(2, 0)
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    chain = small_seq.right_chain
    assert C.reverify_certificate(cert, g, chain)["ok"]
    expected, g = tamper(cert, g, chain)
    rep = C.reverify_certificate(cert, g, chain)
    assert not rep["ok"]
    assert rep["failures"] == [expected]


def test_reverify_does_not_repeat_a_faulty_rstar_mask(small_seq, monkeypatch):
    """The re-check rebuilds R* on its own, so an R* mask that drops one
    qualifying Q-cell in the refuter gives corrections, and so a total, it
    rejects."""
    real = C._rstar_mask

    def drops_one_cell(Q, rparts, c):
        mask = real(Q, rparts, c)
        mask[next(cell for cell in Q.cells if mask[cell].any())] = False
        return mask

    monkeypatch.setattr(C, "_rstar_mask", drops_one_cell)
    g = small_seq.member_graph(2, 0)
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    rep = C.reverify_certificate(cert, g, small_seq.right_chain)
    assert not rep["ok"]
    assert ("total", None) in rep["failures"]


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1, 3)])
def test_reverify_rstar_agrees_with_the_refuter_on_partly_outside_cells(small_seq, c, monkeypatch):
    """Q-cells that stick out of their host cluster by one vertex in three,
    inside at c = 1/2 and not at c = 1/3: with HOST_C set to c, the
    re-check's own R* must give the corrections _rstar_mask gives."""
    g = small_seq.member_graph(2, 0)
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    q = cert.q_cells
    cells = []
    for a, b in zip(q[0::2], q[1::2]):  # A plus one vertex of B, then the rest of B
        cells += [np.sort(np.append(a, b[0])), b[1:]]
    cert.q_cells = [cell for cell in cells if cell.size]
    monkeypatch.setattr(C, "HOST_C", c)
    before = cert.total
    _reseal(cert, g, small_seq.right_chain)
    assert cert.total != before
    rep = C.reverify_certificate(cert, g, small_seq.right_chain)
    assert [f for f in rep["failures"] if f[0] in ("line", "total")] == []


def test_certificate_text_rejects_malformed_input(small_seq):
    text = _small_cert(small_seq).to_text()
    lines = text.split("\n")
    li = next(i for i, ln in enumerate(lines) if ln.startswith("lines "))
    pi = next(i for i, ln in enumerate(lines) if ln.startswith("p "))
    bad = {
        "truncated": "\n".join(lines[:li]) + "\n",
        "prefix": text.replace("\nq ", "\nx ", 1),
        "right id": text.replace(lines[li], "lines 99999", 1),
        "left id": text.replace(lines[pi], "p 99999", 1),
        "unsorted": text.replace(lines[pi], "p 5,3", 1),
        "repeated": text.replace(lines[pi], "p 3,3", 1),
        "unsorted lines": text.replace(lines[li], "lines 5,3", 1),
        "empty lines": text.replace(lines[li], "lines -", 1),
        "no lines": text.replace(lines[li], "lines", 1),
        "zero denominator": text.replace("\ntotal ", "\ntotal 1/0\nx ", 1),
        "trailing": text + "total 0\n",
        "missing field": text.replace("\nlines ", "\nline ", 1),
        "leading zero in an id": text.replace(lines[li], lines[li].replace("lines ", "lines 0", 1), 1),
        "leading zero in a range": text.replace(lines[pi], "p 01-03", 1),
        "leading zero in a header count": text.replace("\nt 2\n", "\nt 02\n", 1),
        "leading zero in the member": text.replace("\nmember 0\n", "\nmember 00\n", 1),
    }
    assert "\nt 2\n" in text and "\nmember 0\n" in text
    # cut at every line boundary
    bad.update({f"cut after line {j}": "".join(f"{ln}\n" for ln in lines[:j]) for j in range(len(lines) - 1)})
    for name, t in bad.items():
        assert t != text, name
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
    """Each bound follows from a re-check (disjoint entries, Q and each
    level's clusters a partition) or from ids increasing within a set, so the honest
    certificate loads, and a forged one is refused with ValueError, before
    any set is expanded, and ``verify --suite certificate`` exits 2."""
    from deltareg.cli import main

    cert = _small_cert(small_seq)
    nl, nr = cert.n_left, cert.n_right
    assert len(cert.entries) > 1 and len(cert.q_cells) > 1
    text = cert.to_text()
    C.IrregularityCertificate.from_text(text)
    forged = {
        "the p sets": _rewrite(text, "p ", lambda ln: f"p 0-{nl - 1}"),
        "the q cells": _rewrite(text, "q ", lambda ln: f"q 0-{nr - 1}", every=False),
        "more clusters than n-right": _rewrite(text, "lines ", lambda ln: f"lines 0-{nr}", every=False),
    }
    for what, t in forged.items():
        with pytest.raises(ValueError, match=what):
            C.IrregularityCertificate.from_text(t)
    assert main(_cert_artifact(small_seq, tmp_path, forged["the p sets"])) == 2


def test_an_entry_with_no_line_is_omitted_by_the_writer(small_seq):
    """A cell of one vertex from each of two level-2 clusters of one
    level-1 cluster with equal quotient rows: every R is adjacent to both
    clusters or to neither, so no R qualifies and the refuter's entry for
    the cell has no line.  ``to_text`` omits it (a set of no cluster has no
    text), and the certificate it writes re-checks to the same report."""
    seq = small_seq
    rows = seq.members[2][0].quotient.rows
    a, b = next(
        (int(x), int(y)) for L in range(16) for x in np.flatnonzero(seq.lparent[1] == L)
        for y in np.flatnonzero(seq.lparent[1] == L) if x < y and np.array_equal(rows[x], rows[y])
    )
    pair = np.sort([seq.left_parts(2).cells[a][0], seq.left_parts(2).cells[b][0]])
    cells = [np.setdiff1d(c, pair) for c in seq.left_parts(1).cells] + [pair]
    cert = C.refute_partition(seq, 2, 0, VertexPartition(seq.n_left, cells), seq.right_parts(2), Fraction(1, 1 << 14), 2, gamma=Fraction(1, 4))
    empty = [k for k, e in enumerate(cert.entries) if len(e.lines) == 0]
    assert [cert.entries[k].p_vertices.tolist() for k in empty] == [pair.tolist()]
    text = cert.to_text()
    reread = C.IrregularityCertificate.from_text(text)
    assert f"\nentries {len(cert.entries) - 1}\n" in text
    assert [e.p_vertices.tolist() for e in reread.entries] == [e.p_vertices.tolist() for e in cert.entries if len(e.lines)]
    assert reread.to_text() == text
    g = seq.member_graph(2, 0)
    rep = C.reverify_certificate(reread, g, seq.right_chain)
    assert rep["ok"] and rep == C.reverify_certificate(cert, g, seq.right_chain)


# -- whole-array certificate path against the per-entry reference --------------


def _reference_reverify(cert, g, chain):
    """The per-line re-check, kept as the reference for the reports of the
    whole-array one: it takes each line's R as a vertex set of the right
    clusters in ``chain`` and counts the edge-free part of P itself."""
    edges = g.edge_count()
    report = {"ok": True, "refutes": False, "budget": cert.delta * edges, "failures": [], "lines_checked": 0}
    if C.graph_hash(g) != cert.graph_sha256:
        return {**report, "ok": False, "failures": [("graph-hash", None)]}
    if cert.gamma > Fraction(1, 4) or 32 * C.dyadic_root_ceil(cert.delta, 2, 40) > cert.gamma:
        report["ok"] = False
        report["failures"].append(("parameters", None))
    q_owner = VertexPartition(cert.n_right, cert.q_cells).owner
    q_size = np.bincount(q_owner).astype(object)
    cn, cd = C.HOST_C.numerator, C.HOST_C.denominator
    rstar = {}
    for lvl, rparts in enumerate(chain, start=1):
        r_owner, k = rparts.owner, len(rparts)
        pair, count = np.unique(q_owner * k + r_owner, return_counts=True)
        q_of = pair // k
        first = np.lexsort((pair, -count, q_of))
        first = first[np.r_[True, q_of[first[1:]] != q_of[first[:-1]]]]
        outside = q_size - count[first]
        keep = ((outside == 0) | (outside * cd < cn * q_size)).astype(bool)
        rstar[lvl] = keep[q_owner] & (r_owner == (pair[first] % k)[q_owner])
    floor = max(cert.delta, cert.gamma / 8)
    gamma_prime = cert.gamma / 32
    gn, den = gamma_prime.numerator, gamma_prime.denominator * 4 << cert.ell
    total_num = 0
    seen = np.zeros(cert.n_left, dtype=bool)
    for k, e in enumerate(cert.entries):
        if np.any(seen[e.p_vertices]):
            report["ok"] = False
            report["failures"].append(("entry-overlap", k))
        seen[e.p_vertices] = True
        P = e.p_vertices
        psize = int(P.size)
        cells = chain[e.level - 1].cells if 1 <= e.level <= len(chain) else []
        dense = np.unpackbits(g.rows[P].view(np.uint8), axis=1, count=cert.n_right, bitorder="little").astype(np.int64)
        for j, c in enumerate(int(x) for x in e.lines):
            report["lines_checked"] += 1
            known = 0 <= c < len(cells)
            rising = j == 0 or c > e.lines[j - 1]
            R = cells[c] if known else np.empty(0, dtype=np.int64)
            row_into_r = dense[:, R].sum(axis=1)
            epr = int(row_into_r.sum())
            corr = int(dense[:, R[~rstar[e.level][R]]].sum()) if known else 0
            # P1: the vertices of P with no edge into R, counted in plain Python
            p1_size = sum(1 for d in row_into_r.tolist() if d == 0)
            rsize = int(R.size)
            ok = (
                known
                and rising
                and p1_size * floor.denominator >= floor.numerator * psize
                and epr * 4 << cert.ell >= psize * rsize << e.level
            )
            if not ok:
                report["ok"] = False
                report["failures"].append(("line", k, c))
            total_num += max(gn * ((psize * rsize << e.level) - (corr * 4 << cert.ell)), 0)
    if Fraction(total_num, den) != cert.total:
        report["ok"] = False
        report["failures"].append(("total", None))
    report["refutes"] = report["ok"] and cert.total > report["budget"]
    return report


def _uneven_partition(seq):
    """Cells of one, two and three level-2 clusters inside each level-1
    cluster, and one cell across two level-1 clusters: entries of two levels
    and of several sizes."""
    lp1, lp2 = seq.left_parts(1), seq.left_parts(2)
    cells = []
    for L in range(len(lp1)):
        kids = [int(k) for k in np.flatnonzero(seq.lparent[1] == L)]
        j, w = 0, 1
        while j < len(kids):
            cells.append(np.concatenate([lp2.cells[k] for k in kids[j : j + w]]))
            j, w = j + w, w % 3 + 1
    a, b = cells.pop(0), cells.pop()
    return VertexPartition(seq.n_left, cells + [np.concatenate([a, b])])


# (level, member, left partition, t) and the SHA-256 of certificate.txt: the
# v3 text of these certificates (itself the v1 text of the per-cell refuter
# and range codec, with every ' P1=<set>' dropped and each 'R=<set>' replaced
# by its index among its level's r cells), on the chain drawn by sampler
# stream 2, with 'v3' changed to 'v5', 'member <member>' added after the
# level, the gamma-prime, host-c and budget lines dropped, each entry's
# 'lines <n>' and n records 'line R=<index> corr=<count> value=<fraction>'
# replaced by 'lines <the indices, as a range set>', and the 'r-level' and
# 'r' lines dropped
PINNED_CERTIFICATES = [
    (2, 0, "L1", 2, "90f4c6f93805fa3c9ddbf90169b240e6a147cee1bd96082f5624802ce2632610"),
    (2, 3, "uneven", 2, "11b020563ce08becd11d9f494188c34cfe4c0272c9423ccfe0c74ad58ec37c7c"),
    (2, 2, "all", 2, "cbc8c4bf3c3af90d1102c17b58abad8f4702ded777486660488a9fcf614044b1"),
    (1, 1, "all", 1, "708f9a934a46526ed356e9961940849cd36a5d7e308cd9fb9c157cac6e59a664"),
]


def _pinned_cert(seq, ell, member, pname, t):
    P = {"L1": seq.left_parts(1), "uneven": _uneven_partition(seq), "all": VertexPartition(seq.n_left, [np.arange(seq.n_left)])}[pname]
    return C.refute_partition(seq, ell, member, P, seq.right_parts(2), Fraction(1, 1 << 14), t, gamma=Fraction(1, 4))


@pytest.mark.parametrize("ell,member,pname,t,sha", PINNED_CERTIFICATES)
def test_certificate_text_is_byte_identical_to_the_per_cell_refuter(small_seq, ell, member, pname, t, sha):
    import hashlib

    cert = _pinned_cert(small_seq, ell, member, pname, t)
    text = cert.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    assert C.IrregularityCertificate.from_text(text).to_text() == text
    g, chain = small_seq.member_graph(ell, member), small_seq.right_chain
    rep = C.reverify_certificate(C.IrregularityCertificate.from_text(text), g, chain)
    assert rep == _reference_reverify(C.IrregularityCertificate.from_text(text), g, chain)
    assert rep["ok"] and rep["lines_checked"] == sum(len(e.lines) for e in cert.entries)


@pytest.mark.parametrize("tamper", TAMPERS)
@pytest.mark.parametrize("pname", ["L1", "uneven"])
def test_recheck_reports_match_the_per_entry_reference(small_seq, pname, tamper):
    ell, member, t = 2, 3, 2
    g, chain = small_seq.member_graph(ell, member), small_seq.right_chain
    text = _pinned_cert(small_seq, ell, member, pname, t).to_text()
    mine, ref = (C.IrregularityCertificate.from_text(text) for _ in range(2))
    (expected, g_mine), (expected_ref, g_ref) = tamper(mine, g, chain), tamper(ref, g, chain)
    assert expected == expected_ref
    assert C.reverify_certificate(mine, g_mine, chain) == _reference_reverify(ref, g_ref, chain)


def test_small_chunks_change_no_byte_and_no_report(small_seq, monkeypatch):
    """The engine, the writer and the re-check work in chunks; two cells or
    entries at a time give the same text and reports."""
    import hashlib

    from deltareg import graphs as G

    monkeypatch.setattr(C, "_WITNESS_CHUNK", 5000)
    monkeypatch.setattr(C, "_RECHECK_CHUNK", 5000)
    monkeypatch.setattr(G, "_CHUNK_ROWS", 300)
    for ell, member, pname, t, sha in PINNED_CERTIFICATES:
        text = _pinned_cert(small_seq, ell, member, pname, t).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == sha
        g, chain = small_seq.member_graph(ell, member), small_seq.right_chain
        several = pname != "all"  # the tampers need two entries
        for tamper in (lambda c, g, chain: (None, g),) + (_tamper_p1_too_small, _tamper_entry_overlap, _tamper_r_reused) * several:
            mine, ref = (C.IrregularityCertificate.from_text(text) for _ in range(2))
            (_, g_mine), (_, g_ref) = tamper(mine, g, chain), tamper(ref, g, chain)
            assert C.reverify_certificate(mine, g_mine, chain) == _reference_reverify(ref, g_ref, chain)


@pytest.mark.parametrize("index", [-1, 10**30])
def test_recheck_fails_a_line_whose_cluster_is_not_a_cell(small_seq, index):
    """An in-memory line whose R index is negative, or past int64, is a
    failing line, never an IndexError or OverflowError."""
    g, chain = small_seq.member_graph(2, 0), small_seq.right_chain
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    cert.entries[0].lines = [*cert.entries[0].lines[:-1].tolist(), index]
    rep = C.reverify_certificate(cert, g, chain)
    assert not rep["ok"] and ("line", 0, index) in rep["failures"]
    assert rep == _reference_reverify(cert, g, chain)


@pytest.mark.parametrize("level", [0, 3, 10**30])
def test_recheck_fails_the_lines_of_a_level_the_chain_does_not_hold(small_seq, level):
    """An in-memory entry whose level is not one of the chain's: each of its
    lines fails, and it adds nothing to the recounted total; never an
    IndexError or a shift of 10^30 bits."""
    g, chain = small_seq.member_graph(2, 0), small_seq.right_chain
    cert = C.IrregularityCertificate.from_text(_small_cert(small_seq).to_text())
    cert.entries[0].level = level
    rep = C.reverify_certificate(cert, g, chain)
    assert rep["failures"] == [("line", 0, int(c)) for c in cert.entries[0].lines] + [("total", None)]
    assert rep == _reference_reverify(cert, g, chain)


def test_recheck_reads_cluster_indices_in_text_order_on_scattered_clusters(small_seq):
    """The right side relabelled by a permutation: the clusters are no longer
    runs of consecutive ids, and each cluster's index among the relabelled
    chain's clusters, ordered by least id, is not its index before.  The
    certificate, carried over with each line's index moved to its cluster's
    new index, still re-checks against the relabelled chain, through its
    text and against the per-line reference."""
    ell, member, t = 2, 3, 2
    g = small_seq.member_graph(ell, member)
    cert = _pinned_cert(small_seq, ell, member, "uneven", t)
    perm = np.random.default_rng(5).permutation(g.right.size)
    edges = g.edges()
    g = BipartiteGraph.from_edges(g.left, g.right, np.stack([edges[:, 0], perm[edges[:, 1]]], axis=1))
    chain = [VertexPartition(g.right.size, [perm[c] for c in rparts.cells]) for rparts in small_seq.right_chain]
    index = [new.owner[perm[[c[0] for c in old.cells]]] for old, new in zip(small_seq.right_chain, chain)]
    assert all(np.any(new.owner[1:] < new.owner[:-1]) for new in chain)
    assert all(not np.array_equal(ix, np.arange(ix.size)) for ix in index)
    assert {e.level for e in cert.entries} == {1, 2}
    cert.graph_sha256 = C.graph_hash(g)
    cert.q_cells = [np.sort(perm[c]) for c in cert.q_cells]
    for e in cert.entries:
        e.lines = np.sort(index[e.level - 1][e.lines])
    cert = C.IrregularityCertificate.from_text(cert.to_text())
    rep = C.reverify_certificate(cert, g, chain)
    assert rep["ok"] and rep["refutes"]
    assert rep == _reference_reverify(cert, g, chain)
    _tamper_r_reused(cert, g, chain)
    assert C.reverify_certificate(cert, g, chain) == _reference_reverify(cert, g, chain)
    # clusters of unequal sizes: the first two cells of each level merged,
    # the total resealed; lines past the last cell now fail
    chain = [VertexPartition(rparts.n, [np.concatenate(rparts.cells[:2]), *rparts.cells[2:]]) for rparts in chain]
    _reseal(cert, g, chain)
    rep = C.reverify_certificate(cert, g, chain)
    assert rep == _reference_reverify(cert, g, chain)
    assert rep["lines_checked"] > len([f for f in rep["failures"] if f[0] == "line"]) > 0


def test_single_cell_witnesses_come_from_the_level_engine(small_seq):
    """find_irregularity_witnesses is the level engine on one cell: the same
    clusters, P1 sizes and e(P, R) as the engine gives for that cell among
    others."""
    seq = small_seq
    P = _uneven_partition(seq)
    cells = [c for c in P.cells if len(np.unique(seq.lparent[1][seq.left_parts(2).owner[c]])) == 1 and c.size > 2]
    found = C._level_witnesses(seq, 2, 1, 2, cells, Fraction(1, 4))
    assert len(cells) > 8 and found["cell"].size > 0
    for k, cell in enumerate(cells):
        wits = C.find_irregularity_witnesses(seq, 2, 1, 2, cell, Fraction(1, 4), require_count=False)
        mine = np.flatnonzero(found["cell"] == k)
        assert [w.right_cluster for w in wits] == found["cluster"][mine].tolist()
        assert [w.d_pr_num for w in wits] == found["e_pr"][mine].tolist()
        assert [len(w.p1_vertices) for w in wits] == found["p1_size"][mine].tolist()


def test_recheck_fails_a_certificate_whose_sides_do_not_fit_the_graph(small_seq, tmp_path):
    """A header claiming more left vertices than the graph has, with a p set
    inside that claim, loads; the re-check reports ('sides', None) instead
    of indexing past the graph, and the suite exits 1."""
    from deltareg.cli import main

    g = small_seq.member_graph(2, 0)
    nl = g.left.size
    text = _small_cert(small_seq).to_text()
    text = text.replace(f"\nn-left {nl}\n", f"\nn-left {4 * nl}\n")
    text = _rewrite(text, "p ", lambda ln: f"p 0-{2 * nl - 1}", every=False)
    cert = C.IrregularityCertificate.from_text(text)
    assert cert.entries[0].p_vertices.size == 2 * nl
    rep = C.reverify_certificate(cert, g, small_seq.right_chain)
    assert rep == {"ok": False, "refutes": False, "budget": cert.delta * g.edge_count(), "failures": [("sides", None)], "lines_checked": 0}
    assert main(_cert_artifact(small_seq, tmp_path, text)) == 1


def test_certificate_grammar_is_strict(small_seq, tmp_path):
    """Only the text to_text writes loads: fields in their order and each
    once, counts and fractions in ASCII digits.  Each variant raises
    ValueError, and ``verify --suite certificate`` exits 2 on it."""
    from deltareg.cli import main

    cert = _small_cert(small_seq)
    text = cert.to_text()
    C.IrregularityCertificate.from_text(text)
    line = next(ln for ln in text.split("\n") if ln.startswith("lines "))
    assert {e.level for e in cert.entries} == {2}
    # the level-2 right clusters as a v4 'r-level' block, after the q lines
    clusters = small_seq.right_parts(2).cells
    r_block = "".join(f"{ln}\n" for ln in [f"r-level 2 {len(clusters)}", *(f"r {r}" for r in C._ranges_encode_many(clusters))])
    with_r_block = text.replace("\nentries ", f"\n{r_block}entries ", 1)
    variants = {
        "repeated field": text.replace(line, f"{line} {line[6:]}", 1),
        "underscore in a count": text.replace(f"\nq-cells {len(cert.q_cells)}\n", "\nq-cells 3_2\n", 1),
        "signed fraction": text.replace("\ntotal ", "\ntotal +", 1),
        "full-width digit": text.replace("\nt 2\n", "\nt ３\n", 1),
        "header out of order": text.replace("\ndelta 1/16384\ngamma 1/4\n", "\ngamma 1/4\ndelta 1/16384\n", 1),
        "header field twice": text.replace("\nt 2\n", "\nt 2\nt 2\n", 1),
        "no member": text.replace("\nmember 0\n", "\n", 1),
        "CRLF line ends": text.replace("\n", "\r\n"),
        "cut after the entry count": text[: text.index("\n", text.index("\nentries ") + 1) + 1],
        "cut inside a lines set": text[: text.index(",", text.index("\nlines ")) + 1] + "\n",
        "v3 version line": text.replace(" v5\n", " v3\n", 1),
        "v4 version line": text.replace(" v5\n", " v4\n", 1),
        "v4 text with its r-level block": with_r_block.replace(" v5\n", " v4\n", 1),
        "r-level block under a v5 header": with_r_block,
        "entry level past t": text.replace("\nentry 0 level 2\n", "\nentry 0 level 3\n", 1),
        "entry level 0": text.replace("\nentry 0 level 2\n", "\nentry 0 level 0\n", 1),
        "a line past n-right": text.replace(line, f"lines {cert.n_right}", 1),
    }
    assert "\nt 2\n" in text and len(cert.q_cells) == 32 and "," in line
    args = _cert_artifact(small_seq, tmp_path, text)
    for name, bad in variants.items():
        assert bad != text, name
        with pytest.raises(ValueError):
            C.IrregularityCertificate.from_text(bad)
        with open(tmp_path / "certificate.txt", "w", encoding="utf-8", newline="") as f:
            f.write(bad)
        assert main(args) == 2, name


# -- whole-array core suites against the per-cluster reference -----------------


def _reference_family(seq, i, L, member):
    parentq = seq.members[i - 1][member].quotient
    adjacent = C._kernels.unpack_rows(parentq.rows[L], parentq.right.size)
    return np.flatnonzero(adjacent[seq.rparent[i - 1]]).astype(np.int64)


def _reference_core_properties(seq, i, left_cluster=None, member=0):
    """The per-cluster check the whole-array one replaced, kept as the
    reference for its reports (its neighbor-family scan inlined)."""
    prof = seq.profile
    parent_idx = member // 2
    parentq = seq.members[i - 1][parent_idx].quotient
    q = seq.members[i][member].quotient
    g = seq.member_graph(i, member)
    lp_prev = seq.left_parts(i - 1) if i >= 2 else VertexPartition(seq.n_left, [range(seq.n_left)])
    rp_prev = seq.right_parts(i - 1) if i >= 2 else VertexPartition(seq.n_right, [range(seq.n_right)])
    report = {"item1": True, "item2": True, "failures": []}
    lclusters = list(range(parentq.left.size)) if left_cluster is None else [left_cluster]
    par_bits = C._kernels.unpack_rows(parentq.rows, parentq.right.size).astype(np.int64)
    bits = C._kernels.unpack_rows(g.rows, seq.n_right)
    deg_into_R = C._group_sum(bits, rp_prev, 1).T
    lsizes = np.array([len(c) for c in rp_prev.cells], dtype=np.int64)
    expected = (par_bits.T * (lsizes[:, None] // 2))[:, lp_prev.owner]
    if not np.array_equal(deg_into_R, expected):
        report["item1"] = False
        bad = np.argwhere((deg_into_R != expected).T)
        for v, b in bad[:4]:
            report["failures"].append(("item1-left", i, member, int(lp_prev.owner[v]), int(b)))
    deg_into_L = C._group_sum(bits, lp_prev, 0)
    rsizes = np.array([len(c) for c in lp_prev.cells], dtype=np.int64)
    expectedR = par_bits[:, rp_prev.owner] * (rsizes[:, None] // 2)
    if not np.array_equal(deg_into_L, expectedR):
        report["item1"] = False
        report["failures"].append(("item1-right", i, member))
    degs = g.degrees()
    if np.any(degs * (1 << i) != seq.n_right):
        report["item1"] = False
        report["failures"].append(("item1-global-left", i, member))
    alpha = prof.alpha_at(i)
    an, ad = alpha.numerator, alpha.denominator
    tq = q.transposed()
    cell_of = {int(seq.lparent[i - 1][cell[0]]): cell for cell in seq.x_cells(i).cells}
    for L in lclusters:
        fam = _reference_family(seq, i, L, parent_idx)
        if len(fam) < 2:
            continue
        cell = cell_of[L]
        lo, hi = int(cell[0]) >> 6, (int(cell[-1]) >> 6) + 1
        sub = tq.rows[fam, lo:hi] & C._kernels.pack_indices(cell - 64 * lo, 64 * (hi - lo))
        counts = C._kernels.and_popcount_pairs(sub, np.stack(np.triu_indices(len(fam), k=1), axis=1))
        if np.any(4 * counts * ad > len(cell) * (ad + an)):
            report["item2"] = False
            report["failures"].append(("item2", i, member, L))
    report["ok"] = report["item1"] and report["item2"]
    return report


def _reference_structure(seq):
    """The per-member, per-family recount the whole-array one replaced, with
    block sizes in int64 (the old cast to the sums' dtype could wrap)."""
    prof = seq.profile
    nl, nr = seq.n_left, seq.n_right
    report = {"density": True, "chain": True, "blocks": True, "families": True, "failures": []}
    for j in range(1, prof.s + 1):
        lp, rp = seq.left_parts(j), seq.right_parts(j)
        for m in seq.members[j]:
            g = seq.member_graph(j, m.index)
            if g.edge_count() * (1 << j) != nl * nr:
                report["density"] = False
                report["failures"].append(("density", j, m.index))
            D = C._group_sum(C._group_sum(C._kernels.unpack_rows(g.rows, g.right.size), lp, 0), rp, 1)
            mixed = (D != 0) & (D != np.outer(np.bincount(lp.owner), np.bincount(rp.owner)))
            if mixed.any():
                report["blocks"] = False
                for a, b in np.argwhere(mixed)[:8]:
                    report["failures"].append(("block", j, m.index, int(a), int(b)))
        for idx in range(len(seq.members[j - 1])):
            gparent = seq.member_graph(j - 1, idx)
            c1, c2 = seq.member_graph(j, 2 * idx), seq.member_graph(j, 2 * idx + 1)
            if np.any(c1.rows & c2.rows) or not np.array_equal(c1.rows | c2.rows, gparent.rows):
                report["chain"] = False
                report["failures"].append(("chain", j, idx))
    for i in range(1, prof.s + 1):
        expected = prof.r_sizes[i - 1] >> (i - 1)
        for idx in range(len(seq.members[i - 1])):
            for L in range(prof.l_sizes[i - 2] if i >= 2 else 1):
                if len(_reference_family(seq, i, L, idx)) != expected:
                    report["families"] = False
                    report["failures"].append(("family", i, idx, L))
    report["ok"] = all(report[k] for k in ("density", "chain", "blocks", "families"))
    return report


@pytest.fixture(scope="module")
def desk_seq():
    import json
    import pathlib

    profile = json.loads((pathlib.Path(__file__).parents[1] / "profiles" / "core-desk.json").read_text())
    return C.build_core_sequence(C.GrowthProfile.from_json(profile), seed=1)


# SHA-256 of bipartite_to_binary of every quotient, keyed (level, member), and
# of every balanced graph Gamma, keyed (level, parent member), of the desk
# chain at seed 1, with each Gamma draw count and (ii)/(iii) rejections
DESK_SEED_1_QUOTIENTS = {
    (0, 0): "63889e9b2de106a21d60c291552c16efb887aefbe70edc2c2ba95999f90cee7f",
    (1, 0): "d80d110eb9e88860e5b7426b9fe50ed5bc8d6781d871a26a266151ba2690b43e",
    (1, 1): "ad1d6270a5e3c5886251323b8baef2d8a445bc3573e14400e0ab1a76465f44e6",
    (2, 0): "ed1bf05925ed8cb75eafd8cd8573d4390cb7fbe6a03f6d06e8d60eb5c20ef87b",
    (2, 1): "174a7fb951da1d3f6807723e66aa8e26f0e953dabc1681b48854830858b384f1",
    (2, 2): "beeda671088d3ebb984f1e148327682226982403fc7ba36883b32173523e38ad",
    (2, 3): "35a85f6916d91a61800d2ba6dda20402b642cb68433163167ac896b99d6f6e9b",
    (3, 0): "cf382847f1b5cfacb22f0a41ac7f9e2b68ba8877e336aa0fb6d1c4669b08d494",
    (3, 1): "e89b40e4dcb68f12db45170f4089833773f9c934c92aeca97b19d0f14819aea7",
    (3, 2): "958cee412e7ee389144ff243bf5d486e06373c0b7a8289740a764c6037cc05fb",
    (3, 3): "02b68886aeb78ed43c3c9319d99c3659752659530f001fbacd88634cf5bf81dc",
    (3, 4): "a3bdb7f6a0806bfed2abfc27cd1d38dee8afda104fec8ad23a0c84515d42c72a",
    (3, 5): "0d53757d8b872c99a2339c7cd8da0498ca16ec15a91fc3d3fb5fbfbbe9f8f7e0",
    (3, 6): "05f149a7f842e622235fdc516fb1ba872e3642f4c3eb9f285276b63dd0ad65ac",
    (3, 7): "e07a39da6604444367d5867c7bca0663e08723d27ba3fe7eabbfb3aa66840235",
}
DESK_SEED_1_GAMMAS = {
    (1, 0): ("d9be43975e9617dbe294dcc2ad3d1f35099a0316cadbcab1cc269f89f0eac181", 1, {"ii": 0, "iii": 0}),
    (2, 0): ("6bd79531281daef0303088678efa1cc074e46724e7a823780f329ebe4d74078d", 1, {"ii": 0, "iii": 0}),
    (2, 1): ("8e2c4b76a40a5720e9ea7ccef8136e89de284eac95298ed5bb9472d2a6becbb1", 1, {"ii": 0, "iii": 0}),
    (3, 0): ("7c98555bb2d5991f28de4b0f31012259926791f6d8a32cf9939c9f8e80ad523b", 1, {"ii": 0, "iii": 0}),
    (3, 1): ("297fb6622f8a3b1d87dd9c1eb7a3079bd1cdf7ae920b89f5a6eab2b9c08a0e86", 1, {"ii": 0, "iii": 0}),
    (3, 2): ("8a9ab8836d55b8e974cc02c5f5f644caeb3b3e812844262eef4365fb2e6214e1", 1, {"ii": 0, "iii": 0}),
    (3, 3): ("dce1bab11e95ef04fd189f7a177d94a9d9019eca8214f1a6fe028c4ff72f4241", 1, {"ii": 0, "iii": 0}),
}


def test_desk_build_is_pinned_at_seed_1(desk_seq):
    """Every quotient and every Gamma of the desk chain at seed 1, byte for
    byte, and every Gamma's draws and rejections: a change to the seed
    stream or to any accept or reject decision of the sampler shows here.
    At seed 1 every Gamma is accepted on its first draw."""
    import hashlib

    def sha(g):
        return hashlib.sha256(bipartite_to_binary(g)).hexdigest()

    quotients = {(i, m.index): sha(m.quotient) for i, level in enumerate(desk_seq.members) for m in level}
    assert quotients == DESK_SEED_1_QUOTIENTS
    gammas = {key: (sha(rec["balanced"].graph), rec["telemetry"]["draws"], rec["telemetry"]["failures"]) for key, rec in desk_seq.gamma_records.items()}
    assert gammas == DESK_SEED_1_GAMMAS


def test_desk_artifact_loads_the_pinned_quotients(desk_seq, tmp_path):
    """The desk artifact at seed 1 stores the seven Gammas and no quotient,
    and the loader derives every quotient pinned above from them."""
    import hashlib

    C.save_core_sequence(desk_seq, str(tmp_path))
    assert {p.name for p in tmp_path.iterdir()} == {"manifest.json"} | {f"gamma-{i}-{m}.bin" for i, m in DESK_SEED_1_GAMMAS}
    seq = C.load_core_sequence(str(tmp_path))
    quotients = {(i, m.index): hashlib.sha256(bipartite_to_binary(m.quotient)).hexdigest() for i, level in enumerate(seq.members) for m in level}
    assert quotients == DESK_SEED_1_QUOTIENTS


def _with_quotient(seq, level, member, rows):
    """A copy of the chain whose (level, member) quotient has these rows;
    the copy materializes its member graphs afresh."""
    import copy

    out = copy.copy(seq)
    out.members = [list(level_members) for level_members in seq.members]
    q = seq.members[level][member].quotient
    out.members[level][member] = C.CoreMember(level, member, BipartiteGraph(q.left, q.right, rows))
    out._materialized = {}
    return out


def _flip(seq, level, member, row, col):
    rows = seq.members[level][member].quotient.rows.copy()
    rows[row, col >> 6] ^= np.uint64(1) << np.uint64(col & 63)
    return _with_quotient(seq, level, member, rows)


def _equal_family_pair(seq, level, member, L, a=0, b=1):
    """Inside the cell of parent left cluster L, make cluster b of L's
    neighbor family (by position) adjacent to exactly what cluster a is:
    their codegree becomes a's degree into the cell, and every other pair
    keeps its codegree or takes one a already has."""
    q = seq.members[level][member].quotient
    fam = C.neighbor_family(seq, level, L, member=member // 2).members
    cell = np.flatnonzero(seq.lparent[level - 1] == L)
    bits = C._kernels.unpack_rows(q.rows, q.right.size)
    bits[cell, fam[b]] = bits[cell, fam[a]]
    return _with_quotient(seq, level, member, C._kernels.pack_rows(bits)), int(bits[cell, fam[a]].sum())


def _assert_core_reports_match(seq, members=None, left_clusters=()):
    """Equal reports for every (level, member) given (default all), over all
    parent left cells and for each of ``left_clusters`` the level has."""
    members = members or [(i, m) for i in range(1, seq.profile.s + 1) for m in range(1 << i)]
    for i, m in members:
        assert C.verify_core_properties(seq, i, member=m) == _reference_core_properties(seq, i, member=m), (i, m)
        for L in left_clusters:
            if L < len(seq.members[i - 1][m // 2].quotient.rows):
                got = C.verify_core_properties(seq, i, left_cluster=L, member=m)
                assert got == _reference_core_properties(seq, i, left_cluster=L, member=m), (i, m, L)


def test_core_reports_match_the_per_cluster_reference_on_small_seq(small_seq):
    _assert_core_reports_match(small_seq, left_clusters=(0, 5, 15))
    assert C.verify_structure(small_seq) == _reference_structure(small_seq)


def _scattered_chain(counts, sizes, rng):
    """A nested chain with counts[i] cells at level i + 1, whose last-level
    cells have the given vertex counts: vertex ids are shuffled, so no cell
    is a run of consecutive ids, and the children of each cell are a
    shuffled choice of the next level's cells."""
    n = int(sizes.sum())
    owner = np.empty(n, dtype=np.int64)
    owner[rng.permutation(n)] = np.repeat(np.arange(sizes.size), sizes)
    chain = []
    for i in range(len(counts) - 1, -1, -1):
        chain.insert(0, VertexPartition(n, [np.flatnonzero(owner == c) for c in range(counts[i])]))
        if i:
            owner = (rng.permutation(counts[i]) % counts[i - 1])[owner]
    return chain


@pytest.fixture(scope="module", params=["equal", "unequal"])
def scattered_seq(request):
    """The small profile built on scattered chains, with clusters of two
    vertices each, or of one to three vertices."""
    prof = C.GrowthProfile(s=2, r_sizes=[8, 32], l_sizes=[16, 256], alpha=Fraction(3, 4), beta=Fraction(1, 2))
    rng = np.random.default_rng(8)
    sizes = {"equal": lambda k: np.full(k, 2), "unequal": lambda k: rng.integers(1, 4, size=k)}[request.param]
    left = _scattered_chain(prof.l_sizes, sizes(prof.l_sizes[-1]), rng)
    right = _scattered_chain(prof.r_sizes, sizes(prof.r_sizes[-1]), rng)
    return request.param, C.build_core_sequence(prof, seed=3, left_chain=left, right_chain=right)


def test_a_sequence_off_the_default_chains_cannot_be_saved(scattered_seq, tmp_path):
    """The artifact stores no chain, so the loader could not give back a
    scattered one: the writer refuses it and writes nothing."""
    _, seq = scattered_seq
    with pytest.raises(ValueError, match="default_chains"):
        C.save_core_sequence(seq, str(tmp_path / "seq"))
    assert not (tmp_path / "seq").exists()


def test_core_reports_match_the_reference_off_the_block_layout(scattered_seq):
    """Shuffled, non-contiguous clusters: with equal sizes every claim
    holds; with unequal sizes the halves of a block differ in vertex count,
    so item 1 and the density fail, and every report, its per-vertex
    item1-left lines included, is the vertex-level reference's."""
    kind, seq = scattered_seq
    assert not any(C._is_block_partition(p) for p in seq.left_chain + seq.right_chain)
    assert not C._is_block_partition(seq.x_cells(2)) and not C._is_block_partition(seq.y_cells(2))
    rep = C.verify_structure(seq)
    assert rep == _reference_structure(seq)
    _assert_core_reports_match(seq, left_clusters=(0, 5, 15))
    props = [C.verify_core_properties(seq, i, member=m) for i in (1, 2) for m in range(1 << i)]
    for j in (1, 2):
        lsz, rsz = C._cluster_sizes(seq, j)
        for m in seq.members[j]:
            g = seq.member_graph(j, m.index)
            degs = C._cluster_degrees(m.quotient, rsz)
            assert np.array_equal(degs[seq.left_parts(j).owner], g.degrees()) and int(lsz @ degs) == g.edge_count()
    if kind == "equal":
        assert rep["ok"] and all(p["ok"] for p in props)
    else:
        assert not rep["density"] and rep["chain"] and rep["blocks"] and rep["families"]
        assert any(f[0] == "item1-left" for p in props for f in p["failures"])


@pytest.mark.parametrize("level,member,row,col", [(1, 1, 3, 2), (2, 2, 200, 30), (2, 0, 255, 31)])
def test_flipped_bit_off_the_block_layout_reports_match_the_reference(scattered_seq, level, member, row, col):
    _, seq = scattered_seq
    seq = _flip(seq, level, member, row, col)
    rep = C.verify_structure(seq)
    assert not rep["chain"] and rep == _reference_structure(seq)
    children = [(level + 1, 2 * member), (level + 1, 2 * member + 1)] if level < seq.profile.s else []
    _assert_core_reports_match(seq, [(level, member)] + children, left_clusters=(0, row, int(seq.lparent[level - 1][row])))
    assert not C.verify_core_properties(seq, level, member=member)["item1"]


def test_core_reports_match_the_per_cluster_reference_on_families_of_two():
    """Level-2 families of two clusters: one pair per parent cell, and a
    planted codegree violation in one cell."""
    prof = C.GrowthProfile(s=2, r_sizes=[2, 4], l_sizes=[4, 16], blowup_left=4, blowup_right=2, alpha=Fraction(3, 4), beta=Fraction(1, 2))
    seq = C.build_core_sequence(prof, seed=5)
    assert set(C._family_table(seq, 2, 1)[2].tolist()) == {2}
    _assert_core_reports_match(seq, left_clusters=(0, 3))
    planted, _ = _equal_family_pair(seq, 2, 1, 2)
    assert ("item2", 2, 1, 2) in C.verify_core_properties(planted, 2, member=1)["failures"]
    _assert_core_reports_match(planted, [(2, 1)], left_clusters=(1, 2))


def test_item1_expectations_beyond_the_sums_dtype():
    """An empty member under parent cells of 512 right vertices: its degree
    sums are all 0 (uint8), the expected 256 must not wrap to 0."""
    prof = C.GrowthProfile(s=1, r_sizes=[8], l_sizes=[16], blowup_right=64, alpha=Fraction(3, 4), beta=Fraction(1, 2))
    seq = C.build_core_sequence(prof, seed=0)
    seq = _with_quotient(seq, 1, 0, np.zeros_like(seq.members[1][0].quotient.rows))
    rep = C.verify_core_properties(seq, 1, member=0)
    assert rep == _reference_core_properties(seq, 1, member=0)
    assert rep["failures"][0] == ("item1-left", 1, 0, 0, 0) and ("item1-right", 1, 0) in rep["failures"]


def test_core_reports_match_the_per_cluster_reference_on_desk_seed_1(desk_seq):
    _assert_core_reports_match(desk_seq, left_clusters=(0, 255))
    rep = C.verify_structure(desk_seq)
    assert rep["ok"] and rep == _reference_structure(desk_seq)


@pytest.mark.parametrize(
    "level,member,row,col",
    [(2, 1, 5, 3), (2, 2, 200, 30), (3, 5, 1000, 77), (3, 0, 65535, 127)],
)
def test_flipped_quotient_bit_reports_match_the_reference(desk_seq, level, member, row, col):
    """A flipped level-2 bit also changes the size of one level-3 family
    (a parent quotient with unequal family sizes)."""
    seq = _flip(desk_seq, level, member, row, col)
    rep = C.verify_structure(seq)
    assert not rep["ok"] and rep == _reference_structure(seq)
    if level == 2:
        assert ("family", 3, member, row) in rep["failures"]
    children = [(level + 1, 2 * member), (level + 1, 2 * member + 1)] if level < seq.profile.s else []
    _assert_core_reports_match(seq, [(level, member)] + children, left_clusters=(0, row, row >> (8 if level == 3 else 4)))
    assert not C.verify_core_properties(seq, level, member=member)["ok"]


@pytest.mark.parametrize("level,member,L", [(2, 3, 7), (3, 6, 100), (3, 1, 0)])
def test_planted_codegree_violation_is_reported_as_the_reference_does(desk_seq, level, member, L):
    seq, _ = _equal_family_pair(desk_seq, level, member, L)
    rep = C.verify_core_properties(seq, level, member=member)
    assert ("item2", level, member, L) in rep["failures"]
    assert rep == _reference_core_properties(seq, level, member=member)
    for cluster in (L, L + 1):
        assert C.verify_core_properties(seq, level, left_cluster=cluster, member=member) == _reference_core_properties(
            seq, level, left_cluster=cluster, member=member
        )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_codegree_sweep_matches_the_per_pair_reference_off_the_word_grid(scattered_seq, data):
    """Item 2 by offset sweeps against the per-pair reference on shuffled
    clusters: level-1 bits flipped so that the level-2 families differ in
    size, a pair planted over the bound at offset 1 or t - 1 of one family
    of t clusters, every cell or one left cluster, and chunks of every
    cell or of one cell each."""
    _, seq = scattered_seq
    member = data.draw(st.integers(0, 3), label="member")
    rows = seq.members[1][member // 2].quotient.rows.copy()
    for r, c in data.draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)), max_size=4), label="flips"):
        rows[r, 0] ^= np.uint64(1) << np.uint64(c)
    seq = _with_quotient(seq, 1, member // 2, rows)
    L = data.draw(st.integers(0, 15), label="L")
    t = len(_reference_family(seq, 2, L, member // 2))
    degree = 0
    if t >= 2:
        d = data.draw(st.sampled_from([1, t - 1]), label="offset")
        a = data.draw(st.integers(0, t - 1 - d), label="first")
        seq, degree = _equal_family_pair(seq, 2, member, L, a, a + d)
    left_cluster = data.draw(st.sampled_from([None, L]), label="left_cluster")
    chunk = data.draw(st.sampled_from([1, C._FAMILY_CHUNK]), label="chunk")
    saved = C._FAMILY_CHUNK
    C._FAMILY_CHUNK = chunk
    try:
        got = C.verify_core_properties(seq, 2, left_cluster=left_cluster, member=member)
    finally:
        C._FAMILY_CHUNK = saved
    assert got == _reference_core_properties(seq, 2, left_cluster=left_cluster, member=member)
    alpha = seq.profile.alpha_at(2)
    if 4 * degree * alpha.denominator > np.count_nonzero(seq.lparent[1] == L) * (alpha.denominator + alpha.numerator):
        assert ("item2", 2, member, L) in got["failures"]


@pytest.mark.parametrize("a,b", [(0, 1), (0, 31), (30, 31)])
def test_codegree_pair_planted_at_the_first_and_last_offset_on_the_desk(desk_seq, a, b):
    """Word-aligned cells of 256 clusters and families of 32: one pair at
    offset 1 or 31 over the bound is found, in its cell only."""
    seq, degree = _equal_family_pair(desk_seq, 3, 5, 77, a, b)
    assert 16 * degree > 7 * 256
    rep = C.verify_core_properties(seq, 3, member=5)
    assert [f for f in rep["failures"] if f[0] == "item2"] == [("item2", 3, 5, 77)]
    assert rep == _reference_core_properties(seq, 3, member=5)


def test_codegree_pair_planted_in_two_cells_reports_both(desk_seq):
    """The same family pair over the bound in two cells is one pair of the
    sweep, over in two segments of one block: both cells are reported."""
    seq, degree = _equal_family_pair(desk_seq, 3, 5, 77)
    seq, degree2 = _equal_family_pair(seq, 3, 5, 200)
    assert 16 * min(degree, degree2) > 7 * 256
    rep = C.verify_core_properties(seq, 3, member=5)
    assert [f for f in rep["failures"] if f[0] == "item2"] == [("item2", 3, 5, 77), ("item2", 3, 5, 200)]


def test_codegree_check_counts_pairs_once_per_chunk(desk_seq, monkeypatch):
    """One kernel sweep per chunk of parent cells and family size: one for
    a desk member, whose 256 families all have 32 clusters of 4 words, and
    one per cell when each chunk holds a single cell; the reports do not
    change with the chunk size."""
    shapes = []
    sweep = C._kernels.and_popcount_over

    def counted(rows, *args):
        shapes.append(rows.shape)
        return sweep(rows, *args)

    monkeypatch.setattr(C._kernels, "and_popcount_over", counted)
    seq, _ = _equal_family_pair(desk_seq, 3, 2, 9)
    full = C.verify_core_properties(seq, 3, member=2)
    assert ("item2", 3, 2, 9) in full["failures"]
    assert shapes == [(32, 256 * 4)]
    shapes.clear()
    monkeypatch.setattr(C, "_FAMILY_CHUNK", 1)
    assert C.verify_core_properties(seq, 3, member=2) == full
    assert shapes == [(32, 4)] * 256


def test_recheck_of_a_desk_certificate_with_two_level_3_cells_merged(desk_seq):
    """Clusters of unequal sizes at desk scale: a level-3 certificate
    re-checked against a chain whose first two level-3 cells are merged
    into one cluster of 2 among singletons, and the Q cells coarsened to
    the level-2 right cells, so that no Q cell lies inside a cluster and
    every line's correction is its e(P, R).  The total is resealed, so it
    matches only if the re-check sums each cluster's columns exactly; the
    lines on the last index, now past the last cell, fail.  The report is
    the per-line reference's."""
    g = desk_seq.member_graph(3, 0)
    P, Q = desk_seq.left_parts(2), desk_seq.right_parts(3)
    cert = C.refute_partition(desk_seq, 3, 0, P, Q, Fraction(1, 1 << 14), 3, gamma=Fraction(1, 4))
    cert = C.IrregularityCertificate.from_text(cert.to_text())
    assert C.reverify_certificate(cert, g, desk_seq.right_chain)["ok"]
    cells = Q.cells
    chain = [*desk_seq.right_chain[:2], VertexPartition(Q.n, [np.concatenate(cells[:2]), *cells[2:]])]
    cert.q_cells = list(desk_seq.right_parts(2).cells)
    before = cert.total
    _reseal(cert, g, chain)
    assert cert.total != before
    assert any(0 in e.lines for e in cert.entries)
    rep = C.reverify_certificate(cert, g, chain)
    assert rep == _reference_reverify(cert, g, chain)
    line_failures = [f for f in rep["failures"] if f[0] == "line"]
    assert ("total", None) not in rep["failures"]
    assert any(c == 127 for _, _, c in line_failures)
    assert rep["lines_checked"] > len(line_failures) > 0


def test_core_suites_do_not_call_neighbor_family(small_seq, tmp_path, monkeypatch):
    from deltareg.cli import main

    C.save_core_sequence(small_seq, str(tmp_path))

    def refused(*args, **kwargs):
        raise AssertionError("neighbor_family called")

    monkeypatch.setattr(C, "neighbor_family", refused)
    for suite in ("core-structural", "core-properties"):
        assert main(["verify", "--artifact", str(tmp_path), "--suite", suite]) == 0


def test_core_suites_decide_on_quotients_without_vertex_graphs(desk_seq, monkeypatch):
    """Neither verify_structure nor verify_core_properties builds a vertex
    graph, at any level."""
    seq = _with_quotient(desk_seq, 1, 0, desk_seq.members[1][0].quotient.rows)  # nothing materialized

    def refused(self, level, index):
        raise AssertionError(f"member_graph({level}, {index}) called")

    monkeypatch.setattr(C.CoreSequence, "member_graph", refused)
    assert C.verify_structure(seq)["ok"]
    for i in range(1, seq.profile.s + 1):
        for m in range(1 << i):
            assert C.verify_core_properties(seq, i, member=m)["ok"]
    assert not [key for key in seq._materialized if isinstance(key[0], int)]


def _with_shape(seq, level, member, left, right):
    """A copy of the chain whose (level, member) quotient is the empty
    left x right graph."""
    out = _with_quotient(seq, level, member, seq.members[level][member].quotient.rows)
    q = BipartiteGraph(VertexClass("L", left), VertexClass("R", right), C._kernels.zero_rows(left, right))
    out.members[level][member] = C.CoreMember(level, member, q)
    return out


def test_block_check_fails_a_quotient_of_the_wrong_shape(small_seq):
    """The vertex graph is the quotient blown up, so its blocks are complete
    or empty exactly when the quotient has one row per left cluster and one
    column per right cluster of its level.  A member of another shape fails
    the block claim and every split it is part of; its density and its
    neighbor families are not counted, and nothing raises."""
    assert C.verify_structure(small_seq)["ok"]
    leaf = _with_shape(small_seq, 2, 3, 256, 31)  # one right cluster short, in the same row words
    rep = C.verify_structure(leaf)
    assert not rep["blocks"] and not rep["chain"] and rep["density"] and rep["families"]
    assert rep["failures"] == [("block", 2, 3), ("chain", 2, 1)]
    parent = _with_shape(small_seq, 1, 0, 17, 8)  # one left cluster too many
    rep = C.verify_structure(parent)
    assert not rep["blocks"] and not rep["chain"] and rep["density"] and rep["families"]
    assert rep["failures"] == [("block", 1, 0), ("chain", 1, 0), ("chain", 2, 0)]


def test_core_suites_leave_the_largest_partition_unsplit(desk_seq, tmp_path):
    """Loading the desk artifact and running both core suites reads the
    partitions' owners and sizes only: the 65536 one-cluster cells of the
    level-3 left partition are never split out."""
    C.save_core_sequence(desk_seq, str(tmp_path))
    seq = C.load_core_sequence(str(tmp_path))
    assert C.verify_structure(seq)["ok"]
    for i in range(1, seq.profile.s + 1):
        for m in range(1 << i):
            assert C.verify_core_properties(seq, i, member=m)["ok"]
    assert "cells" not in vars(seq.left_chain[2])
    assert len(seq.left_chain[2]) == 65536
