"""Acceptance criteria, one test per numbered criterion.

Each criterion prints one PASS/FAIL line (run pytest with -s or check the
captured output).  Tolerances are pinned here exactly as stated; runtime
budgets are asserted from wall-clock measurements.

Criterion 5's middle clause, the 50% sampler acceptance gate, cannot hold
at the stated tuple (m=64, k=32, beta=1/16) for any graph: by (iv) a
member is closed under complements, so two X-vertices agree on it twice as
often as on k/2 = 16 columns, and (ii) then makes the 256 X-vertices a
binary code of length 16 and minimum distance 7, while Plotkin gives
A(16, 7) = A(17, 8) <= 2 A(16, 8) <= 64.  Test 5b asserts that bound from
the stated spec and runs the gate at m=448, k=2816 (one X-cell, one
member), the cheapest multiple-of-64 sizes where the exact union bound on
a draw's (ii) and (iii) violations is at most 1/4; the bound is asserted
before the draws.  See the README for the derivation.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from fractions import Fraction

from deltareg import balanced as B
from deltareg import core as C
from deltareg import counterexample as X
from deltareg import epsreg as E
from deltareg import hypergraphs as H
from deltareg import regularity as R
from deltareg import schedules as S
from deltareg.graphs import KPartiteKGraph, VertexClass, VertexClassSet, aux_graph, edges_between
from deltareg.partitions import VertexPartition, complete_kpartition

DESK_PROFILE = dict(
    s=3, r_sizes=[8, 32, 128], l_sizes=[16, 256, 65536],
    blowup_left=1, blowup_right=1, alpha=Fraction(3, 4), beta=Fraction(1, 2),
)


def _line(criterion, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion}: {status} - {detail} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def desk_seq():
    prof = C.GrowthProfile(**DESK_PROFILE)
    return C.build_core_sequence(prof, seed=1)


def test_criterion_1_tower_arithmetic():
    t0 = time.time()
    ok = (
        S.ackermann(1, 3) == 8
        and S.ackermann(2, 1) == 2
        and S.ackermann(2, 3) == 16
        and S.delta_level(1) == Fraction(1, 1 << 8)
        and S.delta_level(2) == Fraction(1, 1 << 64)
    )
    elapsed = time.time() - t0
    _line(1, ok and elapsed < 1, "tower values and level tolerances exact", elapsed)
    assert ok
    assert elapsed < 1


def test_criterion_2_core_structural_suite(desk_seq):
    t0 = time.time()
    rep = C.verify_structure(desk_seq)
    ok = rep["ok"]
    # explicit per-invariant recount results
    ok = ok and rep["density"] and rep["chain"] and rep["blocks"] and rep["families"]
    elapsed = time.time() - t0
    _line(2, ok and elapsed < 60, "dyadic densities, chain splits, 0/1 blocks, family sizes", elapsed)
    assert ok, rep["failures"][:5]
    assert elapsed < 60


def test_criterion_3_core_properties_20_seeds():
    t0 = time.time()
    prof = C.GrowthProfile(**DESK_PROFILE)
    all_ok = True
    for seed in range(20):
        seq = C.build_core_sequence(prof, seed=seed)
        for i in range(1, prof.s + 1):
            for m in range(1 << i):
                rep = C.verify_core_properties(seq, i, member=m)
                if not rep["ok"]:
                    all_ok = False
    elapsed = time.time() - t0
    _line(3, all_ok and elapsed < 120, "biregular half blocks and codegree bound, 20 accepted builds", elapsed)
    assert all_ok
    assert elapsed < 120


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    agree = 0
    total = 0
    for trial in range(200):
        nl = int(rng.integers(4, 11))
        nr = int(rng.integers(4, 11))
        p = float(rng.uniform(0.1, 0.95))
        edges = [(u, v) for u in range(nl) for v in range(nr) if rng.random() < p]
        g = R.BipartiteGraph.from_edges(VertexClass("A", nl), VertexClass("B", nr), edges)
        for delta in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            total += 1
            if R.is_delta_regular_pair(g, delta).status == R.naive_all_sizes_oracle(g, delta).status:
                agree += 1
    elapsed = time.time() - t0
    ok = agree == total
    _line(4, ok and elapsed < 120, f"exact checker vs all-subsets oracle, {agree}/{total} agree", elapsed)
    assert ok
    assert elapsed < 120


def _criterion5_spec():
    # m=64, k=32, |X-cells|=|family|=4, alpha=1/4, beta=1/16
    return B.BalanceSpec(
        x_cells=VertexPartition.blocks(256, 4),
        y_cells=VertexPartition.blocks(128, 4),
        family=[np.arange(32 * i, 32 * (i + 1)) for i in range(4)],
        alpha=Fraction(1, 4),
        beta=Fraction(1, 16),
    )


def test_criterion_5a_forced_conditions_100_percent():
    t0 = time.time()
    spec = _criterion5_spec()
    ok = True
    for seed in range(100):
        bg, _ = B.sample_balanced(spec, seed=seed, max_retries=1, enforce=())
        rep = B.verify_balanced(bg.graph, spec, conditions=("i", "iv"))
        ok = ok and rep.ok
    elapsed = time.time() - t0
    _line("5a", ok and elapsed < 180, "equitable degrees and complement closure on 100% of draws", elapsed)
    assert ok
    assert elapsed < 180


def _agreement_code_size_bound(spec):
    """Plotkin upper bound on how many X-vertices a member can keep under
    (ii) and (iv).

    By (iv) a member is closed under the complement involution, so x and x'
    agree on y exactly when they agree on phi(y): their agreement on the
    member is twice their agreement on k/2 columns, one per complement pair.
    (ii) then asks the X-vertices to form a binary code of length n = k/2 and
    minimum distance d = n - floor((1/2 + beta) k/2).  For odd d,
    A(n, d) = A(n+1, d+1); for even d and n >= 2d, A(n, d) <= 2^(n-2d) * 4d
    (Plotkin's A(2d, d) <= 4d, then A(n, d) <= 2 A(n-1, d)).
    """
    n = spec.k // 2
    d = n - math.floor((Fraction(1, 2) + spec.beta) * n)
    if d % 2:
        n, d = n + 1, d + 1
    assert n >= 2 * d
    return 2 ** (n - 2 * d) * 4 * d


def _union_bound(m, k, alpha, beta):
    """Expected number of (ii) and (iii) violations of one draw with one
    X-cell of size m and one member of size k, an upper bound on the chance
    that the draw is rejected.

    (ii): by (iv), a pair of X-vertices agrees on the member twice as often
    as on k/2 independent columns, each agreeing with probability at most
    1/2.  (iii): two Y-vertices that are not a complement pair share a
    hypergeometric number of the cell, Hyp(m; m/2, m/2); the k/2 complement
    pairs share nothing.
    """
    h = k // 2
    agree_cut = math.floor((Fraction(1, 2) + beta) * h)
    p_ii = Fraction(sum(math.comb(h, j) for j in range(agree_cut + 1, h + 1)), 2**h)
    codeg_cut = math.floor((1 + alpha) * Fraction(m, 4))
    p_iii = Fraction(
        sum(math.comb(m // 2, j) * math.comb(m // 2, m // 2 - j) for j in range(codeg_cut + 1, m // 2 + 1)),
        math.comb(m, m // 2),
    )
    return math.comb(m, 2) * p_ii + (math.comb(k, 2) - h) * p_iii


# The cheapest point (least m*k) of the 64-multiple grid where the union
# bound of one X-cell and one member is at most 1/4 at alpha=1/4, beta=1/16.
GATE_M, GATE_K = 448, 2816


def test_criterion_5b_sampler_acceptance_gate():
    """The 50% gate on the sampler's per-draw (ii)+(iii) acceptance.

    The stated tuple of criterion 5 (m=64, k=32) admits no graph meeting
    (ii) and (iv), so that is asserted, and the gate runs at sizes where
    the union bound leaves a rejection chance of at most 1/4 per draw.
    """
    t0 = time.time()
    stated = _criterion5_spec()
    assert _agreement_code_size_bound(stated) < stated.nx
    alpha, beta = Fraction(1, 4), Fraction(1, 16)
    assert _union_bound(GATE_M, GATE_K, alpha, beta) <= Fraction(1, 4)
    spec = B.BalanceSpec(
        x_cells=VertexPartition.blocks(GATE_M, 1),
        y_cells=VertexPartition.blocks(GATE_K, 1),
        family=[np.arange(GATE_K)],
        alpha=alpha,
        beta=beta,
    )
    accepted = 0
    for seed in range(100):
        bg, _ = B.sample_balanced(spec, seed=seed, max_retries=1, enforce=())
        ok_ii = B.verify_balanced(bg.graph, spec, conditions=("ii",)).ok
        ok_iii = B.verify_balanced(bg.graph, spec, conditions=("iii",)).ok
        if ok_ii and ok_iii:
            accepted += 1
    rate = accepted / 100
    elapsed = time.time() - t0
    _line("5b", rate >= 0.5 and elapsed < 180, f"(ii)+(iii) acceptance rate {rate:.2%} at m={GATE_M} k={GATE_K} a=1/4 b=1/16", elapsed)
    assert elapsed < 180
    assert rate >= 0.5


def test_criterion_5c_one_six_bound_on_verified_samples():
    t0 = time.time()
    rng = np.random.default_rng(55)
    checked = 0
    ok = True
    for seed in range(5):
        spec = B.BalanceSpec(
            x_cells=VertexPartition.blocks(64, 1),
            y_cells=VertexPartition.blocks(4096, 1),
            family=[],
            alpha=1,
            beta=1,
        )
        bg, _ = B.sample_balanced(spec, seed=seed, enforce=())
        if not B.is_beta_balanced(bg.graph, Fraction(1, 16)):
            continue  # unverified sample: outside the bound's hypothesis
        for _ in range(20):
            w = rng.integers(1, 17, size=64)
            lam = [Fraction(int(v), int(w.sum())) for v in w]
            rep = B.check_one_six(bg.graph, lam, require_balanced=False)
            checked += 1
            ok = ok and rep["count_ok"]
    elapsed = time.time() - t0
    _line("5c", ok and checked > 0 and elapsed < 180, f"one-sixth count bound on {checked} verified-sample weightings", elapsed)
    assert ok and checked > 0
    assert elapsed < 180


def test_criterion_6_witness_cross_check(desk_seq):
    t0 = time.time()
    seq = desk_seq
    gamma = Fraction(1, 4)
    p = Fraction(1, 8)
    ok = True
    checked_pairs = 0
    # full level-2 cluster (deterministic count) and two-cluster unions
    fixtures = []
    fixtures.append((seq.left_parts(2).cells[0], 0, _uniform_lambda(seq, host=0)))
    sub = np.flatnonzero(seq.lparent[2] == 3)
    fixtures.append((
        np.concatenate([seq.left_parts(3).cells[sub[0]], seq.left_parts(3).cells[sub[1]]]),
        3,
        _two_point_lambda(seq, sub[0], sub[1]),
    ))
    for P, host, lam in fixtures:
        wits = C.find_irregularity_witnesses(seq, 3, 0, 3, P, gamma)
        rep = C.one_twelve_context(seq, 3, 0, 3, host, lam)
        ok = ok and (rep["count"] == len(wits)) and rep["count_ok"]
        g = seq.member_graph(3, 0)
        for w in wits:
            checked_pairs += 1
            ok = ok and edges_between(g, w.p1_vertices, w.r_vertices) == 0
            ok = ok and Fraction(w.d_pr_num, len(P) * len(w.r_vertices)) >= Fraction(1, 4) * (1 << 3) * p
    elapsed = time.time() - t0
    _line(6, ok and elapsed < 60, f"witness counts match the weighted-count check; {checked_pairs} witnesses exact", elapsed)
    assert ok
    assert elapsed < 60


def _uniform_lambda(seq, host):
    li = seq.profile.l_sizes[2]
    inside = np.flatnonzero(seq.lparent[2] == host)
    lam = [Fraction(0)] * li
    for c in inside:
        lam[int(c)] = Fraction(1, len(inside))
    return lam


def _two_point_lambda(seq, c1, c2):
    li = seq.profile.l_sizes[2]
    lam = [Fraction(0)] * li
    lam[int(c1)] = Fraction(1, 2)
    lam[int(c2)] = Fraction(1, 2)
    return lam


def test_criterion_7_certificate_round_trip(desk_seq, tmp_path):
    t0 = time.time()
    seq = desk_seq
    delta = Fraction(1, 1 << 14)
    cert = C.refute_partition(seq, 3, 0, seq.left_parts(2), seq.right_parts(3), delta, 3, gamma=Fraction(1, 4))
    art = tmp_path / "cert-art"
    C.save_core_sequence(seq, str(art))
    (art / "certificate.txt").write_text(cert.to_text())
    # fresh-process re-verification of every ledger line against the member
    # the certificate names, derived from the Gammas
    proc = subprocess.run(
        [sys.executable, "-m", "deltareg.cli", "verify", "--artifact", str(art), "--suite", "certificate"],
        capture_output=True,
        text=True,
    )
    fresh_ok = proc.returncode == 0
    # the v5 text holds no right cluster: the suite takes them from the chain
    text = (art / "certificate.txt").read_text()
    lines = text.split("\n")
    assert lines[0] == "irregularity-certificate v5" and not any(ln.startswith(("r-level ", "r ")) for ln in lines)
    assert "r-level-clusters" not in proc.stdout and proc.stdout.splitlines()[-1] == "suite PASS", proc.stdout
    # dropping one line of an entry fails re-verification
    li = next(i for i, ln in enumerate(lines) if ln.startswith("lines "))
    (ids,) = C._ranges_decode_many([lines[li][6:]])
    lines[li] = "lines " + C._ranges_encode_many([ids[1:]])[0]
    (art / "certificate.txt").write_text("\n".join(lines))
    proc2 = subprocess.run(
        [sys.executable, "-m", "deltareg.cli", "verify", "--artifact", str(art), "--suite", "certificate"],
        capture_output=True,
        text=True,
    )
    tamper_detected = proc2.returncode == 1
    elapsed = time.time() - t0
    ok = fresh_ok and tamper_detected
    nlines = sum(len(e.lines) for e in cert.entries)
    _line(7, ok and elapsed < 60, f"{nlines} ledger lines re-verified in a fresh process; tampering detected", elapsed)
    assert fresh_ok, proc.stdout + proc.stderr
    assert tamper_detected
    assert elapsed < 60


def test_criterion_8_hypergraph_pipeline():
    t0 = time.time()
    sched = S.desk_schedule_k3()
    inst = H.build_pasted_instance(3, 2, sched, seed=9, blowup=4)
    fam = inst.families[0]
    ok = True
    for j in (1, 2):
        for idx in range(1 << j):
            h = fam.h_member(j, idx)
            ok = ok and h.density() == Fraction(1, 1 << j)
            ok = ok and h.edge_count() * (1 << j) == inst.n_per_class ** 3
            g = fam.core_seq.member_graph(j, idx)
            ok = ok and np.array_equal(aux_graph(h, 3).graph.rows, g.rows)
    dens = H.pasted_density_check(inst)
    ok = ok and dens["ok"] and dens["merged_density"] == Fraction(6, 8) * Fraction(1, 4)
    elapsed = time.time() - t0
    _line(8, ok and elapsed < 300, "level equitability, lift round-trip, pasted density (2k/2^k)2^-s", elapsed)
    assert ok
    assert elapsed < 300


def test_criterion_9_counterexample_20_seeds():
    t0 = time.time()
    ok = True
    for seed in range(20):
        params = X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1, 10), k=30, m=3, seed=seed)
        g, audit = X.build_triangle_free(params)
        ok = ok and g.triangle_count() == 0
        ok = ok and all(d >= params.p for d in audit.densities.values())
        if seed == 0:
            base, _ = X.build_triangle_free(X.CounterexampleParams(delta=Fraction(1, 2), q=Fraction(1, 10), k=30, m=1, seed=seed))
            # each blown-up pair is blowup(base pair, 3) bit for bit, which
            # with the exact recombination below gives the bilinear identity
            # for every subset pair
            ok = ok and X.verify_counterexample(g, params, base=base)["blowup_exact"] is True
    terms = X.convex_decompose([Fraction(3, 4), Fraction(1, 2), Fraction(3, 4)])
    recon = [sum(w * int(y[i]) for w, y in terms) for i in range(3)]
    ok = ok and recon == [Fraction(3, 4), Fraction(1, 2), Fraction(3, 4)]
    elapsed = time.time() - t0
    _line(9, ok and elapsed < 120, "20 builds triangle-free with density floor; blowup exact bit for bit", elapsed)
    assert ok
    assert elapsed < 120


def test_criterion_10_polyad_density_suite():
    t0 = time.time()
    ok = True
    # zero-denominator convention
    cs = VertexClassSet([("V1", 2), ("V2", 2), ("V3", 2)])
    import itertools

    full = np.array(list(itertools.product(range(2), range(2))), dtype=np.int64)
    parts = []
    for span in [(1, 2), (0, 2), (0, 1)]:
        sub = VertexClassSet([(f"V{j+1}", 2) for j in span])
        parts.append(KPartiteKGraph(sub, np.empty((0, 2), dtype=np.int64)))
    from deltareg.partitions import Polyad

    empty_poly = Polyad(3, cs, parts)
    h = KPartiteKGraph(cs, np.array(list(itertools.product(range(2), repeat=3)), dtype=np.int64))
    ok = ok and E.relative_density(h, empty_poly) == 0
    # complete complex: exact count, zero slack
    cx = E.complete_complex(VertexClassSet([("A", 3), ("B", 4), ("C", 2)]))
    rep = E.dense_counting_check(cx, Fraction(1, 1000), {2: Fraction(1)})
    ok = ok and rep["count"] == rep["predicted"] == 24 and rep["exceptional_fraction"] == 0
    # partition mass monotone over an eps sweep
    cs3 = VertexClassSet([("V1", 4), ("V2", 4), ("V3", 4)])
    edges = [t for t in itertools.product(range(4), repeat=3) if (t[0] + 2 * t[1] + 3 * t[2]) % 3 == 0]
    h3 = KPartiteKGraph(cs3, np.array(edges, dtype=np.int64))
    kp = complete_kpartition(cs3, 2, 2)
    masses = []
    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        masses.append(E.is_eps_regular_partition(h3, kp, eps)["irregular_mass"])
    ok = ok and all(a >= b for a, b in zip(masses, masses[1:]))
    elapsed = time.time() - t0
    _line(10, ok and elapsed < 60, f"density conventions, exact counting, mass sweep {masses}", elapsed)
    assert ok
    assert elapsed < 60
