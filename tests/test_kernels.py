"""The kernels against brute-force Python references kept here."""

import math
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltareg import _kernels as K


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(123)
    return rng.integers(0, 1 << 63, size=(40, 6), dtype=np.int64).astype(np.uint64)


def _ones(words):
    return sum(bin(int(w)).count("1") for w in words)


def _bit(row, v):
    return (int(row[v >> 6]) >> (v & 63)) & 1


def test_popcount_rows_agree(rows):
    assert K.popcount_rows(rows).tolist() == [_ones(r) for r in rows]
    wide = np.hstack([rows, rows])  # more than 8 words: summed by numpy, not column by column
    assert K.popcount_rows(wide).tolist() == [_ones(r) for r in wide]


def test_pair_kernels_agree(rows):
    # a row paired with itself: AND is the row
    pairs = np.repeat(np.arange(rows.shape[0], dtype=np.int64)[:, None], 2, axis=1)
    assert K.and_popcount_pairs(rows, pairs).tolist() == [_ones(r) for r in rows]


@pytest.mark.parametrize("chunk_words", [K._CHUNK_WORDS, 16])
def test_pair_kernels_match_python_popcount(rows, chunk_words, monkeypatch):
    monkeypatch.setattr(K, "_CHUNK_WORDS", chunk_words)
    rng = np.random.default_rng(17)
    pairs = rng.integers(0, rows.shape[0], size=(50, 2)).astype(np.int64)
    assert K.and_popcount_pairs(rows, pairs).tolist() == [_ones(rows[i] & rows[j]) for i, j in pairs]


@pytest.mark.parametrize(
    "starts, ends",
    [([0, 2, 4], [2, 4, 6]), ([4, 0], [6, 2]), ([0, 1, 3], [1, 3, 6]), ([], [])],
    ids=["tiled", "equal-width", "ragged", "none"],
)
@pytest.mark.parametrize("chunk_words", [K._CHUNK_WORDS, 16])
def test_segmented_pairs_match_sliced_rows(rows, starts, ends, chunk_words, monkeypatch):
    monkeypatch.setattr(K, "_CHUNK_WORDS", chunk_words)  # 16 words: many chunks
    rng = np.random.default_rng(13)
    pairs = rng.integers(0, rows.shape[0], size=(50, 2)).astype(np.int64)
    got = K.and_popcount_pairs_segmented(rows, pairs, np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64))
    assert got.shape == (len(pairs), len(starts))
    for j, (s, e) in enumerate(zip(starts, ends)):
        a, b = rows[pairs[:, 0], s:e], rows[pairs[:, 1], s:e]
        assert got[:, j].tolist() == [_ones(row) for row in a & b]


def test_segmented_pairs_agree(rows):
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, rows.shape[0], size=(60, 2)).astype(np.int64)
    starts = np.array([0, 2, 4], dtype=np.int64)
    ends = np.array([2, 4, 6], dtype=np.int64)
    got = K.and_popcount_pairs_segmented(rows, pairs, starts, ends)
    # the segments tile the words, so they sum to the whole-row count
    assert got.sum(axis=1).tolist() == [_ones(rows[i] & rows[j]) for i, j in pairs]


def _over(rows, starts, ends, bounds):
    """The kernel's hits, every block's joined, as lists; each block has some."""
    blocks = list(K.and_popcount_over(rows, starts, ends, bounds))
    assert all(p.size and p.dtype == s.dtype == np.int64 for p, s in blocks)
    return [np.concatenate(x).tolist() for x in zip(*blocks)] if blocks else [[], []]


def _over_reference(rows, starts, ends, bounds):
    """Every (pair, segment) over its bound, from the gathering pair kernel
    on the list of every pair i < j."""
    pairs = np.stack(np.triu_indices(len(rows), k=1), axis=1).astype(np.int64)
    counts = K.and_popcount_pairs_segmented(rows, pairs, np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64))
    return [x.tolist() for x in np.nonzero(counts > np.array(bounds, dtype=np.int64))]


@settings(max_examples=120, deadline=None)
@given(
    n_y=st.integers(1, 9),
    words=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    tile=st.none() | st.tuples(st.integers(1, 12), st.integers(0, 5)),
    segs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=4),
    bound=st.integers(-1, 64 * 12),
    spread=st.booleans(),
    chunk_words=st.sampled_from([K._CHUNK_WORDS, 1, 5]),
)
@example(n_y=1, words=2, seed=0, density=0.5, tile=(1, 0), segs=[], bound=0, spread=False, chunk_words=K._CHUNK_WORDS)
@example(n_y=2, words=2, seed=0, density=1.0, tile=(1, 0), segs=[], bound=63, spread=False, chunk_words=K._CHUNK_WORDS)
@example(n_y=4, words=3, seed=1, density=0.5, tile=None, segs=[(0, 2), (1, 3)], bound=10, spread=True, chunk_words=1)
@example(n_y=5, words=12, seed=2, density=0.5, tile=(10, 1), segs=[], bound=300, spread=False, chunk_words=1)
@example(n_y=6, words=12, seed=3, density=0.3, tile=(12, 0), segs=[], bound=64 * 12, spread=False, chunk_words=5)
def test_over_bound_kernel_matches_the_pair_kernel_on_every_pair(n_y, words, seed, density, tile, segs, bound, spread, chunk_words):
    """The row sweep against the gathering kernel on the list of every
    pair i < j: tiled segments (one width, from any start word; wider than
    eight words they are reduced, not added by columns), ragged, unaligned
    or overlapping ones, none, one bound or one per segment, bounds no
    count passes, and partner blocks cut into chunks down to one word."""
    if tile is not None and (words - tile[1]) // tile[0] >= 1:
        w, s0 = tile
        starts = [s0 + w * i for i in range((words - s0) // w)]
        ends = [a + w for a in starts]
    else:
        starts = [min(a, b, words) for a, b in segs]
        ends = [min(max(a, b), words) for a, b in segs]
    bits = np.random.default_rng(seed).random((n_y, 64 * words)) < density
    rows = K.pack_rows(bits)
    bounds = [bound - 7 * s for s in range(len(starts))] if spread else [bound] * len(starts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "_CHUNK_WORDS", chunk_words)
        got = _over(rows, starts, ends, bounds if spread else bound)
    assert got == _over_reference(rows, starts, ends, bounds)


@pytest.mark.parametrize(
    "n_y, width, segments",
    [(5, 4, 3), (3, 1024, 1)],
    ids=["256-past-uint8", "65536-past-uint16"],
)
def test_over_bound_kernel_holds_full_segments_past_the_narrower_dtype(n_y, width, segments):
    """All-ones rows: every pair's count is the full segment, 64 * width
    bits, one past the largest value of the next narrower dtype, so every
    (pair, segment) is one above 64 * width - 1 and none above 64 * width;
    with that bound on every segment but the last, only the last is over,
    though no count is over the largest bound."""
    rows = K.complement_rows(K.zero_rows(n_y, 64 * width * segments), 64 * width * segments)
    starts = width * np.arange(segments, dtype=np.int64)
    pairs, segs = _over(rows, starts, starts + width, 64 * width - 1)
    n_pairs = n_y * (n_y - 1) // 2
    assert pairs == np.repeat(np.arange(n_pairs), segments).tolist()
    assert segs == np.tile(np.arange(segments), n_pairs).tolist()
    assert _over(rows, starts, starts + width, 64 * width) == [[], []]
    bounds = np.full(segments, 64 * width)
    bounds[-1] -= 1
    assert _over(rows, starts, starts + width, bounds) == [list(range(n_pairs)), [segments - 1] * n_pairs]


def test_masked_degrees_agree(rows):
    rng = np.random.default_rng(5)
    mask = rng.integers(0, 1 << 63, size=6, dtype=np.int64).astype(np.uint64)
    assert K.masked_degrees(rows, mask).tolist() == [_ones(r & mask) for r in rows]


# -- the packed-row format ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 200])
def test_packed_row_format_matches_per_bit_reference(n):
    rng = np.random.default_rng(n)
    bits = rng.random((7, n)) < 0.5
    rows = K.pack_rows(bits)
    assert rows.dtype == np.uint64 and rows.shape == (7, K.row_words(n))
    assert np.array_equal(rows, _pack(bits))
    assert np.array_equal(K.unpack_rows(rows, n), bits)
    comp = K.complement_rows(rows, n)
    assert np.array_equal(comp, _pack(~bits))
    assert not K.stray_bits(rows, n) and not K.stray_bits(comp, n)
    set_rows = K.zero_rows(7, n)
    K.set_bits(set_rows, *np.nonzero(bits))
    assert np.array_equal(set_rows, rows)
    for u in range(7):
        assert K.unpack_row(rows[u], n).tolist() == np.flatnonzero(bits[u]).tolist()
        assert np.array_equal(K.pack_indices(np.flatnonzero(bits[u]), n), rows[u])
    assert [K.bit_at(rows, u, v) for u in range(7) for v in range(n)] == bits.ravel().tolist()
    assert [x.tolist() for x in K.nonzero_bits(rows)] == [x.tolist() for x in np.nonzero(bits)]
    # columns picked by an index array come out in F order; they pack the same
    wide = np.repeat(bits, 2, axis=1)
    assert np.array_equal(K.pack_rows(wide[:, 2 * np.arange(n)]), rows)
    if n % 64:
        stray = rows.copy()
        stray[3, -1] |= np.uint64(1) << np.uint64(63)
        assert K.stray_bits(stray, n)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_first_bit_is_the_first_pair_of_nonzero_bits(n):
    """Each single set bit of a 5 x n matrix, every prefix-cleared matrix
    of a random one, and the empty matrix."""
    assert K.first_bit(K.zero_rows(5, n)) is None
    for u in range(5):
        for v in range(n):
            rows = K.zero_rows(5, n)
            K.set_bits(rows, [u], [v])
            assert K.first_bit(rows) == (u, v)
    bits = np.random.default_rng(n).random((5, n)) < 0.3
    for cut in range(5 * n + 1):
        cleared = bits.copy().reshape(-1)
        cleared[:cut] = False
        rows = K.pack_rows(cleared.reshape(5, n))
        r, c = K.nonzero_bits(rows)
        assert K.first_bit(rows) == ((int(r[0]), int(c[0])) if r.size else None)


def test_triangle_kernels_agree(monkeypatch):
    rng = np.random.default_rng(42)
    n = 30
    words = (n + 63) // 64

    def rand_bits():
        out = np.zeros((n, words), dtype=np.uint64)
        for u in range(n):
            for v in range(n):
                if rng.random() < 0.3:
                    out[u, v >> 6] |= np.uint64(1) << np.uint64(v & 63)
        return out

    ab, ac, bc = rand_bits(), rand_bits(), rand_bits()
    ref = [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if _bit(ab[a], b) and _bit(ac[a], c) and _bit(bc[b], c)
    ]
    assert K.triangle_count(ab, ac, bc) == len(ref) > 0
    assert K.triangle_list(ab, ac, bc).tolist() == [list(t) for t in ref]
    # multi-word rows, empty and complete graphs; 3 words per chunk puts a
    # few edges in each chunk
    for chunk in (K._CHUNK_WORDS, 3):
        monkeypatch.setattr(K, "_CHUNK_WORDS", chunk)
        for na, nb, nc in ((1, 1, 1), (5, 70, 66), (9, 3, 130)):
            for p in (0.0, 1.0, 0.2, 0.6):
                ab, ac, bc = (rng.random(shape) < p for shape in ((na, nb), (na, nc), (nb, nc)))
                ref = [t for t in product(range(na), range(nb), range(nc)) if ab[t[:2]] and ac[t[0], t[2]] and bc[t[1:]]]
                packed = K.pack_rows(ab), K.pack_rows(ac), K.pack_rows(bc)
                assert K.triangle_count(*packed) == len(ref), (chunk, na, nb, nc, p)
                tris = K.triangle_list(*packed)
                assert tris.dtype == np.int64 and tris.tolist() == [list(t) for t in ref], (chunk, na, nb, nc, p)
                assert tris.shape == (len(ref), 3)


# -- the exact subset engine -------------------------------------------------


def _pack(bits):
    nl, nr = bits.shape
    rows = np.zeros((nl, (nr + 63) // 64), dtype=np.uint64)
    for u, v in zip(*np.nonzero(bits)):
        rows[u, v >> 6] |= np.uint64(1) << np.uint64(v & 63)
    return rows


_EXTREMES = {}


def _extremes(bits, a, b):
    """(S, e_min(S), e_max(S)) for every a-subset S in lexicographic order,
    from one sort of S's column sums each; kept per input, which is checked
    at several thresholds and chunk sizes."""
    key = (bits.tobytes(), bits.shape, a, b)
    if key not in _EXTREMES:
        _EXTREMES[key] = []
        for S in combinations(range(bits.shape[0]), a):
            cols = sorted(int(x) for x in bits[list(S)].sum(axis=0))
            _EXTREMES[key].append((list(S), sum(cols[:b]), sum(cols[len(cols) - b :])))
    return _EXTREMES[key]


def _scan(bits, a, b, lo=None, hi=None):
    """Per-subset reference: with lo or hi, the first violating S with its
    extremes, else (None, None, None); with neither, the extremes over all
    a-subsets (None when there is none)."""
    every = _extremes(bits, a, b)
    if lo is None and hi is None:
        return None, min((e[1] for e in every), default=None), max((e[2] for e in every), default=None)
    for S, low, high in every:
        if (lo is not None and low < lo) or (hi is not None and high > hi):
            return S, low, high
    return None, None, None


def _engine(bits, a, b, lo=None, hi=None):
    S, e_min, e_max = K.subset_min_edges(_pack(bits), bits.shape[1], a, b, lo=lo, hi=hi)
    return (None if S is None else S.tolist()), e_min, e_max


def _dense(rng, nl, nr, r, plant=None):
    """Rows missing r random columns each; with plant = (a, b) the last a
    rows miss the same b columns instead, an empty block in the lex-last
    a-subset (the benchmark's exact-pairs shapes)."""
    bits = np.ones((nl, nr), dtype=bool)
    rest = nl - plant[0] if plant else nl
    if plant:
        bits[rest:, rng.choice(nr, plant[1], replace=False)] = False
    for u in range(rest):
        bits[u, rng.choice(nr, r, replace=False)] = False
    return bits


def _engine_inputs(widths):
    """(bits, a, b, extra lo thresholds): random pairs with n_left up to 8,
    then dense pairs with n_left 10 to 14 at the delta-regularity threshold
    lo = ceil(e a b / (2 n_left n_right)) and one below it."""
    rng = np.random.default_rng(9)
    for _ in range(60):
        nl, nr = int(rng.integers(1, 9)), int(rng.integers(*widths))
        bits = rng.random((nl, nr)) < rng.uniform(0.1, 0.9)
        yield bits, int(rng.integers(1, nl + 1)), int(rng.integers(1, nr + 1)), ()
    for nl, delta in ((10, 4), (12, 3), (14, 2)):
        nr = int(rng.integers(max(widths[0], 4), widths[1]))
        a, b = -(-nl // delta), -(-nr // delta)
        for bits in (_dense(rng, nl, nr, b // 2), _dense(rng, nl, nr, b // 2, plant=(a, b))):
            lo = -(-int(bits.sum()) * a * b // (2 * nl * nr))
            yield bits, a, b, (lo, lo - 1)


@pytest.mark.parametrize("chunk", [K._SUBSET_CHUNK, 24, 1])
@pytest.mark.parametrize("widths", [(1, 9), (65, 131)])  # one row word; two or three
def test_subset_engine_matches_per_subset_scan(chunk, widths, monkeypatch):
    monkeypatch.setattr(K, "_SUBSET_CHUNK", chunk)  # 24 or 1 row words: a search spans many blocks
    rng = np.random.default_rng(10)
    for trial, (bits, a, b, los) in enumerate(_engine_inputs(widths)):
        full = _scan(bits, a, b)
        assert _engine(bits, a, b) == full, trial
        # thresholds inside the range of the extremes make some S violate
        lo = int(rng.integers(full[1], full[2] + 2))
        hi = int(rng.integers(full[1] - 1, full[2] + 1))
        for bounds in ((lo, None), (None, hi), (lo, hi), *((x, None) for x in los)):
            assert _engine(bits, a, b, *bounds) == _scan(bits, a, b, *bounds), (trial, bounds)


@pytest.mark.parametrize("chunk", [K._SUBSET_CHUNK, 30, 1])
@pytest.mark.parametrize("nl, nr", [(8, 7), (10, 65), (9, 130)])
def test_subset_engine_edge_shapes(chunk, nl, nr, monkeypatch):
    def unpacked(*args):
        raise AssertionError("the engine unpacked its rows")

    monkeypatch.setattr(K, "unpack_rows", unpacked)  # the engine reads the packed rows
    monkeypatch.setattr(K, "_SUBSET_CHUNK", chunk)
    rng = np.random.default_rng(3)
    bits = rng.random((nl, nr)) < 0.6
    # a = nl, b = 1, b = nr, a = 1 with b = nr; a >= 8 takes four bit planes
    for a, b in ((nl, 3), (3, 1), (3, nr), (nl, nr), (1, 1), (1, nr), (8, nr // 2)):
        full = _scan(bits, a, b)
        assert _engine(bits, a, b) == full, (a, b)
        assert _engine(bits, a, b, lo=full[1] + 1) == _scan(bits, a, b, lo=full[1] + 1), (a, b)
        assert _engine(bits, a, b, hi=full[2] - 1) == _scan(bits, a, b, hi=full[2] - 1), (a, b)
    # only the last 3-subset {5, 6, 7} misses a column: the scan ends on it
    last = np.ones((8, 6), dtype=bool)
    last[5:, 0] = False
    assert _engine(last, 3, 1, lo=1) == ([5, 6, 7], 0, 3)
    assert _engine(last, 3, 1) == (None, 0, 3)


def test_completions_are_the_first_subsets_in_combinations_order():
    for m, k, cap in [(1, 1, 4), (5, 1, 4), (5, 5, 4), (7, 3, 35), (9, 4, 20), (12, 6, 4096), (13, 12, 1), (20, 3, 64)]:
        got = K._completions(m, k, cap)
        assert got.dtype.kind == "u" and got.dtype.itemsize == 1 and not got.flags.writeable, (m, k, cap)
        assert got.tolist() == [list(c) for c in islice(combinations(range(m), k), cap)], (m, k, cap)
    # only the first cap subsets are built, however many there are
    assert math.comb(100, 50) >= 1 << 63
    assert K._completions(100, 50, 3).tolist() == [list(c) for c in islice(combinations(range(100), 50), 3)]


def _count_plane_builds(monkeypatch):
    """Record the row words of every block the engine builds planes for."""
    blocks, build = [], K._column_sum_planes

    def recorded(rows, idx, *args):
        blocks.append(idx.shape[0] * rows.shape[1])
        return build(rows, idx, *args)

    monkeypatch.setattr(K, "_column_sum_planes", recorded)
    return blocks


def test_subset_engine_searches_past_int64_ranks(monkeypatch):
    # the search forms no rank of the whole subset order, so C(n_left, a)
    # may pass 2^63: complete rows are decided at the root with no block;
    # on empty rows the lex-first subset violates, and the branch and bound
    # stops at its first block, whose extremes no other subset can beat
    assert math.comb(200, 100) >= 1 << 63
    blocks = _count_plane_builds(monkeypatch)
    full = K.complement_rows(K.zero_rows(200, 8), 8)
    assert K.subset_min_edges(full, 8, 100, 4, lo=400, hi=400) == (None, None, None) and not blocks
    S, e_min, e_max = K.subset_min_edges(K.zero_rows(200, 8), 8, 100, 4, lo=1)
    assert S.tolist() == list(range(100)) and (e_min, e_max) == (0, 0)
    assert K.subset_min_edges(K.zero_rows(200, 8), 8, 100, 4) == (None, 0, 0)


def test_subset_engine_blocks_hold_at_most_the_chunk_in_row_words(monkeypatch):
    blocks = _count_plane_builds(monkeypatch)
    monkeypatch.setattr(K, "_SUBSET_CHUNK", 30)
    bits = np.random.default_rng(6).random((10, 130)) < 0.5  # three row words
    full = _scan(bits, 4, 20)
    for bounds in ((None, None), (full[1] + 1, None), (None, full[2] - 1), (full[1], full[2])):
        assert _engine(bits, 4, 20, *bounds) == _scan(bits, 4, 20, *bounds), bounds
    assert max(blocks) == 30


def test_subset_engine_decides_a_regular_pair_with_no_block(monkeypatch):
    # each row misses b // 2 columns, so every minimal pair keeps density
    # >= 1/2 >= d/2: the floors' bound at the root decides the pair
    from deltareg import regularity as R
    from deltareg.graphs import BipartiteGraph, VertexClass

    blocks = _count_plane_builds(monkeypatch)
    rng = np.random.default_rng(4)
    a = b = 5  # delta 1/4 of 20
    bits = _dense(rng, 20, 20, b // 2)
    lo = -(-int(bits.sum()) * a * b // (2 * 20 * 20))
    assert _engine(bits, a, b, lo=lo) == (None, None, None)
    g = BipartiteGraph(VertexClass("A", 20), VertexClass("B", 20), _pack(bits))
    assert R.is_delta_regular_pair(g, Fraction(1, 4)).status == "regular"
    assert not blocks and _scan(bits, a, b, lo=lo) == (None, None, None)


@pytest.mark.parametrize("chunk", [K._SUBSET_CHUNK, 1])
def test_subset_engine_bound_is_tight_at_the_only_violation(chunk, monkeypatch):
    # rows 6 and 7 miss column 0, the rest are complete: S = {6, 7} alone
    # has e_min(S) = 2 = lo - 1, and the bound along its path (the root,
    # prefix {6}) is e_min(P) plus the smallest floors after P, also 2; a
    # bound one higher would skip it.  The complement is the same test for
    # e_max and the ceilings.
    monkeypatch.setattr(K, "_SUBSET_CHUNK", chunk)  # 1: every prefix on the path is bounded
    bits = np.ones((8, 8), dtype=bool)
    bits[6:, 0] = False
    assert _engine(bits, 2, 2, lo=3) == ([6, 7], 2, 4) == _scan(bits, 2, 2, lo=3)
    assert sum(e_min < 3 for _, e_min, _ in _extremes(bits, 2, 2)) == 1
    assert _engine(~bits, 2, 2, hi=1) == ([6, 7], 0, 2) == _scan(~bits, 2, 2, hi=1)
    assert sum(e_max > 1 for _, _, e_max in _extremes(~bits, 2, 2)) == 1


def test_subset_engine_column_sums_past_255():
    rng = np.random.default_rng(5)
    bits = rng.random((300, 70)) < 0.95
    assert bits.sum(axis=0).max() > 255  # uint8 column sums would wrap
    for b in (1, 30, 70):
        full = _scan(bits, 300, b)
        assert _engine(bits, 300, b) == full
        assert _engine(bits, 300, b, lo=full[1] + 1) == (list(range(300)), full[1], full[2])
