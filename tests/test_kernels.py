"""The kernels against brute-force Python references kept here."""

import math
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


def _scan(bits, a, b, lo=None, hi=None):
    """Per-subset reference: the first violating S with its extremes, else
    the extremes over all a-subsets."""
    e_min = e_max = None
    for S in combinations(range(bits.shape[0]), a):
        cols = sorted(int(x) for x in bits[list(S)].sum(axis=0))
        low, high = sum(cols[:b]), sum(cols[len(cols) - b :])
        if (lo is not None and low < lo) or (hi is not None and high > hi):
            return list(S), low, high
        e_min = low if e_min is None else min(e_min, low)
        e_max = high if e_max is None else max(e_max, high)
    return None, e_min, e_max


def _engine(bits, a, b, lo=None, hi=None):
    S, e_min, e_max = K.subset_min_edges(_pack(bits), bits.shape[1], a, b, lo=lo, hi=hi)
    return (None if S is None else S.tolist()), e_min, e_max


@pytest.mark.parametrize("chunk", [K._SUBSET_CHUNK, 24])
def test_subset_engine_matches_per_subset_scan(chunk, monkeypatch):
    monkeypatch.setattr(K, "_SUBSET_CHUNK", chunk)  # 24 column sums: a scan spans many chunks
    rng = np.random.default_rng(9)
    for trial in range(60):
        nl, nr = (int(x) for x in rng.integers(1, 9, size=2))
        bits = rng.random((nl, nr)) < rng.uniform(0.1, 0.9)
        a, b = int(rng.integers(1, nl + 1)), int(rng.integers(1, nr + 1))
        full = _scan(bits, a, b)
        assert _engine(bits, a, b) == full, trial
        # thresholds inside the range of the extremes make some S violate
        lo = int(rng.integers(full[1], full[2] + 2))
        hi = int(rng.integers(full[1] - 1, full[2] + 1))
        for bounds in ((lo, None), (None, hi), (lo, hi)):
            assert _engine(bits, a, b, *bounds) == _scan(bits, a, b, *bounds), (trial, bounds)


@pytest.mark.parametrize("chunk", [K._SUBSET_CHUNK, 30])
def test_subset_engine_edge_shapes(chunk, monkeypatch):
    monkeypatch.setattr(K, "_SUBSET_CHUNK", chunk)
    rng = np.random.default_rng(3)
    bits = rng.random((8, 7)) < 0.6
    for a, b in ((8, 3), (3, 1), (3, 7), (8, 7), (1, 1)):  # a = nl, b = 1, b = nr
        full = _scan(bits, a, b)
        assert _engine(bits, a, b) == full, (a, b)
        assert _engine(bits, a, b, lo=full[1] + 1) == _scan(bits, a, b, lo=full[1] + 1), (a, b)
        assert _engine(bits, a, b, hi=full[2] - 1) == _scan(bits, a, b, hi=full[2] - 1), (a, b)
    # only the last 3-subset {5, 6, 7} misses a column: the scan ends on it
    last = np.ones((8, 6), dtype=bool)
    last[5:, 0] = False
    assert _engine(last, 3, 1, lo=1) == ([5, 6, 7], 0, 3)
    assert _engine(last, 3, 1) == (None, 0, 3)


def test_lex_subsets_unrank_combinations_order():
    for n, a in [(1, 1), (5, 1), (5, 5), (7, 3), (9, 4), (12, 6), (13, 12), (20, 3)]:
        table = K.lex_table(n, a)
        total = math.comb(n, a)
        assert K.lex_subsets(table, 0, total).tolist() == [list(c) for c in combinations(range(n), a)], (n, a)
        for start in {total // 3, total // 2, max(total - 2, 0)}:  # blocks that start mid-sequence
            count = min(5, total - start)
            want = [list(c) for c in islice(combinations(range(n), a), start, start + count)]
            assert K.lex_subsets(table, start, count).tolist() == want, (n, a, start)
    # C(x, 50) for x < 100 passes 2^63; the table keeps to the values each
    # position can take, all at most C(99, 99) here
    assert math.comb(99, 50) >= 1 << 63
    table = K.lex_table(100, 99)
    assert table.shape == (99, 2) and int(table.max()) <= math.comb(99, 99)
    assert K.lex_subsets(table, 0, 100).tolist() == [list(c) for c in combinations(range(100), 99)]
    assert K.lex_subsets(table, 50, 3).tolist() == [list(c) for c in islice(combinations(range(100), 99), 50, 53)]
    # the largest middle binomial below 2^63: its last subset and the one
    # after rank C(66, 33) // 2, whose tail is fixed by the sum identity
    table = K.lex_table(66, 33)
    assert int(table.max()) <= math.comb(65, 33) < math.comb(66, 33) < 1 << 63
    assert K.lex_subsets(table, math.comb(66, 33) - 1, 1).tolist() == [list(range(33, 66))]
    S = K.lex_subsets(table, math.comb(66, 33) // 2, 1)[0].tolist()
    assert S == sorted(set(S)) and _lex_rank(S, 66) == math.comb(66, 33) // 2


def _lex_rank(S, n):
    """Lexicographic rank of the sorted subset S of range(n): the subsets
    before it branch off at some position j to a smaller element."""
    a, rank, prev = len(S), 0, -1
    for j, c in enumerate(S):
        rank += sum(math.comb(n - 1 - x, a - 1 - j) for x in range(prev + 1, c))
        prev = c
    return rank


def test_subset_engine_refuses_counts_past_int64_before_scanning(monkeypatch):
    def boom(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(K, "lex_table", boom)
    monkeypatch.setattr(K, "unpack_rows", boom)
    with pytest.raises(ValueError, match="2\\^63"):
        K.subset_min_edges(K.zero_rows(200, 8), 8, 100, 4)
    with pytest.raises(ValueError):
        K.subset_min_edges(K.zero_rows(67, 8), 8, 33, 4)  # C(67, 33) is just past 2^63
    monkeypatch.undo()
    # C(66, 33) is below 2^63: the first subset already violates lo
    S, e_min, e_max = K.subset_min_edges(K.zero_rows(66, 8), 8, 33, 4, lo=1)
    assert S.tolist() == list(range(33)) and (e_min, e_max) == (0, 0)


def test_subset_engine_column_sums_past_255():
    rng = np.random.default_rng(5)
    bits = rng.random((300, 70)) < 0.95
    assert bits.sum(axis=0).max() > 255  # uint8 column sums would wrap
    for b in (1, 30, 70):
        full = _scan(bits, 300, b)
        assert _engine(bits, 300, b) == full
        assert _engine(bits, 300, b, lo=full[1] + 1) == (list(range(300)), full[1], full[2])
