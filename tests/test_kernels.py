"""The kernels against brute-force Python references kept here."""

from itertools import combinations

import numpy as np
import pytest

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
    # a row paired with itself: AND is the row, XOR is empty
    pairs = np.repeat(np.arange(rows.shape[0], dtype=np.int64)[:, None], 2, axis=1)
    assert K.and_popcount_pairs(rows, pairs).tolist() == [_ones(r) for r in rows]
    assert K.xor_popcount_pairs(rows, pairs).tolist() == [0] * rows.shape[0]


@pytest.mark.parametrize("chunk_words", [K._CHUNK_WORDS, 16])
def test_pair_kernels_match_python_popcount(rows, chunk_words, monkeypatch):
    monkeypatch.setattr(K, "_CHUNK_WORDS", chunk_words)
    rng = np.random.default_rng(17)
    pairs = rng.integers(0, rows.shape[0], size=(50, 2)).astype(np.int64)
    assert K.and_popcount_pairs(rows, pairs).tolist() == [_ones(rows[i] & rows[j]) for i, j in pairs]
    assert K.xor_popcount_pairs(rows, pairs).tolist() == [_ones(rows[i] ^ rows[j]) for i, j in pairs]


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


def test_triangle_kernels_agree():
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
    assert K.triangle_count(ab, ac, bc, n) == len(ref) > 0
    assert K.triangle_list(ab, ac, bc, n, n).tolist() == [list(t) for t in ref]


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
