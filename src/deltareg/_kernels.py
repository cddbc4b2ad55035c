"""The packed-row format and the hot counting kernels on it, in vectorized
numpy (``np.bitwise_count``, NumPy >= 2.0).

A packed row of n bits is ``row_words(n)`` uint64 words: bit j sits in word
j // 64 at position j % 64 (LSB first), and every bit at or past n is zero.
A bit matrix is a 2-D array of such rows.  This module is the one place that
spells the format out; every other module packs, unpacks, complements and
addresses bits through the functions below.

The pair kernels work through the pairs in chunks of at most
``_CHUNK_WORDS`` words per operand, so their temporaries stay a few MB
whatever the number of pairs.  ``subset_min_edges`` is the one exact
subset-extremum search; it scans left subsets in chunks of at most
``_SUBSET_CHUNK`` column sums.
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

HAVE_NUMBA = False  # numpy is the only backend; run reports print this flag

_CHUNK_WORDS = 1 << 18
_SUBSET_CHUNK = 1 << 14


# -- the packed-row format ----------------------------------------------------


def row_words(n: int) -> int:
    """Number of uint64 words in a packed row of n bits."""
    return (n + 63) // 64


def zero_rows(m: int, n: int) -> np.ndarray:
    """m empty packed rows of n bits."""
    return np.zeros((m, row_words(n)), dtype=np.uint64)


def _tail(n: int) -> np.uint64:
    """Mask of the bits below n in the last word of a packed row."""
    return np.uint64((1 << (n % 64)) - 1) if n % 64 else ~np.uint64(0)


def stray_bits(rows: np.ndarray, n: int) -> bool:
    """Whether any packed row has a bit set at or past n."""
    return bool(np.any(rows[..., -1] & ~_tail(n)))


def pack_rows(bits) -> np.ndarray:
    """Packed rows of a 0/1 matrix (nonzero entries are set bits)."""
    bits = np.asarray(bits)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = row_words(bits.shape[-1]) * 8 - packed.shape[-1]
    if pad:
        packed = np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, pad)])
    return np.ascontiguousarray(packed).view(np.uint64)  # a column-indexed input packs in F order


def unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """uint8 0/1 matrix of packed rows of n bits (or the bits of one row)."""
    return np.unpackbits(np.ascontiguousarray(rows).view(np.uint8), axis=-1, bitorder="little")[..., :n]


def complement_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Packed complement of packed rows of n bits; the padding stays zero."""
    out = ~rows
    out[..., -1] &= _tail(n)
    return out


def pack_indices(indices, n: int) -> np.ndarray:
    """One packed row of n bits with the given indices set."""
    row = np.zeros(row_words(n), dtype=np.uint64)
    set_bits(row[None], 0, indices)
    return row


def unpack_row(row: np.ndarray, n: int) -> np.ndarray:
    """Sorted int64 indices of the set bits of one packed row of n bits."""
    return np.flatnonzero(unpack_rows(row, n)).astype(np.int64)


def set_bits(rows: np.ndarray, r, c) -> None:
    """Set bit c of row r in place, for every (r, c) pair; repeats are allowed."""
    c = np.asarray(c, dtype=np.int64)
    np.bitwise_or.at(rows, (r, c >> 6), np.uint64(1) << (c & 63).astype(np.uint64))


def bit_at(rows: np.ndarray, r: int, c: int) -> bool:
    """Bit c of row r."""
    return bool((rows[r, c >> 6] >> np.uint64(c & 63)) & np.uint64(1))


def nonzero_bits(rows: np.ndarray) -> tuple:
    """(row, column) int64 arrays of the set bits, in row-major order: one
    ``nonzero`` over the bytes and one unpack of the nonzero bytes."""
    b = np.ascontiguousarray(rows).view(np.uint8)
    r, c = np.nonzero(b)
    i, j = np.nonzero(np.unpackbits(b[r, c][:, None], axis=1, bitorder="little"))
    return r[i], c[i] * 8 + j


_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def transpose_bits(rows: np.ndarray, n_cols: int) -> np.ndarray:
    """Transpose of a packed (n_rows x n_cols) bit matrix, as packed rows.

    Bytes of eight consecutive rows form one uint64 holding an 8x8 bit
    block, which three delta swaps transpose in place (Warren, Hacker's
    Delight, 7-3); the blocks' bytes are then the output rows' bytes.
    """
    n_rows = rows.shape[0]
    b = np.ascontiguousarray(rows).view(np.uint8)
    if n_rows % 8:
        b = np.concatenate([b, np.zeros((-n_rows % 8, b.shape[1]), dtype=np.uint8)])
    x = np.ascontiguousarray(b.reshape(-1, 8, b.shape[1]).transpose(0, 2, 1)).view(np.uint64)[..., 0]
    for shift, mask in _TRANSPOSE8:
        t = (x ^ (x >> np.uint64(shift))) & np.uint64(mask)
        x = x ^ t ^ (t << np.uint64(shift))
    out = x.view(np.uint8).reshape(*x.shape, 8).transpose(1, 2, 0).reshape(-1, x.shape[0])
    buf = np.zeros((n_cols, row_words(n_rows) * 8), dtype=np.uint8)
    buf[:, : out.shape[1]] = out[:n_cols]
    return buf.view(np.uint64)


# -- counting kernels ---------------------------------------------------------


def pair_chunks(n_pairs: int, words: int):
    """Slices of a pair list, each gathering at most _CHUNK_WORDS words per row operand."""
    step = max(1, _CHUNK_WORDS // max(words, 1))
    for lo in range(0, n_pairs, step):
        yield slice(lo, min(lo + step, n_pairs))


def _row_sums(counts: np.ndarray) -> np.ndarray:
    """int64 row sums of per-word popcounts; a reduction along a short last
    axis is slow in numpy, so up to 8 words the columns are added instead."""
    if counts.shape[1] > 8:
        return counts.sum(axis=1, dtype=np.int64)
    acc = np.zeros(counts.shape[0], dtype=np.int64)
    for t in range(counts.shape[1]):
        acc += counts[:, t]
    return acc


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    return _row_sums(np.bitwise_count(rows))


def _op_popcount_pairs(op, rows, pairs):
    out = np.empty(len(pairs), dtype=np.int64)
    for sl in pair_chunks(len(pairs), rows.shape[1]):
        # np.take gathers whole rows several times faster than fancy indexing
        both = op(np.take(rows, pairs[sl, 0], axis=0), np.take(rows, pairs[sl, 1], axis=0))
        out[sl] = _row_sums(np.bitwise_count(both))
    return out


def and_popcount_pairs(rows, pairs):
    return _op_popcount_pairs(np.bitwise_and, rows, pairs)


def xor_popcount_pairs(rows, pairs):
    return _op_popcount_pairs(np.bitwise_xor, rows, pairs)


def and_popcount_pairs_segmented(rows, pairs, seg_starts, seg_ends):
    """Popcount of row_i & row_j restricted to word segments.

    Returns an array of shape (len(pairs), len(seg_starts)); segment s covers
    words [seg_starts[s], seg_ends[s]).  Used for per-cell codegree counts
    when cells are word-aligned.  Segments of one width that tile a word
    range are summed by adding one strided column per word offset; summing
    each narrow segment along its own axis is several times slower.
    """
    seg_starts = np.asarray(seg_starts, dtype=np.int64)
    widths = np.asarray(seg_ends, dtype=np.int64) - seg_starts
    ns = len(seg_starts)
    w = int(widths[0]) if ns else 0
    tiled = w > 0 and np.array_equal(seg_starts, seg_starts[0] + w * np.arange(ns)) and np.all(widths == w)
    out = np.empty((len(pairs), ns), dtype=np.int64)
    for sl in pair_chunks(len(pairs), rows.shape[1]):
        pc = np.bitwise_count(np.take(rows, pairs[sl, 0], axis=0) & np.take(rows, pairs[sl, 1], axis=0))
        if tiled:
            blocks = pc[:, seg_starts[0] : seg_starts[0] + ns * w].reshape(len(pc), ns, w)
            out[sl] = blocks[:, :, 0]
            for t in range(1, w):
                out[sl] += blocks[:, :, t]
        else:
            for s in range(ns):
                out[sl, s] = pc[:, seg_starts[s] : seg_starts[s] + widths[s]].sum(axis=1, dtype=np.int64)
    return out


def masked_degrees(rows, mask):
    """Per-row popcount of rows & mask (mask is one packed row)."""
    return _row_sums(np.bitwise_count(rows & mask[None, :]))


def triangle_count(rows_ab, rows_ac, rows_bc, nb):
    """Number of triangles (a, b, c) across a tripartite bit-packed triple.

    rows_ab: per-a bits over B; rows_ac: per-a bits over C;
    rows_bc: per-b bits over C.
    """
    total = 0
    for a in range(rows_ab.shape[0]):
        for b in unpack_row(rows_ab[a], nb):
            total += int(np.bitwise_count(rows_ac[a] & rows_bc[b]).sum(dtype=np.int64))
    return total


def triangle_list(rows_ab, rows_ac, rows_bc, nb, nc):
    """All triangles as an (m, 3) int array, lexicographically sorted."""
    tris = []
    for a in range(rows_ab.shape[0]):
        for b in unpack_row(rows_ab[a], nb):
            for c in unpack_row(rows_ac[a] & rows_bc[b], nc):
                tris.append((a, int(b), int(c)))
    return np.array(tris, dtype=np.int64).reshape(-1, 3)


def subset_min_edges(rows, n_right, a, b, lo=None, hi=None):
    """Exact extremes of e(S, T) over a-subsets S of the left side and
    b-subsets T of the right side.

    The a-subsets S are scanned in ``itertools.combinations`` order.  For
    each, e_min(S) is the sum of its b smallest column sums (the fewest edges
    any b-subset T receives from S) and e_max(S) the sum of its b largest.
    Returns ``(S, e_min(S), e_max(S))`` for the first S with e_min(S) < lo or
    e_max(S) > hi, else ``(None, min e_min, max e_max)`` over all S (both
    None when there is no a-subset).  ``lo`` and ``hi`` are exact integers,
    None leaves that side unchecked.  Column sums are at most a, so int64
    holds every e(S, T) <= a * b.  Chunks start at 64 subsets, so an early
    exit stays cheap, and double up to _SUBSET_CHUNK column sums.
    """
    deg = unpack_rows(rows, n_right).astype(np.int64)
    subsets = combinations(range(rows.shape[0]), a)
    most = max(1, _SUBSET_CHUNK // max(n_right, 1))
    e_min = e_max = None
    size = min(64, most)
    while True:
        idx = np.fromiter(islice(subsets, size), dtype=np.dtype((np.int64, a)))
        if not len(idx):
            return None, e_min, e_max
        sums = deg[idx[:, 0]]
        for j in range(1, a):
            sums += deg[idx[:, j]]
        part = np.partition(sums, [b - 1, n_right - b], axis=1)
        lows = part[:, :b].sum(axis=1)
        highs = part[:, n_right - b :].sum(axis=1)
        bad = np.zeros(len(idx), dtype=bool)
        if lo is not None:
            bad |= lows < lo
        if hi is not None:
            bad |= highs > hi
        if bad.any():
            k = int(np.argmax(bad))
            return idx[k], int(lows[k]), int(highs[k])
        low, high = int(lows.min()), int(highs.max())
        e_min = low if e_min is None else min(e_min, low)
        e_max = high if e_max is None else max(e_max, high)
        size = min(2 * size, most)
