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
subset-extremum search; it scans left subsets in lexicographic
(combinations) order, unranking each block of subsets with numpy
(``lex_subsets``), in blocks of at most ``_SUBSET_CHUNK`` gathered row
words (subsets times row words).  It works on the packed rows: a block's
column sums are a.bit_length() bit planes, added with word-parallel ripple
carries, and the sums of the b smallest and largest are read off one
popcount per value of a comparator mask (the bit-sliced adders and
popcounts of Warren, *Hacker's Delight*, 2nd ed., 2012).  Its counts are
int64, and it refuses C(n_left, a) >= 2^63, since subset ranks are int64.
"""

from __future__ import annotations

import math

import numpy as np

HAVE_NUMBA = False  # numpy is the only backend; run reports print this flag

_CHUNK_WORDS = 1 << 18
_SUBSET_CHUNK = 1 << 12


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
    if pad:  # np.pad costs tens of microseconds a call, a zero block one
        packed = np.concatenate([packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
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


def first_bit(rows: np.ndarray):
    """(row, column) of the first set bit in row-major order, the first pair
    of ``nonzero_bits``, or None when no bit is set: one scan for the first
    non-zero word, then its lowest set bit."""
    flat = np.ascontiguousarray(rows).reshape(-1)
    w = int(np.argmax(flat != 0)) if flat.size else 0
    word = int(flat[w]) if flat.size else 0
    if word == 0:
        return None
    r, q = divmod(w, rows.shape[-1])
    return r, 64 * q + (word & -word).bit_length() - 1


_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def transpose_bits(rows: np.ndarray, n_cols: int) -> np.ndarray:
    """Transpose of a packed (n_rows x n_cols) bit matrix, as packed rows.

    Bytes of eight consecutive rows form one uint64 holding an 8x8 bit
    block, which three delta swaps transpose in place, through one scratch
    array (Warren, Hacker's Delight, 7-3); the blocks' bytes are then the
    output rows' bytes, copied once, into a zero-padded buffer only when
    the rows do not fill whole words.
    """
    n_rows = rows.shape[0]
    b = np.ascontiguousarray(rows).view(np.uint8)
    if n_rows % 8:
        b = np.concatenate([b, np.zeros((-n_rows % 8, b.shape[1]), dtype=np.uint8)])
    x = np.ascontiguousarray(b.reshape(b.shape[0] // 8, 8, b.shape[1]).transpose(0, 2, 1)).view(np.uint64)[..., 0]
    t = np.empty_like(x)
    for shift, mask in _TRANSPOSE8:
        np.right_shift(x, np.uint64(shift), out=t)
        np.bitwise_xor(t, x, out=t)
        np.bitwise_and(t, np.uint64(mask), out=t)
        np.bitwise_xor(x, t, out=x)
        np.left_shift(t, np.uint64(shift), out=t)
        np.bitwise_xor(x, t, out=x)
    out = x.view(np.uint8).reshape(x.shape[0], 8 * x.shape[1])[:, :n_cols].T  # output row 8c + k: bit k of byte column c
    if n_rows % 64 == 0:
        return np.ascontiguousarray(out).view(np.uint64)
    buf = np.zeros((n_cols, row_words(n_rows) * 8), dtype=np.uint8)
    buf[:, : out.shape[1]] = out
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


def and_popcount_pairs(rows, pairs):
    out = np.empty(len(pairs), dtype=np.int64)
    for sl in pair_chunks(len(pairs), rows.shape[1]):
        # np.take gathers whole rows several times faster than fancy indexing
        out[sl] = _row_sums(np.bitwise_count(np.take(rows, pairs[sl, 0], axis=0) & np.take(rows, pairs[sl, 1], axis=0)))
    return out


def _segments(seg_starts, seg_ends):
    """int64 segment starts and widths, and whether the segments share one
    width and tile a word range in order."""
    seg_starts = np.asarray(seg_starts, dtype=np.int64)
    widths = np.asarray(seg_ends, dtype=np.int64) - seg_starts
    w = int(widths[0]) if len(seg_starts) else 0
    tiled = w > 0 and np.array_equal(seg_starts, seg_starts[0] + w * np.arange(len(seg_starts))) and np.all(widths == w)
    return seg_starts, widths, tiled


def _segment_sums(pc, seg_starts, widths, tiled, out):
    """Write the sums of the per-word popcounts pc over each word segment
    into out, of shape (len(pc), segments).  Segments of one width that tile
    a word range are summed as ``_row_sums`` sums rows: up to 8 words wide
    by adding one strided column per word offset, wider by one reduction."""
    if tiled:
        ns, w = len(seg_starts), int(widths[0])
        blocks = pc[:, seg_starts[0] : seg_starts[0] + ns * w].reshape(len(pc), ns, w)
        if w > 8:
            blocks.sum(axis=2, dtype=out.dtype, out=out)
            return
        out[...] = blocks[:, :, 0]
        for t in range(1, w):
            out += blocks[:, :, t]
    else:
        for s in range(len(seg_starts)):
            out[:, s] = pc[:, seg_starts[s] : seg_starts[s] + widths[s]].sum(axis=1, dtype=out.dtype)


def and_popcount_pairs_segmented(rows, pairs, seg_starts, seg_ends):
    """Popcount of row_i & row_j restricted to word segments.

    Returns an array of shape (len(pairs), len(seg_starts)); segment s covers
    words [seg_starts[s], seg_ends[s]).  No code of the package calls it:
    it is the reference the kernel tests hold ``and_popcount_over`` to, and
    a function the benchmark's tracer hooks.
    """
    seg_starts, widths, tiled = _segments(seg_starts, seg_ends)
    out = np.empty((len(pairs), len(seg_starts)), dtype=np.int64)
    for sl in pair_chunks(len(pairs), rows.shape[1]):
        pc = np.bitwise_count(np.take(rows, pairs[sl, 0], axis=0) & np.take(rows, pairs[sl, 1], axis=0))
        _segment_sums(pc, seg_starts, widths, tiled, out[sl])
    return out


def and_popcount_over(rows, seg_starts, seg_ends, bounds):
    """Every pair i < j of rows, numbered in ``np.triu_indices(len(rows),
    1)`` order, and word segment s where the popcount of row_i & row_j over
    words [seg_starts[s], seg_ends[s]) is above bounds[s] (one bound
    broadcasts), yielded as two non-empty int64 arrays per block of one
    row's pairs, in pair, then segment order, so a caller may stop early.

    Each row is ANDed with the contiguous block of rows after it, at most
    ``_CHUNK_WORDS`` words at a time, into reused scratch: only one block's
    hits have an entry per pair.  A block's counts, summed in the smallest
    unsigned dtype that holds 64 times the widest segment, are compared per
    segment only when their largest is above the smallest bound.
    """
    n, words = rows.shape
    seg_starts, widths, tiled = _segments(seg_starts, seg_ends)
    bounds = np.broadcast_to(np.asarray(bounds, dtype=np.int64), seg_starts.shape)
    if n < 2 or not len(seg_starts):
        return
    lowest = int(bounds.min())
    step = min(n - 1, max(1, _CHUNK_WORDS // max(words, 1)))
    both = np.empty((step, words), dtype=np.uint64)
    pc = np.empty((step, words), dtype=np.uint8)
    counts = np.empty((step, len(seg_starts)), dtype=np.min_scalar_type(64 * int(widths.max())))
    at = 0  # the number of the pair (i, lo)
    for i in range(n - 1):
        for lo in range(i + 1, n, step):
            h = min(step, n - lo)
            np.bitwise_and(rows[lo : lo + h], rows[i], out=both[:h])
            np.bitwise_count(both[:h], out=pc[:h])
            _segment_sums(pc[:h], seg_starts, widths, tiled, counts[:h])
            if counts[:h].max() > lowest:
                r, s = np.nonzero(counts[:h] > bounds)
                if r.size:
                    yield at + r, s
            at += h


def masked_degrees(rows, mask):
    """Per-row popcount of rows & mask (mask is one packed row)."""
    return _row_sums(np.bitwise_count(rows & mask[None, :]))


def _common_neighbours(rows_ab, rows_ac, rows_bc):
    """Per chunk of the a-b edges, in row-major order: their a and b ids and
    the AND of each edge's a-C row and b-C row (its common C-neighbours).
    rows_ab: per-a bits over B; rows_ac: per-a bits over C; rows_bc: per-b
    bits over C."""
    ea, eb = nonzero_bits(rows_ab)
    for sl in pair_chunks(len(ea), rows_ac.shape[1]):
        yield ea[sl], eb[sl], np.take(rows_ac, ea[sl], axis=0) & np.take(rows_bc, eb[sl], axis=0)


def triangle_count(rows_ab, rows_ac, rows_bc):
    """Number of triangles (a, b, c) across a tripartite bit-packed triple."""
    chunks = _common_neighbours(rows_ab, rows_ac, rows_bc)
    return sum(int(np.bitwise_count(common).sum(dtype=np.int64)) for _, _, common in chunks)


def triangle_list(rows_ab, rows_ac, rows_bc):
    """All triangles as an (m, 3) int64 array, lexicographically sorted,
    since the edges and each edge's common neighbours come in order."""
    tris = [np.empty((0, 3), dtype=np.int64)]
    for ea, eb, common in _common_neighbours(rows_ab, rows_ac, rows_bc):
        k, c = nonzero_bits(common)
        tris.append(np.stack([ea[k], eb[k], c], axis=1))
    return np.concatenate(tris)


# -- the exact subset engine --------------------------------------------------


def lex_table(n: int, a: int) -> np.ndarray:
    """(a, n - a + 1) int64 table whose row j holds C(x, a - j) for
    a - 1 - j <= x <= n - 1 - j, the values position j of an a-subset of
    range(n) can take in ``lex_subsets``; computed in Python integers.  Each
    entry is at most C(n - 1, a), so int64 holds the table whenever it holds
    C(n, a).
    """
    table = np.empty((a, n - a + 1), dtype=np.int64)
    for j in range(a):
        k, c, row = a - j, 1, [0]
        for x in range(k, n - j):  # c = C(x, k)
            row.append(c)
            c = c * (x + 1) // (x + 1 - k)
        table[j] = row
    return table


def lex_subsets(table: np.ndarray, start: int, count: int) -> np.ndarray:
    """The a-subsets of range(n) of lexicographic ranks start .. start +
    count - 1 (``combinations`` order), as a (count, a) int64 array;
    ``table`` is ``lex_table(n, a)`` and C(n, a) must be below 2^63.

    In the combinatorial number system the subset c_0 < ... < c_{a-1} of
    rank r has C(n, a) - 1 - r = sum_j C(n - 1 - c_j, a - j), and each
    n - 1 - c_j is the largest x with C(x, a - j) at most what is left of
    that sum: one ``searchsorted`` per position for the whole block.
    """
    a, width = table.shape
    n = a + width - 1
    top = math.comb(n, a) - 1 - start
    rest = np.arange(top, top - count, -1, dtype=np.int64)
    out = np.empty((a, count), dtype=np.int64)  # transposed, so each position's column is contiguous
    for j in range(a):
        i = np.searchsorted(table[j], rest, side="right") - 1  # x = a - 1 - j + i
        rest -= np.take(table[j], i)
        np.subtract(n - a + j, i, out=out[j])
    return out.T


def _column_sum_planes(rows: np.ndarray, idx: np.ndarray, a: int) -> np.ndarray:
    """(B, count, words) bit planes of the column sums of the a-subsets in
    the rows of ``idx``, B = a.bit_length(): bit j of plane i is bit i of
    the sum of column j.  Each gathered row is added in with a ripple carry
    (an AND and an XOR per plane, in place); after j + 1 rows the sums fit
    in (j + 1).bit_length() planes, so no carry leaves the top one."""
    count, words = idx.shape[0], rows.shape[1]
    planes = np.zeros((a.bit_length(), count, words), dtype=np.uint64)
    x, carry = np.empty((2, count, words), dtype=np.uint64)
    rows.take(idx[:, 0], axis=0, out=planes[0])
    for j in range(1, a):
        rows.take(idx[:, j], axis=0, out=x)
        top = (j + 1).bit_length() - 1
        for i in range(top):
            np.bitwise_and(planes[i], x, out=carry)
            np.bitwise_xor(planes[i], x, out=planes[i])
            x, carry = carry, x
        np.bitwise_xor(planes[top], x, out=planes[top])
    return planes


def _columns_above(planes: np.ndarray, a: int) -> np.ndarray:
    """(a, count) int64 array G: G[v, s] is the number of columns whose sum
    in subset s is above v.  The mask of such columns is the borrow out of
    v - sum, taken bit by bit from the lowest 0 bit of v (below it the
    borrow is 0): a 0 bit of v ORs in that plane, a 1 bit ANDs it.  Every
    v < a < 2^B has a 0 bit among the B planes.  Padding columns have sum
    0 and never pass v >= 0."""
    above = np.empty((a,) + planes.shape[1:], dtype=np.uint64)
    for v in range(a):
        low = (~v & (v + 1)).bit_length() - 1
        out = above[v]
        np.copyto(out, planes[low])
        for i in range(low + 1, len(planes)):
            if v >> i & 1:
                np.bitwise_and(out, planes[i], out=out)
            else:
                np.bitwise_or(out, planes[i], out=out)
    return np.bitwise_count(above).sum(axis=-1, dtype=np.int64)


def subset_min_edges(rows, n_right, a, b, lo=None, hi=None):
    """Exact extremes of e(S, T) over a-subsets S of the left side and
    b-subsets T of the right side.

    The a-subsets S are scanned in lexicographic (combinations) order,
    unranked a block at a time by ``lex_subsets``; C(n_left, a) must be
    below 2^63 (else ``ValueError``, before any scan), since ranks are
    int64.  For each S, e_min(S) is the sum of its b smallest column sums
    (the fewest edges any b-subset T receives from S) and e_max(S) the sum
    of its b largest.  Returns ``(S, e_min(S), e_max(S))`` for the first S
    with e_min(S) < lo or e_max(S) > hi, else ``(None, min e_min, max
    e_max)`` over all S (both None when there is no a-subset).  ``lo`` and
    ``hi`` are exact integers, None leaves that side unchecked.

    The packed rows are never unpacked.  A block's column sums are kept as
    B = a.bit_length() uint64 bit planes per row word (``_column_sum_planes``),
    which hold every sum up to a.  A sum s is the number of v < a below
    it, so with G_v(S) the number of columns whose sum is above v
    (``_columns_above``, one popcount per v), e_min(S) = sum_v max(0, G_v -
    (n_right - b)), since the n_right - G_v sums at most v come first in
    sorted order, and e_max(S) = sum_v min(b, G_v).  No column sum is
    selected or sorted.  Counts are int64, which holds every e(S, T) <=
    a * b.  Blocks start at 64 subsets, so an early exit stays cheap, and
    double up to _SUBSET_CHUNK gathered row words (subsets times row
    words), so the planes of a block take at most B * _SUBSET_CHUNK words.
    """
    n = rows.shape[0]
    total = math.comb(n, a)
    if total >= 1 << 63:
        raise ValueError(f"C({n}, {a}) is not below 2^63")
    if not total:
        return None, None, None
    table = lex_table(n, a)
    most = max(1, _SUBSET_CHUNK // max(rows.shape[1], 1))
    e_min = e_max = None
    start, size = 0, min(64, most)
    while start < total:
        idx = lex_subsets(table, start, min(size, total - start))
        above = _columns_above(_column_sum_planes(rows, idx, a), a)
        lows = np.maximum(above - (n_right - b), 0).sum(axis=0)
        highs = np.minimum(above, b).sum(axis=0)
        bad = np.zeros(len(idx), dtype=bool)
        if lo is not None:
            bad |= lows < lo
        if hi is not None:
            bad |= highs > hi
        if bad.any():
            k = int(np.argmax(bad))
            return idx[k].copy(), int(lows[k]), int(highs[k])
        low, high = int(lows.min()), int(highs.max())
        e_min = low if e_min is None else min(e_min, low)
        e_max = high if e_max is None else max(e_max, high)
        start += len(idx)
        size = min(2 * size, most)
    return None, e_min, e_max
