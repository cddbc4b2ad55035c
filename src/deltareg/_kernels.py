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
subset-extremum search: depth first over left-subset prefixes in
lexicographic (combinations) order, it skips each subtree that a monotone
row-degree bound clears and scans the rest in blocks of at most
``_SUBSET_CHUNK`` gathered row words (subsets times row words), sliced from
one table of combinations per subtree shape (``_completions``).  It works on
the packed rows: a block's column sums are a.bit_length() bit planes, added
with word-parallel ripple carries, and the sums of the b smallest and
largest are read off one popcount per value of a comparator mask (the
bit-sliced adders and popcounts of Warren, *Hacker's Delight*, 2nd ed.,
2012).  Its counts are int64.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, combinations, islice

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


@functools.lru_cache(maxsize=64)
def _completions(m: int, k: int, cap: int) -> np.ndarray:
    """The first min(C(m, k), cap) k-subsets of range(m) in lexicographic
    (combinations) order, as a read-only array of rows in the smallest
    unsigned dtype that holds m: built once per shape, it serves every block
    of every search that scans that shape."""
    count, dtype = min(math.comb(m, k), cap), np.min_scalar_type(m)
    out = np.fromiter(chain.from_iterable(islice(combinations(range(m), k), count)), dtype=dtype, count=count * k)
    out.flags.writeable = False
    return out.reshape(count, k)


def _column_sum_planes(rows: np.ndarray, idx: np.ndarray, a: int, base: np.ndarray, depth: int) -> np.ndarray:
    """(B, count, words) bit planes of the column sums of a prefix of
    ``depth`` rows, whose (B, words) planes are ``base``, extended by the
    rows each row of ``idx`` names, B = a.bit_length(): bit j of plane i is
    bit i of the sum of column j.  Each gathered row is added in with a
    ripple carry (an AND and an XOR per plane, in place); after j rows the
    sums fit in j.bit_length() planes, so no carry leaves the top one."""
    count, words = idx.shape[0], rows.shape[1]
    planes = np.empty((a.bit_length(), count, words), dtype=np.uint64)
    planes[...] = base[:, None, :]
    x, carry = np.empty((2, count, words), dtype=np.uint64)
    for t in range(idx.shape[1]):
        rows.take(idx[:, t], axis=0, out=x)
        top = (depth + t + 1).bit_length() - 1
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

    e_min(S) is the sum of S's b smallest column sums (the fewest edges any
    b-subset T receives from S) and e_max(S) the sum of its b largest.
    With ``lo`` or ``hi`` (exact integers; None leaves that side unchecked)
    it returns ``(S, e_min(S), e_max(S))`` for the first S in lexicographic
    (combinations) order with e_min(S) < lo or e_max(S) > hi, else ``(None,
    None, None)``; with neither, ``(None, min e_min, max e_max)``.

    The search runs depth first over prefixes P in that order and skips
    each subtree in which no S can violate (branch and bound: Land and Doig,
    Econometrica 1960; without lo and hi the sides are the incumbents).
    Column sums only grow as rows join S, and a row j adds at least its
    floor max(0, deg_j - (n_right - b)) to e_min and at most its ceiling
    min(b, deg_j) to e_max, so every S extending P has e_min(S) >= e_min(P)
    plus the a - |P| smallest floors of the rows after P's last row, and
    e_max(S) <= e_max(P) plus the a - |P| largest ceilings (one suffix
    table).  A skipped subtree holds no violation, so the first violating S
    is the one a full scan finds.

    A subtree of at most ``_SUBSET_CHUNK`` gathered row words (subsets
    times row words) is scanned in blocks sliced from ``_completions``,
    which start at 64 subsets when a violation ends the search, double, and
    may run on into the next siblings; a larger one has its children's sums
    and bounds computed as one block.  The packed rows are never unpacked.
    Column sums are kept as B = a.bit_length() uint64 bit planes per row
    word (``_column_sum_planes``, from the prefix's planes).  A sum s is the
    number of v < a below it, so with G_v(S) the number of columns whose sum
    is above v (``_columns_above``, one popcount per v), e_min(S) = sum_v
    max(0, G_v - (n_right - b)), since the n_right - G_v sums at most v come
    first in sorted order, and e_max(S) = sum_v min(b, G_v).  No column sum
    is selected or sorted.  Counts are int64, which holds every e(S, T) <=
    a * b.
    """
    n, words = rows.shape
    if not 0 < a <= n:
        return None, None, None
    degs = popcount_rows(rows)
    floors, ceils = np.maximum(degs - (n_right - b), 0), np.minimum(degs, b)
    most = max(1, _SUBSET_CHUNK // max(words, 1))
    search = lo is not None or hi is not None
    # e_min below side[0] or e_max above side[1] violates (e_min >= 0 and
    # e_max <= a * b); without lo and hi the sides are the incumbents
    side = [0 if lo is None else lo, a * b if hi is None else hi] if search else [a * b + 1, -1]
    size = min(64, most) if search else most
    table = None  # [0 (1), j, k]: the k smallest floors (minus the k largest ceilings) of rows j..
    # pending prefixes, lexicographically next on top: (P, its planes, its
    # bounds, its number of completions, its parent and the parent's planes)
    root = ([], np.zeros((a.bit_length(), words), dtype=np.uint64))
    stack = [([], root[1], np.sort(floors)[:a].sum(), -np.sort(-ceils)[:a].sum(), math.comb(n, a), root)]
    while stack:
        prefix, base, low, high, count, up = stack.pop()
        if low >= side[0] and high <= side[1]:
            continue
        if count > most:
            if table is None:
                after = np.arange(n)[None, :] >= np.arange(n + 1)[:, None]
                rank = np.where(after, np.stack([floors, -ceils])[:, None], b + 1)  # rows before j sort last
                table = np.cumsum(np.sort(rank, axis=-1)[..., :a], axis=-1)
                table = np.concatenate([np.zeros((2, n + 1, 1), dtype=np.int64), table], axis=-1)
            d, me = len(prefix), (prefix, base)
            kids = np.arange(prefix[-1] + 1 if prefix else 0, n - (a - d) + 1)
            planes, lows, highs = _extremes(rows, n_right, a, b, base, d, kids[:, None])
            lows += table[0, kids + 1, a - d - 1]
            highs -= table[1, kids + 1, a - d - 1]
            for i in range(len(kids) - 1, -1, -1):
                j = int(kids[i])
                stack.append((prefix + [j], planes[:, i], lows[i], highs[i], math.comb(n - j - 1, a - d - 1), me))
            continue
        # P's completions, and those of the siblings after it, are the first
        # subsets of rows first.. that extend P's parent
        (owner, obase), first = up, prefix[-1] if prefix else 0
        subsets, r0, r1 = _completions(n - first, a - len(owner), most), 0, count
        while r0 < r1:
            # a block may run on into the next siblings that are not skipped
            while r1 - r0 < size and stack and stack[-1][5] is up:
                _, _, low, high, more, _ = stack[-1]
                if r1 + more > most or (low >= side[0] and high <= side[1]):
                    break
                r1 += stack.pop()[4]
            idx = np.add(subsets[r0 : min(r0 + size, r1)], first, dtype=np.int64)
            r0, size = r0 + len(idx), min(2 * size, most)
            _, lows, highs = _extremes(rows, n_right, a, b, obase, len(owner), idx)
            if not search:
                side = [min(side[0], int(lows.min())), max(side[1], int(highs.max()))]
                continue
            bad = (lows < side[0]) | (highs > side[1])
            if bad.any():
                k = int(np.argmax(bad))
                return np.array(owner + idx[k].tolist(), dtype=np.int64), int(lows[k]), int(highs[k])
    return (None, None, None) if search else (None, side[0], side[1])


def _extremes(rows, n_right, a, b, base, depth, idx):
    """Planes, e_min and e_max of the prefix with planes ``base`` extended by each row of ``idx``."""
    planes = _column_sum_planes(rows, idx, a, base, depth)
    above = _columns_above(planes, depth + idx.shape[1])
    return planes, np.maximum(above - (n_right - b), 0).sum(axis=0), np.minimum(above, b).sum(axis=0)
