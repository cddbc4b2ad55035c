"""Hot counting kernels in vectorized numpy (``np.bitwise_count``, NumPy >= 2.0).

All adjacency is bit-packed into uint64 words, 64 right-vertices per word,
LSB first.  The pair kernels work through the pairs in chunks of at most
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
        both = op(rows[pairs[sl, 0]], rows[pairs[sl, 1]])
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
        pc = np.bitwise_count(rows[pairs[sl, 0]] & rows[pairs[sl, 1]])
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
        bs = np.flatnonzero(np.unpackbits(rows_ab[a].view(np.uint8), bitorder="little")[:nb])
        for b in bs:
            total += int(np.bitwise_count(rows_ac[a] & rows_bc[b]).sum(dtype=np.int64))
    return total


def triangle_list(rows_ab, rows_ac, rows_bc, nb, nc):
    """All triangles as an (m, 3) int array, lexicographically sorted."""
    tris = []
    for a in range(rows_ab.shape[0]):
        bs = np.flatnonzero(np.unpackbits(rows_ab[a].view(np.uint8), bitorder="little")[:nb])
        for b in bs:
            both = rows_ac[a] & rows_bc[b]
            cs = np.flatnonzero(np.unpackbits(both.view(np.uint8), bitorder="little")[:nc])
            for c in cs:
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
    deg = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")[:, :n_right].astype(np.int64)
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
