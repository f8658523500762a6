"""The k-subsets of the exhaustive subset scans, as bit-sliced batches.

min_saturating_size, intersection_extremes and the minimal spreading set
scan take their candidates from _colex_levels, level by level in colex
order, cut from one Pascal table per search.  Only those scans need it, so
it lives apart from the closure operators of closure.py.
"""

from __future__ import annotations

from math import comb


def _pascal(below, j, m):
    """Row j of the Pascal table over range(m), built from row j-1.

    Entry p holds one bit per j-subset of range(m), in colex order, set
    when the subset holds p.  The j-subsets of range(t+1) are those of
    range(t), then t plus each (j-1)-subset of range(t), so each step
    appends the first C(t, j-1) bits of below, whose entries hold the
    (j-1)-subsets of at least m-1 points in colex order: a row over any
    number of points is the colex prefix of a row over more.
    """
    row = []
    for t in range(m):
        shift, low = comb(t, j), (1 << comb(t, j - 1)) - 1
        row = [r | (b & low) << shift for r, b in zip(row, below)]
        row.append(low << shift)
    return row


def _colex_levels(n, cap):
    """The k-subsets of range(n) for k = 1, ..., n, in colex order.

    Yields (k, batches), batches an iterator of bit-sliced (full, batch)
    pairs: one int per point, bit j set when candidate j holds the point,
    and one bit of full per candidate.  Each top point t gets one batch, t
    plus every (k-1)-subset of range(t), unless those exceed cap: then, as
    colex order splits the j-subsets of range(m), it gets the j-subsets of
    range(m'), m' the most points whose j-subsets fit in cap, then u plus
    the (j-1)-subsets of range(u) for u = m', ..., m-1, split again as
    needed.  So a batch is fixed top points plus a colex prefix of one
    Pascal row.  The table (_pascal) gains one row per level, built when
    the level's batches are first read, so a level passed over builds none
    itself; no row is ever rebuilt, and each entry holds at most cap bits.
    """
    rows = [[0] * (n - 1)]  # row 0: the one empty subset, which holds no point
    for k in range(1, n + 1):
        yield k, _colex_batches(n, k, cap, rows)


def _colex_batches(n, k, cap, rows):
    """The batches of level k of _colex_levels, growing rows as needed."""
    while len(rows) < k:
        j = m = len(rows)
        while m < n - 1 and comb(m + 1, j) <= cap:
            m += 1
        rows.append(_pascal(rows[-1], j, m))
    # (fixed, j, m): every j-subset of range(m) plus the fixed points
    stack = [(1 << t, k - 1, t) for t in range(n - 1, k - 2, -1)]
    while stack:
        fixed, j, m = stack.pop()
        most = len(rows[j])
        if m > most:
            stack += [(fixed | 1 << u, j - 1, u) for u in range(m - 1, most - 1, -1)]
            m = most
        full = (1 << comb(m, j)) - 1
        batch = [row & full for row in rows[j][:m]]
        batch += [full if fixed >> p & 1 else 0 for p in range(m, n)]
        yield full, batch
