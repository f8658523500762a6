"""Every minimal spreading set up to a size, by a colex subset scan.

enumerate_minimal_spreading_sets closes every k-subset for k = 2, 3, ...
in the colex batches of colex._colex_levels and keeps the spreading sets
none of whose (k-1)-subsets spread.  It is the only spreading search that
scans subsets rather than walking the closure lattice (spreading.py), and
stspread.spreading serves its names on first use.
"""

from __future__ import annotations

import math
from itertools import combinations, compress, islice
from typing import NamedTuple, Optional

from . import config
from .closure import _SELECTOR, _batch_closure, _holding_all
from .colex import _colex_levels
from .errors import NotSteinerError, TooLargeError
from .system import TripleSystem


class SpreadingEnumeration(NamedTuple):
    """All minimal spreading sets up to max_size, in canonical order.

    points stores each set as the tuple of its points in ascending order,
    and the tuples are ordered by size, then lexicographically: the scan
    lists each level in that order, least point first, with no sort.  sets
    is the same sequence as frozensets, built anew on each access.
    truncated is True when the subsets of sizes 2 to max_size (capped at
    the order) number more than the budget, so that the scan left a level
    out.  The levels it skips because a smaller level spreads whole count
    towards that number too, but never set truncated by themselves.
    """

    points: tuple
    max_size: int
    truncated: bool

    @property
    def sets(self) -> tuple:
        return tuple(map(frozenset, self.points))


def enumerate_minimal_spreading_sets(
    ts: TripleSystem,
    max_size: Optional[int] = None,
    budget: int = 2_000_000,
    jobs: int = 1,
) -> SpreadingEnumeration:
    """Every minimal spreading set of size at most max_size.

    Closes every k-subset for k = 2, 3, ... (from k = 1 at order 1, where
    the one point spreads), each batch decoded as soon as it is closed.
    The k-subsets come from colex._colex_levels, one batch per top
    point, each read backwards, point n-1-p in the place of p: the batch
    of top t then holds the k-sets whose least point is n-1-t, and its
    candidates, read from the highest bit down, are in lexicographic
    order; the batches, taken from least point 0 upward, list the level in
    its final order with no sort.  By monotonicity a spreading k-set is
    minimal exactly when none of its (k-1)-subsets spreads, which is
    looked up in the spreading sets of the level before.
    Once every k-set spreads, every larger set holds a spreading k-subset
    and is not minimal, so the larger levels are not scanned.

    budget caps the total number of subsets considered, the levels not
    scanned after such a stop included: a size level that would push past
    it is skipped entirely and flagged with truncated, so truncated does
    not depend on the stop.  The scan runs in the calling process: jobs is
    accepted for compatibility and ignored.

    The result stores each set as the tuple of its points in ascending
    order (points), the tuples ordered by size and then lexicographically;
    its sets attribute gives the same sequence as frozensets.  The scan
    itself (_minimal_spreading_levels) holds each set as one character per
    point and builds these tuples only at the end, from one string per
    least point: the CLI formats its rows from those strings and never
    holds the tuples.
    """
    _, levels, max_size, truncated = _minimal_spreading_levels(ts, max_size, budget)
    points = []
    for k, found in levels:
        while found:
            points += zip(*[map(ord, found.pop())] * k)
    return SpreadingEnumeration(tuple(points), max_size, truncated)


def _packed(strings):
    """The strings side by side in one string, joined a few thousand at a
    time so that no list of all of them is built."""
    pieces = []
    while piece := "".join(islice(strings, 1 << 12)):
        pieces.append(piece)
    return "".join(pieces)


def _picked(rests, k, bits, size):
    """The entries of the candidates of a batch whose bits are set.

    rests holds one entry of k characters per candidate of a level, side
    by side in lexicographic order, which is the reverse of the colex
    order of the backward batches: the size candidates of a batch are its
    last size entries, and candidate j is the (j+1)-th from the end.  So
    the digits of format(bits), top bit first and each repeated k times,
    select the picked entries character by character, in lexicographic
    order; they are taken a few thousand candidates at a time.
    """
    if not bits:
        return ""
    digits = format(bits, "0%db" % size).encode().translate(_SELECTOR)
    sel = bytearray(size * k)
    for i in range(k):
        sel[i::k] = digits
    low, step = len(rests) - size * k, k << 12
    return "".join(["".join(compress(rests[low + i:low + i + step], sel[i:i + step]))
                    for i in range(0, size * k, step)])


def _split(sets, k):
    """The sets of k characters each that lie side by side in sets."""
    return map(sets.__getitem__, map(slice, range(0, len(sets), k),
                                     range(k, len(sets) + k, k)))


def _minimal_spreading_levels(ts, max_size=None, budget=2_000_000):
    """The scan of enumerate_minimal_spreading_sets, holding only what it lists.

    max_size and budget are those of enumerate_minimal_spreading_sets.
    Returns (count, levels, max_size, truncated): count is the number of
    minimal spreading sets, and levels pairs each scanned size k with the
    list of its minimal k-sets, one string per least point, sets side by
    side in lexicographic order, the pieces of the greatest least point
    first: a reader pops them off the end in listing order and drops each
    piece once read.  Every point set of the scan is a string with one
    character chr(p) per point p, which fits any order.  A level holds
    its candidates as one string too: each (k-1)-subset of the points
    above 0 behind a mark that stands for the least point.  A batch picks
    its hits from that string (_picked) and puts its least point in place
    of the mark, so no list of one string per candidate is ever built.
    Levels passed over are only counted: no Pascal row of
    colex._colex_levels is built for a level the budget refuses.
    """
    if not ts.is_steiner():
        raise NotSteinerError("spreading-set enumeration needs a Steiner system")
    n = ts.order
    if n > config.order_cap(config.MAX_ENUMERATION_ORDER):
        raise TooLargeError("enumeration capped at order %d"
                            % config.order_cap(config.MAX_ENUMERATION_ORDER))
    if max_size is None:
        max_size = (n + 1).bit_length() - 1
    count = 0
    levels = []
    triples = ts.triples
    points = "".join(map(chr, range(n)))
    mark = chr(n)  # no point, so it can stand for the least point of a k-set
    truncated = False
    spent = 0
    whole = False  # every set of the last scanned level spreads
    prev_bits = 0  # bit r: the r-th (k-1)-subset in backward colex order spreads
    prev = set()  # the spreading (k-1)-subsets
    top = min(max_size, n)  # no subset has more than n points
    # cap = budget: a level within the budget has at most budget subsets, so
    # each of its top points is one batch
    for k, batches in _colex_levels(n, budget):
        if k > top:
            break
        if k == 1 and n > 1:
            continue
        level = math.comb(n, k)
        if spent + level > budget:
            truncated = True
            break
        spent += level
        if whole or k == 2 and n > 3:
            # above order 3 a pair closes to its block and never spreads
            continue
        # the mark plus each (k-1)-subset of points 1, ..., n-1: a k-set
        # once the mark stands for a least point below the subset
        rests = _packed(map(mark.__add__, map("".join, combinations(points[1:], k - 1))))
        # found[i]: the minimal k-sets whose least point is n-k-i, side by side
        found = []
        spread_bits = 0
        spreads = []  # spreads[i]: the spreading candidates of batch i
        for t, (full, batch) in enumerate(batches, k - 1):
            # candidate j of the batch is the (j+1)-th entry of rests from the
            # end, with its least point n-1-t in place of the mark
            spread = _holding_all(_batch_closure(triples, batch[::-1]), full)
            spread_bits |= spread << math.comb(t, k)
            spreads.append(spread)
            # prev_bits drops the k-sets whose points above the least already
            # spread; a k-set is minimal when none of its other (k-1)-subsets does
            new = _picked(rests, k, spread & ~prev_bits, full.bit_length())
            new = new.replace(mark, points[n - 1 - t])
            if prev:
                new = "".join([s for s in _split(new, k)
                               if not any(s[:i] + s[i + 1:] in prev for i in range(1, k))])
            found.append(new)
        count += sum(map(len, found)) // k
        levels.append((k, found))
        whole = spread_bits == (1 << level) - 1
        # only a level that is scanned next looks up the spreading k-sets
        spreading = set()
        if k < top and not whole:
            for t, spread in enumerate(spreads, k - 1):
                sets = _picked(rests, k, spread, math.comb(t, k - 1))
                spreading.update(_split(sets.replace(mark, points[n - 1 - t]), k))
        prev_bits, prev = spread_bits, spreading
    return count, levels, max_size, truncated
