"""Search and verification for spreading sets.

A spreading set generates the whole system under closure.  Greedy growth
(always adjoin a point outside the current closure) shows every Steiner
system of order n has a spreading set of at most floor(log2(n+1)) points:
adjoining an outside point at least doubles the closure plus one, because a
proper subsystem of an STS(v) has order at most (v-1)/2.  Equality at every
step forces the closure sizes 3, 7, 15, ... of the binary projective spaces.
check_projective recognises those spaces by the GF(2) coordinates of
closure._coordinates, and min_spreading_size answers them from it without a
search.

On any other input min_spreading_size walks the closure lattice
breadth-first instead of scanning raw subsets: for a spreading set of
minimum size every generator lies outside the closure of the others
(otherwise dropping it keeps the set spreading), so minimum witnesses
correspond exactly to chains
cl(p1,p2) < cl(.. p3) < ... that end at the full point set, and distinct
chains through the same closed set can be merged.  This is the subset scan
with closed-set pruning taken to its limit and returns the same value.
The walk reads the distinct pair closures, the blocks, from the pair table
and takes them in colex order of their least pairs, which is the order in
which closing the pairs in colex order first meets them.  closure._walk
(which enumerate_closed_sets and is_spreading_system share) then closes
each closed set plus each outside point in bit-sliced chunks and yields
the closures in the order of a scalar breadth-first search, so the first
whole-set closure it yields is the one that search meets first.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, compress, islice
from typing import Iterable, NamedTuple, Optional

from . import config
from .closure import (
    _SELECTOR,
    _batch_closure,
    _closure_mask,
    _colex_levels,
    _coordinates,
    _grow,
    _holding_all,
    _mask_of,
    _pair_closures,
    _to_set,
    _walk,
    closure_points,
)
from .errors import (
    NotProjectiveTagError,
    NotSpreadingError,
    NotSteinerError,
    SamePointError,
    TooLargeError,
    TrivialOrderError,
)
from .system import TripleSystem


class SpreadingSearchResult(NamedTuple):
    """A spreading set plus how it was found.

    closure_sizes records |cl(U_i)| as the witness grew; only
    greedy_spreading_set builds one.
    """

    witness: frozenset
    size: int
    method: str
    closure_sizes: tuple = ()


def greedy_spreading_set(
    ts: TripleSystem, seed_pair: Optional[tuple] = None
) -> SpreadingSearchResult:
    """Grow a spreading set greedily from a starting pair.

    The default start is {0, 1}; each step adjoins the least-index point
    outside the current closure.  The doubling bound guarantees the result
    has at most floor(log2(order+1)) points.
    """
    if not ts.is_steiner():
        raise NotSteinerError("greedy spreading search needs a Steiner system")
    if ts.order < 3:
        raise TrivialOrderError("greedy spreading search needs order >= 3")
    if seed_pair is None:
        seed_pair = (0, 1)
    x, y = seed_pair
    ts.check_point(x)
    ts.check_point(y)
    if x == y:
        raise SamePointError("seed pair needs two distinct points")
    third = ts._third
    full = (1 << ts.order) - 1
    witness = [x, y]
    mask, members = _closure_mask(third, (x, y))
    sizes = [len(members)]
    while mask != full:
        outside = (~mask) & full
        p = (outside & -outside).bit_length() - 1
        witness.append(p)
        members.append(p)
        mask, members = _grow(third, mask | 1 << p, members, len(members) - 1)
        sizes.append(len(members))
    return SpreadingSearchResult(
        frozenset(witness), len(witness), "greedy", tuple(sizes)
    )


def reduce_to_minimal(ts: TripleSystem, points: Iterable[int]) -> frozenset:
    """Shrink a spreading set to a minimal one by dropping redundant points.

    Takes the points in ascending order and drops each one whose removal
    keeps the set spreading; raises NotSpreadingError when the input does
    not spread.  A point that cannot go from a set cannot go from any subset
    of it either, so one pass leaves a minimal set: the same one that
    restarting from the least point after every removal reaches.
    """
    third = ts._third
    full = (1 << ts.order) - 1
    current = sorted(_to_set(_mask_of(ts.order, points)))
    if _closure_mask(third, current)[0] != full:
        raise NotSpreadingError("input set does not spread")
    for p in list(current):
        trial = [q for q in current if q != p]
        if _closure_mask(third, trial)[0] == full:
            current = trial
    return frozenset(current)


def min_spreading_size(ts: TripleSystem):
    """Least size of a spreading set, with a witness.

    On PG(d,2), certified by closure._coordinates, the answer is d+1 with
    the greedy witness from {0, 1}, and no walk runs.  The size is minimal
    because k points close to at most 2^k - 1 points (each adjoined point
    at most doubles the closure plus one).  The witness is the walk's:
    there the closed sets are the subspaces, and the first entry of each
    level is the first entry of the level before plus its least outside
    point.  Every hyperplane plus any outside point spreads, so the first
    spreading candidate is the first hyperplane plus its least outside
    point, which is the greedy chain from {0, 1}.  Every other input takes
    the walk of _walk_min_spreading; only the walk is capped in order.
    """
    if not ts.is_steiner():
        raise NotSteinerError("min_spreading_size needs a Steiner system")
    n = ts.order
    if n == 1:
        return 1, frozenset({0})
    if _coordinates(ts) is not None:
        return n.bit_length(), greedy_spreading_set(ts).witness
    if n > config.order_cap(config.MAX_MIN_SPREAD_ORDER):
        raise TooLargeError("min_spreading_size capped at order %d"
                            % config.order_cap(config.MAX_MIN_SPREAD_ORDER))
    return _walk_min_spreading(ts)


def _walk_min_spreading(ts):
    """min_spreading_size by a breadth-first walk of the closure lattice.

    Breadth-first search over distinct closures of generator chains; see the
    module docstring for why this matches the exhaustive subset scan.  The
    closures of one level are visited in the order they were found, each
    with its outside points ascending, and several levels share a batch;
    the witness is the first chain in that order whose closure is every
    point, the same as in the scalar search.
    """
    n = ts.order
    full = (1 << n) - 1
    seeds = sorted(_pair_closures(ts), key=lambda s: (s[1], s[0]))
    gens = []  # gens[e]: the chain that reaches walked set e
    for a, b, mask in seeds:
        if mask == full:
            return 2, frozenset({a, b})
        gens.append((a, b))
    for e, p, mask in _walk(ts, [mask for _, _, mask in seeds]):
        if mask == full:
            return len(gens[e]) + 1, frozenset(gens[e] + (p,))
        gens.append(gens[e] + (p,))
    raise NotSteinerError("no spreading set found; system is not connected")


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
    The k-subsets come from closure._colex_levels, one batch per top
    point.  The scan runs on the mirror image p -> n-1-p of the blocks, so
    the colex batch of mirror top t holds the k-sets whose least point is
    n-1-t, and its candidates, read from the highest bit down, are in
    lexicographic order; the batches, taken from least point 0 upward,
    list the level in its final order with no sort.  By monotonicity a
    spreading k-set is minimal exactly when none of its (k-1)-subsets
    spreads, which is looked up in the spreading sets of the level before.
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
    by side in lexicographic order, which is the reverse of mirror colex
    order: the size candidates of a batch are its last size entries, and
    candidate j is the (j+1)-th from the end.  So the digits of
    format(bits), top bit first and each repeated k times, select the
    picked entries character by character, in lexicographic order; they
    are taken a few thousand candidates at a time.
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
    closure._colex_levels is built for a level the budget refuses.
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
    mirror = [(n - 1 - a, n - 1 - b, n - 1 - c) for a, b, c in ts.triples]
    points = "".join(map(chr, range(n)))
    mark = chr(n)  # no point, so it can stand for the least point of a k-set
    truncated = False
    spent = 0
    whole = False  # every set of the last scanned level spreads
    prev_bits = 0  # bit r: the r-th (k-1)-subset in mirror colex order spreads
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
            spread = _holding_all(_batch_closure(mirror, batch), full)
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


def check_projective(ts: TripleSystem) -> bool:
    """Is the system a binary projective space?

    True exactly when closure._coordinates labels the points by the nonzero
    vectors of GF(2)^(d+1) so that every block is {x, y, x xor y}.
    """
    if not ts.is_steiner():
        raise NotSteinerError("projectivity test needs a Steiner system")
    return _coordinates(ts) is not None


class DimensionCheckReport(NamedTuple):
    """Outcome of randomized dimension-theorem checks on PG(d,2).

    For closed sets the dimension is log2(size+1) - 1 (the empty set having
    dimension -1); each trial checks that dimensions are integral, that the
    intersection of two closed sets is closed, and that
    dim cl(Y u Z) + dim (Y n Z) = dim Y + dim Z.
    """

    trials: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _dim(size: int):
    if (size + 1) & size:
        return None
    return (size + 1).bit_length() - 2


def verify_dimension_theorem(
    ts: TripleSystem, trials: int = 500, seed: int = 0
) -> DimensionCheckReport:
    """Randomized check of the dimension identity on PG(d,2).

    Any system that closure._coordinates certifies is accepted, whatever its
    tag or point order, and d is read from its order.
    """
    if _coordinates(ts) is None:
        raise NotProjectiveTagError("dimension checks need a binary projective space")
    d = ts.order.bit_length() - 1
    d_cap = config.pg_dim_cap(config.MAX_DIMENSION_CHECK_DIM)
    if d > d_cap:
        raise TooLargeError("dimension checks capped at d = %d" % d_cap)
    rng = random.Random(seed)
    n = ts.order
    bad = []
    for t in range(trials):
        y = closure_points(ts, rng.sample(range(n), rng.randint(0, d + 1)))
        z = closure_points(ts, rng.sample(range(n), rng.randint(0, d + 1)))
        inter = y & z
        join = closure_points(ts, y | z)
        dims = [_dim(len(s)) for s in (y, z, inter, join)]
        closed_ok = closure_points(ts, inter) == inter
        ident_ok = (
            None not in dims and dims[3] + dims[2] == dims[0] + dims[1]
        )
        if not (closed_ok and ident_ok):
            bad.append((t, tuple(sorted(y)), tuple(sorted(z))))
    return DimensionCheckReport(trials, tuple(bad))
