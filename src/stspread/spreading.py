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
which closing the pairs in colex order first meets them.  The chunked
walker of closure.py (which enumerate_closed_sets shares) then closes each
closed set plus each outside point as one bit-sliced batch per chunk, in
the order of a scalar breadth-first search, so the first spreading
candidate it reports is the one that search meets first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add
from typing import Iterable, Optional

from . import config
from .closure import (
    _batch_closure,
    _closure_mask,
    _columns,
    _coordinates,
    _extensions,
    _grow,
    _holding_all,
    _iter_bits,
    _mask_of,
    _pair_closures,
    _select,
    _subset_batches,
    _to_set,
    closure_points,
    colex_subsets,
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


@dataclass(frozen=True)
class SpreadingSearchResult:
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

    Repeatedly removes the least-index point whose removal keeps the set
    spreading; raises NotSpreadingError when the input does not spread.
    """
    third = ts._third
    full = (1 << ts.order) - 1
    current = sorted(_to_set(_mask_of(ts, points)))
    if _closure_mask(third, current)[0] != full:
        raise NotSpreadingError("input set does not spread")
    changed = True
    while changed:
        changed = False
        for p in list(current):
            trial = [q for q in current if q != p]
            if len(trial) >= 1 and _closure_mask(third, trial)[0] == full:
                current = trial
                changed = True
                break
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
    the walk of _walk_min_spreading.
    """
    if not ts.is_steiner():
        raise NotSteinerError("min_spreading_size needs a Steiner system")
    n = ts.order
    if n > config.order_cap(config.MAX_MIN_SPREAD_ORDER):
        raise TooLargeError("min_spreading_size capped at order %d"
                            % config.order_cap(config.MAX_MIN_SPREAD_ORDER))
    if n == 1:
        return 1, frozenset({0})
    if _coordinates(ts) is not None:
        return n.bit_length(), greedy_spreading_set(ts).witness
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
    frontier, gens = [], []  # distinct closures and the chains that reach them
    for a, b, mask in sorted(_pair_closures(ts), key=lambda s: (s[1], s[0])):
        if mask == full:
            return 2, frozenset({a, b})
        frontier.append(mask)
        gens.append((a, b))
    seen = set(frontier)
    for i, closed, live, hits in _extensions(ts, frontier):
        if hits:
            e, p = divmod((hits & -hits).bit_length() - 1, n)
            return len(gens[i + e]) + 1, frozenset(gens[i + e] + (p,))
        masks = _columns(closed, live.bit_length())
        for j in _iter_bits(live):
            if masks[j] not in seen:
                seen.add(masks[j])
                frontier.append(masks[j])
                e, p = divmod(j, n)
                gens.append(gens[i + e] + (p,))
    raise NotSteinerError("no spreading set found; system is not connected")


@dataclass(frozen=True)
class SpreadingEnumeration:
    """All minimal spreading sets up to max_size, in canonical order.

    points stores each set as the tuple of its points in ascending order,
    and the tuples are ordered by size, then lexicographically.  sets is the
    same sequence as frozensets, built on first use.  When the level budget
    stopped the scan early, truncated is True.
    """

    points: tuple
    max_size: int
    truncated: bool

    @cached_property
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
    the one point spreads), one colex batch per maximum point, each batch
    decoded as soon as it is closed.  By monotonicity a spreading k-set is
    minimal exactly when none of its (k-1)-subsets spreads, which is looked
    up in the spreading sets of the level before.  budget caps the total
    number of subsets considered; a size level that would push past it is
    skipped entirely and flagged.  The scan runs in the calling process:
    jobs is accepted for compatibility and ignored.

    The result stores each set as the tuple of its points in ascending
    order (points), the tuples ordered by size and then lexicographically;
    its sets attribute gives the same sequence as frozensets.
    """
    if not ts.is_steiner():
        raise NotSteinerError("spreading-set enumeration needs a Steiner system")
    n = ts.order
    if n > config.order_cap(config.MAX_ENUMERATION_ORDER):
        raise TooLargeError("enumeration capped at order %d"
                            % config.order_cap(config.MAX_ENUMERATION_ORDER))
    if max_size is None:
        max_size = (n + 1).bit_length() - 1
    results = []
    truncated = False
    spent = 0
    prev_bits = 0  # bit r: the r-th (k-1)-subset in colex order spreads
    prev = set()  # the spreading (k-1)-subsets, as point tuples
    for k in range(1 if n == 1 else 2, max_size + 1):
        level = math.comb(n, k)
        if spent + level > budget:
            truncated = True
            break
        spent += level
        # bit j of a top's batch is the j-th (k-1)-subset in colex order
        rests = list(colex_subsets(n - 1, k - 1))
        found = []
        spread_bits = 0
        spreading = set()
        for t, (full, batch) in enumerate(_subset_batches(n, k), k - 1):
            spread = _holding_all(_batch_closure(ts.triples, batch), full)
            spread_bits |= spread << math.comb(t, k)
            if k < max_size:
                spreading.update(map(add, _select(rests, spread), repeat((t,))))
            # prev_bits drops the k-sets whose points below t already spread;
            # a k-set is minimal when none of its other (k-1)-subsets does
            new = map(add, _select(rests, spread & ~prev_bits), repeat((t,)))
            if prev:
                new = [s for s in new
                       if not any(s[:i] + s[i + 1:] in prev for i in range(k - 1))]
            found.extend(new)
        found.sort()
        results += found
        prev_bits, prev = spread_bits, spreading
    return SpreadingEnumeration(tuple(results), max_size, truncated)


def check_projective(ts: TripleSystem) -> bool:
    """Is the system a binary projective space?

    True exactly when closure._coordinates labels the points by the nonzero
    vectors of GF(2)^(d+1) so that every block is {x, y, x xor y}.
    """
    if not ts.is_steiner():
        raise NotSteinerError("projectivity test needs a Steiner system")
    return _coordinates(ts) is not None


@dataclass(frozen=True)
class DimensionCheckReport:
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
