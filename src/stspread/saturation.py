"""Saturating sets in PG(n,2) and the associated counting bounds.

A subset S of a triple system saturates when S u N(S) is the whole point
set.  For the binary projective spaces this is the classical notion of a
saturating set: every point lies in S or on a secant of S.  The module
provides the Lunelli-Sce counting bound

    (q-1) C(s,2) + s >= (q^(n+1)-1)/(q-1),

valid in PG(n,q) because s points and their secants must reach everything;
the exact minimum saturating set, by one serial colex scan; and the
hyperplanes of PG(n,2), with the intersection extremes over m-subsets.

For q = 2 the hyperplanes obey an exact variance identity: summing
(u(H) - m/2)^2 over all hyperplanes H, where u(H) = |S n H| and m = |S|,
gives exactly m 2^(n-1) - m^2/4.  There are fewer than 2^(n+1)
hyperplanes, so some hyperplane lies outside the deviation window: it
deviates from m/2 by more than sqrt(m/4 - m^2 / 2^(n+3)).

All hyperplane arithmetic is exact: counts are integers and the identity is
compared through fractions, never floats.  fractions and colex are
imported only by the functions that use them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import config
from .closure import _columns, _mask_of, _to_set
from .errors import (
    BudgetExhaustedError,
    NotPrimePowerError,
    OutOfRangeError,
    TooLargeError,
    TrivialOrderError,
)
from .system import TripleSystem

if TYPE_CHECKING:
    from fractions import Fraction

PRIME_POWERS = frozenset(
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
     37, 41, 43, 47, 49, 53, 59, 61, 64]
)

DEFAULT_EXTREMES_BUDGET = 10 ** 7

# candidates per batch of min_saturating_size: on PG(4,2) and an STS(31),
# 2^15 traced about half the memory but ran 1.3 to 1.9 times as long, and
# 2^17 traced over twice as much to save 5-10% of the time
_BATCH_CAP = 1 << 16


class HyperplaneFamily:
    """The hyperplanes of PG(n,2), one per nonzero functional.

    Point i of PG(n,2) is the vector with integer label i+1; the hyperplane
    of functional c consists of the points whose label has even overlap with
    c.  masks holds one point bitmask per hyperplane; hyperplanes builds the
    frozensets anew on each access.
    """

    __slots__ = ("n", "functionals", "masks")

    def __init__(self, n, functionals, masks):
        self.n = n
        self.functionals = functionals
        self.masks = masks

    @property
    def hyperplanes(self):
        return tuple(_to_set(m) for m in self.masks)

    def __len__(self):
        return len(self.masks)


def _check_pg_dim(n: int) -> int:
    """The order of PG(n,2), once n is at least 1 and the space is within
    the construction cap; n is compared as a dimension, so a huge n is
    refused before its order is computed."""
    if n < 1:
        raise TrivialOrderError("PG(n,2) needs n >= 1")
    if n > (config.order_cap() + 1).bit_length() - 2:  # as in constructions.pg2
        raise TooLargeError("PG(%d,2) hyperplane family above the cap" % n)
    return (1 << (n + 1)) - 1


def hyperplanes_pg2(n: int) -> HyperplaneFamily:
    """Enumerate all 2^(n+1) - 1 hyperplanes of PG(n,2).

    The cap is checked on every call, so lowering it refuses a family that
    is already cached; hyperplanes_pg2.cache_clear() drops the cached ones.
    """
    _check_pg_dim(n)
    return _build_hyperplanes(n)


@lru_cache(maxsize=16)
def _build_hyperplanes(n: int) -> HyperplaneFamily:
    count = (1 << (n + 1)) - 1
    odd = [0] * (count + 1)  # odd[c]: the points whose label has odd overlap with c
    for c in range(1, count + 1):
        low = c & -c
        if c == low:  # one label bit: its column
            odd[c] = sum(1 << (lab - 1) for lab in range(low, count + 1) if lab & low)
        else:
            odd[c] = odd[c ^ low] ^ odd[low]
    masks = tuple(((1 << count) - 1) ^ m for m in odd[1:])
    return HyperplaneFamily(n, tuple(range(1, count + 1)), masks)


hyperplanes_pg2.cache_clear = _build_hyperplanes.cache_clear


def _hyperplane_counts(n: int, points: Iterable[int]):
    """(m, counts) for a point subset S of PG(n,2): m = |S| and counts the
    list of u(H) = |S n H| over the hyperplanes in order of functional,
    in one pass at C level."""
    fam = hyperplanes_pg2(n)
    mask = _mask_of((1 << (n + 1)) - 1, points)
    return mask.bit_count(), list(map(int.bit_count, map(mask.__and__, fam.masks)))


def _variance_sides(n, m, counts):
    """The two sides of the variance identity from _hyperplane_counts:
    sum (2u - m)^2 = 4 sum u^2 - 4 m sum u + |counts| m^2, over 4."""
    from fractions import Fraction

    lhs_times_4 = (4 * sum(map(mul, counts, counts)) - 4 * m * sum(counts)
                   + len(counts) * m * m)
    rhs = Fraction(-m * m, 4) + m * (1 << (n - 1))
    return Fraction(lhs_times_4, 4), rhs


def variance_identity(n: int, points: Iterable[int]):
    """Exact two sides of the hyperplane variance identity.

    Returns (lhs, rhs) as fractions: lhs is the brute-force sum of
    (u(H) - m/2)^2 over all hyperplanes, rhs the closed form
    m 2^(n-1) - m^2/4.  They are equal for every point subset.
    """
    return _variance_sides(n, *_hyperplane_counts(n, points))


class DeviationReport(NamedTuple):
    """Most-deviating hyperplane for a point subset of PG(n,2).

    deviation = |u(H) - m/2| for the winning hyperplane (least functional on
    ties).  strict tells whether deviation exceeds the variance-derived
    lower bound sqrt(m/4 - m^2/2^(n+3)); the comparison is carried out on
    squares so it stays exact.  degenerate marks m = 0, where the bound
    assertion is vacuous.  The radicand bound_squared = m(2^(n+1) - m) /
    2^(n+3) is never negative, because a point subset has m < 2^(n+1).
    """

    functional: int
    hyperplane: frozenset
    deviation: Fraction
    bound_squared: Fraction
    strict: bool
    degenerate: bool


def _deviation_report(n, m, counts):
    """The DeviationReport of _hyperplane_counts' (m, counts).  |2u - m| is
    largest at the largest or the smallest count, so the winner is the
    first hyperplane whose count is one of those two and reaches it."""
    from fractions import Fraction

    hi, lo = max(counts), min(counts)
    up, down = 2 * hi - m, m - 2 * lo
    best_abs = max(up, down)
    best_idx = min(counts.index(u) for u, d in ((hi, up), (lo, down)) if d == best_abs)
    fam = hyperplanes_pg2(n)
    deviation = Fraction(best_abs, 2)
    bound_sq = Fraction(m, 4) - Fraction(m * m, 1 << (n + 3))
    degenerate = m == 0
    strict = (not degenerate) and deviation ** 2 > bound_sq
    return DeviationReport(
        functional=fam.functionals[best_idx],
        hyperplane=_to_set(fam.masks[best_idx]),
        deviation=deviation,
        bound_squared=bound_sq,
        strict=strict,
        degenerate=degenerate,
    )


def deviating_hyperplane(n: int, points: Iterable[int]) -> DeviationReport:
    """Hyperplane whose intersection count strays farthest from m/2."""
    return _deviation_report(n, *_hyperplane_counts(n, points))


def lunelli_sce_min(n: int, q: int) -> int:
    """Least s with (q-1) C(s,2) + s >= (q^(n+1)-1)/(q-1).

    Any saturating set of PG(n,q) has at least this many points: s points
    lie on C(s,2) secants, each covering q-1 further points.
    """
    if q not in PRIME_POWERS:
        raise NotPrimePowerError("q = %r is not a prime power (table up to 64)" % (q,))
    if n < 1:
        raise TrivialOrderError("lunelli_sce_min needs n >= 1")
    threshold = (q ** (n + 1) - 1) // (q - 1)
    s = 1
    while (q - 1) * (s * (s - 1) // 2) + s < threshold:
        s += 1
    return s


def min_saturating_size(ts: TripleSystem):
    """Least size of a saturating set, with the colex-first witness.

    Exhaustive scan over subset sizes 1, 2, ...; the whole point set always
    saturates, so the scan terminates.  For ts = pg2(n) this computes the
    exact smallest saturating set size of PG(n,2).  A k-set covers at most
    k + C(k,2) points, itself and one third per pair, so the levels below
    that counting bound are passed over unread.

    The scan is bounded by work, not by order: level k is admitted only
    while the candidate steps so far plus its C(n,k) candidates times
    (points + blocks) stay within config.DEFAULT_WORK_BUDGET, and is
    otherwise refused with BudgetExhaustedError before it is read.  The
    first level is checked before the stars and the Pascal rows are built,
    so an STS(63), whose first level counts 4.4e14 steps, is refused at
    once.

    The k-subsets come from colex._colex_levels in colex batches of at
    most _BATCH_CAP candidates, so the scan holds a bounded window whatever
    C(n, k) is, and the first batch with a hit holds the colex-first
    witness.  Each batch is checked point by point, from the top point
    down: a candidate covers p when it holds p or both points of a
    pair in p's star, the pairs {b, c} with {p, b, c} a block, read once
    from the pair table (an uncovered pair has no star).  The candidates
    that cover every point so far are kept, and the batch is left at the
    first point none of them covers.  No candidate of a batch holds a
    point above its greatest one, so most batches are left after a few
    points.
    """
    from .colex import _colex_levels

    n = ts.order
    steps, budget = n + ts.block_count, config.DEFAULT_WORK_BUDGET
    work = 0
    stars = None
    for k, batches in _colex_levels(n, _BATCH_CAP):
        if k + k * (k - 1) // 2 < n:  # the counting bound: no k-set saturates
            continue
        work += math.comb(n, k) * steps
        if work > budget:
            raise BudgetExhaustedError("saturating-set scan of %d candidate steps through"
                                       " level %d exceeds budget %d" % (work, k, budget))
        if stars is None:
            # stars[p]: the pairs that complete a block with p, top point first
            stars = [[] for _ in range(n)]
            for c, row in enumerate(ts._third):
                for a, b in enumerate(row):
                    if b > a:  # the block a < b < c
                        stars[a].append((b, c))
                        stars[b].append((a, c))
                        stars[c].append((a, b))
            stars.reverse()
        for full, batch in batches:
            hits = full
            for p, star in zip(range(n - 1, -1, -1), stars):
                cover = batch[p]
                for b, c in star:
                    cover |= batch[b] & batch[c]
                hits &= cover
                if not hits:
                    break
            if hits:
                j = (hits & -hits).bit_length() - 1
                return k, frozenset(p for p, s in enumerate(batch) if s >> j & 1)
    raise TooLargeError("unreachable: the full point set saturates")


class ExtremesReport(NamedTuple):
    """Extremal hyperplane intersection counts over all m-subsets of
    PG(n,2): the largest attainable minimum and smallest attainable maximum,
    with colex-first witnesses."""

    n: int
    m: int
    max_min: int
    max_min_witness: frozenset
    min_max: int
    min_max_witness: frozenset


def intersection_extremes(
    n: int, m: int, budget: int = DEFAULT_EXTREMES_BUDGET
) -> ExtremesReport:
    """Extremes of |U n H| over m-subsets U and hyperplanes H of PG(n,2).

    max_min answers "how evenly can m points meet every hyperplane", min_max
    "how flat can the maximum be".  The scan is exhaustive; if the subset
    count times the hyperplane count, or that plus the bits of the Pascal
    table the subsets are cut from, would exceed budget the call refuses
    up front with BudgetExhaustedError.  The budget is the scan's only
    limit on n and m: before it, only the hyperplane family's cap
    (hyperplanes_pg2, TooLargeError), which bounds the memory of the
    family, and m above the point count (OutOfRangeError) refuse.  The
    m-subsets come from
    colex._colex_levels in colex order; closure._columns transposes each
    batch, and each candidate is read from it and met with every hyperplane
    once, its counts giving both extremes.
    """
    from .colex import _colex_levels

    fam = hyperplanes_pg2(n)
    count = (1 << (n + 1)) - 1
    if m > count:
        raise OutOfRangeError("m = %d exceeds the %d points" % (m, count))
    work = math.comb(count, m) * len(fam)
    if work > budget:
        raise BudgetExhaustedError(
            "scan of %d subset-hyperplane pairs exceeds budget %d" % (work, budget)
        )
    # level m is cut from m - 1 Pascal rows, row j of at most count - 1
    # entries of at most min(_BATCH_CAP, C(count - 1, j)) bits (colex.py)
    table = work
    for j in range(1, m):
        table += (count - 1) * min(_BATCH_CAP, math.comb(count - 1, j))
        if table > budget:
            raise BudgetExhaustedError("scan of %d subset-hyperplane pairs plus its Pascal"
                                       " table exceeds budget %d" % (work, budget))
    if m == 0:
        return ExtremesReport(n, m, 0, frozenset(), 0, frozenset())
    masks = fam.masks
    best_maxmin = -1
    best_minmax = count + 1
    _, batches = next(islice(_colex_levels(count, _BATCH_CAP), m - 1, None))
    for full, batch in batches:
        width = full.bit_length()
        y, step = _columns(batch, width)
        for j in range(width):
            mask = int.from_bytes(y[j::step], "little")
            us = list(map(int.bit_count, map(mask.__and__, masks)))
            lo, hi = min(us), max(us)
            if lo > best_maxmin:
                best_maxmin = lo
                wit_maxmin = mask
            if hi < best_minmax:
                best_minmax = hi
                wit_minmax = mask
    return ExtremesReport(
        n, m, best_maxmin, _to_set(wit_maxmin), best_minmax, _to_set(wit_minmax)
    )
