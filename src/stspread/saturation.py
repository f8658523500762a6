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
compared through fractions, never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from . import config
from .closure import (
    _holding_all,
    _subset_batches,
    _sweep,
    _to_set,
    colex_subsets,
)
from .errors import (
    BudgetExhaustedError,
    NotPrimePowerError,
    OutOfRangeError,
    TooLargeError,
    TrivialOrderError,
)
from .system import TripleSystem

PRIME_POWERS = frozenset(
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
     37, 41, 43, 47, 49, 53, 59, 61, 64]
)

DEFAULT_EXTREMES_BUDGET = 10 ** 7


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
    if n < 1:
        raise TrivialOrderError("PG(n,2) needs n >= 1")
    if n > config.pg_dim_cap(config.MAX_HYPERPLANE_DIM):
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


def _points_mask(n_points: int, points: Iterable[int]) -> int:
    mask = 0
    for p in points:
        if not isinstance(p, int) or p < 0 or p >= n_points:
            raise OutOfRangeError("point %r outside [0, %d)" % (p, n_points))
        mask |= 1 << p
    return mask


def variance_identity(n: int, points: Iterable[int]):
    """Exact two sides of the hyperplane variance identity.

    Returns (lhs, rhs) as fractions: lhs is the brute-force sum of
    (u(H) - m/2)^2 over all hyperplanes, rhs the closed form
    m 2^(n-1) - m^2/4.  They are equal for every point subset.
    """
    fam = hyperplanes_pg2(n)
    count = (1 << (n + 1)) - 1
    mask = _points_mask(count, points)
    m = mask.bit_count()
    lhs_times_4 = 0
    for h in fam.masks:
        u = (mask & h).bit_count()
        lhs_times_4 += (2 * u - m) ** 2
    rhs = Fraction(-m * m, 4) + m * (1 << (n - 1))
    return Fraction(lhs_times_4, 4), rhs


@dataclass(frozen=True)
class DeviationReport:
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


def deviating_hyperplane(n: int, points: Iterable[int]) -> DeviationReport:
    """Hyperplane whose intersection count strays farthest from m/2."""
    fam = hyperplanes_pg2(n)
    count = (1 << (n + 1)) - 1
    mask = _points_mask(count, points)
    m = mask.bit_count()
    best_abs = -1
    best_idx = 0
    for idx, h in enumerate(fam.masks):
        a = abs(2 * (mask & h).bit_count() - m)
        if a > best_abs:
            best_abs = a
            best_idx = idx
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
    exact smallest saturating set size of PG(n,2).
    """
    n = ts.order
    cap = config.order_cap(config.MAX_ENUMERATION_ORDER)
    if n > cap:
        raise TooLargeError("min_saturating_size capped at order %d" % cap)
    for k in range(1, n + 1):
        for full, batch in _subset_batches(n, k):
            hits = _holding_all(_sweep(ts.triples, batch, list(batch)), full)
            if hits:
                j = (hits & -hits).bit_length() - 1
                return k, frozenset(p for p, s in enumerate(batch) if s >> j & 1)
    raise TooLargeError("unreachable: the full point set saturates")


@dataclass(frozen=True)
class ExtremesReport:
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
    count times the hyperplane count would exceed budget the call refuses
    up front with BudgetExhaustedError.
    """
    n_cap = config.pg_dim_cap(config.MAX_EXTREMES_DIM)
    if n > n_cap:
        raise TooLargeError("intersection_extremes capped at n = %d" % n_cap)
    if m > config.MAX_EXTREMES_SUBSET:
        raise TooLargeError(
            "intersection_extremes capped at m = %d" % config.MAX_EXTREMES_SUBSET
        )
    fam = hyperplanes_pg2(n)
    count = (1 << (n + 1)) - 1
    if m > count:
        raise OutOfRangeError("m = %d exceeds the %d points" % (m, count))
    work = math.comb(count, m) * len(fam)
    if work > budget:
        raise BudgetExhaustedError(
            "scan of %d subset-hyperplane pairs exceeds budget %d" % (work, budget)
        )
    if m == 0:
        return ExtremesReport(n, m, 0, frozenset(), 0, frozenset())
    masks = fam.masks
    best_maxmin = -1
    best_minmax = count + 1
    for top in range(m - 1, count):
        for rest in colex_subsets(top, m - 1):
            subset = rest + (top,)
            mask = 0
            for p in subset:
                mask |= 1 << p
            lo = min((mask & h).bit_count() for h in masks)
            hi = max((mask & h).bit_count() for h in masks)
            if lo > best_maxmin:
                best_maxmin = lo
                wit_maxmin = subset
            if hi < best_minmax:
                best_minmax = hi
                wit_minmax = subset
    return ExtremesReport(
        n, m, best_maxmin, frozenset(wit_maxmin), best_minmax, frozenset(wit_minmax)
    )
