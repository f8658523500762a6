"""Growing and shrinking a spreading set one point at a time.

greedy_spreading_set adjoins the least point outside the current closure
until the closure is every point; reduce_to_minimal drops each point whose
removal keeps a set spreading.  Both extend closures incrementally
(closure._grow).  stspread.spreading serves their names on first use.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .closure import _closure_mask, _grow, _mask_of, _to_set
from .errors import NotSpreadingError, NotSteinerError, SamePointError, TrivialOrderError
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
