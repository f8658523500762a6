"""Closure, spreading and saturating operators on triple systems.

For a point subset S of a system, the neighbours N(S) are the points z
outside S lying in a block {x,y,z} with both x and y inside S.  Iterating
S -> S u N(S) until nothing new appears yields the closure cl(S), the
smallest subset containing S that is closed under completing covered pairs.
S is spreading when cl(S) is the whole point set, and saturating when one
single step S u N(S) already covers everything.  A Steiner system is a
spreading system when every nontrivial 3-subset (one that is not a block)
spreads; equivalently, it has no nontrivial proper subsystem.

Point sets are handled as int bitmasks internally; bit i set means point i
is a member.  The public functions accept any iterable of point indices and
return frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, filterfalse, islice, product, repeat
from math import comb
from operator import getitem
from typing import Iterable

from .errors import NotSteinerError, TrivialOrderError
from .system import TripleSystem, _fmt_set

DEFAULT_CLOSED_SET_BUDGET = 100000


# -- bitmask plumbing ------------------------------------------------------


def _iter_bits(mask: int):
    """Positions of the set bits, lowest first."""
    digits = format(mask, "b")[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _mask_of(ts: TripleSystem, points: Iterable[int]) -> int:
    mask = 0
    for p in points:
        ts.check_point(p)
        mask |= 1 << p
    return mask


def _to_set(mask: int) -> frozenset:
    return frozenset(_iter_bits(mask))


def _closure_mask(third, seeds):
    """Fixpoint closure of the given points; returns (mask, members).

    members lists the closure in discovery order, which makes incremental
    extension possible: pairs among a prefix never need re-checking.
    """
    members = []
    mask = 0
    for p in seeds:
        bit = 1 << p
        if not mask & bit:
            mask |= bit
            members.append(p)
    return _grow(third, mask, members, 0)


def _grow(third, mask, members, i):
    """Close mask, checking the pairs that involve members[i:].

    members[:i] must be closed already: pairs inside it cannot fire anything
    new.  So adjoining one point p to a closed set is members.append(p)
    followed by _grow(third, mask | 1 << p, members, len(members) - 1).

    Each member's row is looked up at all earlier members at once, and the
    thirds already inside are dropped by a flag per point.  The flag past
    the last point is set, so an uncovered pair's -1 is dropped too.  The
    thirds of one row are distinct, so taking a row at once adds the same
    points in the same order as taking its pairs one by one.
    """
    inside = [False] * (len(third) + 1)
    inside[-1] = True
    for p in members:
        inside[p] = True
    while i < len(members):
        thirds = map(getitem, repeat(third[members[i]], i), islice(members, i))
        for z in list(filterfalse(inside.__getitem__, thirds)):
            inside[z] = True
            mask |= 1 << z
            members.append(z)
        i += 1
    return mask, members


def _coordinates(ts):
    """GF(2) labels that make the system a binary projective space, or None.

    label[p] is a nonzero vector of GF(2)^(d+1), as an int, for a system of
    order 2^(d+1) - 1, such that every block is {x, y, z} with label[z] =
    label[x] ^ label[y]; such labels exist exactly when the system is
    PG(d,2).  The points are taken in index order and each unlabelled one
    gets the next basis bit; the labelled set then grows as in _grow, with
    each new pair (x, y) labelling third[x][y] as label[x] ^ label[y].  A
    clash with an existing label, a label owned by another point or a basis
    bit past the order means no labelling exists.  Every pair is looked up
    once, so the certificate costs O(order^2) lookups and no closure.
    """
    n = ts.order
    if not ts.is_steiner() or (n + 1) & n:
        return None
    third = ts._third
    label = [0] * n
    owner = [-1] * (n + 1)  # owner[v]: the point labelled v
    members = []
    bit = 1
    for p in range(n):
        if label[p]:
            continue
        if bit > n:
            return None
        label[p], owner[bit] = bit, p
        bit <<= 1
        i = len(members)
        members.append(p)
        while i < len(members):
            x = members[i]
            row, lx = third[x], label[x]
            for j in range(i):
                y = members[j]
                z, v = row[y], lx ^ label[y]
                if label[z]:
                    if label[z] != v:
                        return None
                elif owner[v] >= 0:
                    return None
                else:
                    label[z], owner[v] = v, z
                    members.append(z)
            i += 1
    return label


def _cover_mask(third, mask):
    """S u N(S) for one point set S, as a mask."""
    cover = mask
    inside = list(_iter_bits(mask))
    for i, x in enumerate(inside):
        row = third[x]
        for y in inside[:i]:
            z = row[y]
            if z >= 0:
                cover |= 1 << z
    return cover


# -- bit-sliced batches ----------------------------------------------------


def colex_subsets(n: int, k: int):
    """All k-subsets of range(n) in colexicographic order."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in colex_subsets(top, k - 1):
            yield rest + (top,)


def _subset_batches(n, k, tops):
    """Batches of the k-subsets of range(n) with each maximum t in tops.

    A batch holds one int per point, bit j set when candidate j holds the
    point.  Yields (full, batch) for t in tops, ascending, in colex order, by
    Pascal's rule: the i-subsets of range(t+1) are those of range(t), then
    the (i-1)-subsets of range(t) plus t.
    """
    rows = [[] for _ in range(k)]  # rows[i][p]: the i-subsets of range(t) holding p
    t = 0
    for top in tops:
        while t < top:
            for i in range(k - 1, 0, -1):
                row, below, shift = rows[i], rows[i - 1], comb(t, i)
                for p in range(t):
                    row[p] |= below[p] << shift
                row.append(((1 << comb(t, i - 1)) - 1) << shift)
            rows[0].append(0)
            t += 1
        full = (1 << comb(t, k - 1)) - 1
        yield full, rows[k - 1] + [full] + [0] * (n - t - 1)


def _sweep(triples, src, dst):
    """One block pass over a batch: a candidate with two points of a block in
    src gains the third in dst, so with dst a copy of src it is S u N(S)."""
    for a, b, c in triples:
        sa, sb, sc = src[a], src[b], src[c]
        dst[a] |= sb & sc
        dst[b] |= sa & sc
        dst[c] |= sa & sb
    return dst


def _batch_closure(triples, batch):
    """Close every candidate in place, passing until nothing changes."""
    before = None
    while batch != before:
        before = list(batch)
        _sweep(triples, batch, batch)
    return batch


def _holding_all(batch, full):
    """The candidates that hold every point."""
    for s in batch:
        full &= s
    return full


# candidates per transposition and per frontier chunk: a transposition
# string holds order * 2^12 characters
_CHUNK_CAP = 1 << 12


def _columns(batch, width):
    """The candidates of a batch as masks, candidate j at index j.

    Transposes up to _CHUNK_CAP candidates at a time: their bits of every
    row, top point first, go into one string, and the slice of it with step
    w that starts at w-1-j reads candidate j's mask, top point first.
    """
    masks = []
    for low in range(0, width, _CHUNK_CAP):
        w = min(_CHUNK_CAP, width - low)
        rows = "".join([format(s >> low & ((1 << w) - 1), "0%db" % w)
                        for s in reversed(batch)])
        masks += [int(rows[j::w], 2) for j in range(w - 1, -1, -1)]
    return masks


def _triple_closures(ts):
    """Closures of all 3-subsets, in batches of about 2^14.

    Yields (full, live, closed).  Bit j of a batch is its j-th triple in the
    lexicographic order of combinations(range(n), 3), and the batches follow
    that order too; live marks the triples that are not blocks.  Its callers
    are is_spreading_system and the seeds of _walk_closed_sets; projective
    inputs are recognised by _coordinates instead.
    """
    n, third = ts.order, ts._third
    batch, width, blocks = [0] * n, 0, 0
    for a, b in combinations(range(n - 1), 2):
        run = ((1 << (n - 1 - b)) - 1) << width
        batch[a] |= run
        batch[b] |= run
        if third[a][b] > b:
            blocks |= 1 << (width + third[a][b] - b - 1)
        for c in range(b + 1, n):
            batch[c] |= 1 << width
            width += 1
        # wide enough to share each pass over the blocks among many triples,
        # narrow enough to bound memory and let the callers stop early
        if width >= 1 << 14 or (a, b) == (n - 3, n - 2):
            full = (1 << width) - 1
            yield full, full & ~blocks, _batch_closure(ts.triples, batch)
            batch, width, blocks = [0] * n, 0, 0


def _extensions(ts, frontier):
    """Closures of each closed set in frontier plus one outside point.

    Candidate (i, p) is frontier[i] plus point p, taken in order of i and
    then of ascending p; frontier may grow while the generator runs, and the
    new entries are extended in their turn.  Yields (cands, masks, hits) per
    chunk: the candidates, their closures as masks, and bit j set when
    candidate j closes to every point.  Chunks hold whole frontier entries;
    they start near 64 candidates, so an early hit stays cheap, and double
    up to _CHUNK_CAP, which bounds memory.
    """
    n = ts.order
    full = (1 << n) - 1
    limit, i = 64, 0
    while i < len(frontier):
        batch, cands = [0] * n, []
        while i < len(frontier) and len(cands) < limit:
            mask, start = frontier[i], len(cands)
            for p in _iter_bits(full & ~mask):
                batch[p] |= 1 << len(cands)
                cands.append((i, p))
            run = ((1 << (len(cands) - start)) - 1) << start
            for q in _iter_bits(mask):
                batch[q] |= run
            i += 1
        width = len(cands)
        _batch_closure(ts.triples, batch)
        yield cands, _columns(batch, width), _holding_all(batch, (1 << width) - 1)
        limit = min(2 * limit, _CHUNK_CAP)


# -- public operators ------------------------------------------------------


def neighbors(ts: TripleSystem, points: Iterable[int]) -> frozenset:
    """Points outside the set that complete a covered pair inside it."""
    mask = _mask_of(ts, points)
    return _to_set(_cover_mask(ts._third, mask) & ~mask)


def closure_points(ts: TripleSystem, points: Iterable[int]) -> frozenset:
    """The closure cl(S) without step bookkeeping (fast path)."""
    mask, _ = _closure_mask(ts._third, _iter_bits(_mask_of(ts, points)))
    return _to_set(mask)


@dataclass(frozen=True)
class ClosureTrace:
    """Step-by-step closure record.

    steps[0] is the input set; steps[i+1] = steps[i] u N(steps[i]); the last
    step is the fixpoint cl(S).  firing_blocks[i] lists, in sorted order, the
    blocks {x,y,z} with x,y in steps[i] whose third point z entered at step
    i+1, so len(firing_blocks) == len(steps) - 1.
    """

    steps: tuple
    firing_blocks: tuple

    @property
    def points(self) -> frozenset:
        return self.steps[-1]

    def report(self) -> str:
        """Line-oriented rendering used by the CLI --trace flag."""
        lines = ["step 0: start %s" % _fmt_points(self.steps[0])]
        for i, fired in enumerate(self.firing_blocks, start=1):
            added = self.steps[i] - self.steps[i - 1]
            blocks = ",".join("(%d %d %d)" % b for b in fired)
            lines.append("step %d: add %s via %s" % (i, _fmt_points(added), blocks))
        lines.append(
            "closure: %s size %d" % (_fmt_points(self.points), len(self.points))
        )
        return "\n".join(lines)


def _fmt_points(points) -> str:
    return "{%s}" % _fmt_set(points)


def closure(ts: TripleSystem, points: Iterable[int]) -> ClosureTrace:
    """Full closure trace of the given point set."""
    third = ts._third
    mask = _mask_of(ts, points)
    steps = [_to_set(mask)]
    firing = []
    fresh = list(_iter_bits(mask))
    older = []
    while True:
        fired = set()
        new_mask = 0
        # only pairs with at least one endpoint added last round can fire
        for i, x in enumerate(fresh):
            row = third[x]
            for y in older + fresh[:i]:
                z = row[y]
                if z >= 0 and not (mask >> z) & 1:
                    new_mask |= 1 << z
                    fired.add(tuple(sorted((x, y, z))))
        if not new_mask:
            break
        mask |= new_mask
        older += fresh
        fresh = list(_iter_bits(new_mask))
        steps.append(_to_set(mask))
        firing.append(tuple(sorted(fired)))
    return ClosureTrace(tuple(steps), tuple(firing))


def is_spreading_set(ts: TripleSystem, points: Iterable[int]) -> bool:
    """True when cl(S) is the whole point set."""
    mask, _ = _closure_mask(ts._third, _iter_bits(_mask_of(ts, points)))
    return mask == (1 << ts.order) - 1


def is_saturating_set(ts: TripleSystem, points: Iterable[int]) -> bool:
    """True when S u N(S) already covers every point (one-step spreading)."""
    return _cover_mask(ts._third, _mask_of(ts, points)) == (1 << ts.order) - 1


def is_spreading_system(ts: TripleSystem) -> bool:
    """Does every nontrivial 3-subset spread?

    Equivalent to the absence of nontrivial proper subsystems.  Requires a
    Steiner system of order above 3; smaller orders have no nontrivial
    3-subsets to test.
    """
    if not ts.is_steiner():
        raise NotSteinerError("spreading-system test needs a Steiner system")
    if ts.order <= 3:
        raise TrivialOrderError("spreading-system test needs order > 3")
    for full, live, closed in _triple_closures(ts):
        if live & ~_holding_all(closed, full):
            return False
    return True


@dataclass(frozen=True)
class ClosedSetEnumeration:
    """Result of enumerate_closed_sets: the proper nontrivial closed sets,
    canonically sorted, plus a flag telling whether the budget cut the
    search short."""

    sets: tuple
    truncated: bool


def _gaussian_binomial(n, k):
    """The number of k-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def _submasks(mask):
    """Every int whose bits are a subset of mask's, mask itself first."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _subspaces(n, k):
    """The k-dimensional subspaces of GF(2)^n, each once, as lists of their
    nonzero vectors.

    Each subspace has exactly one reduced row-echelon basis: k rows with
    distinct leading (highest) bits, where a row led by bit p may hold any
    bits below p that lead no other row.  So the subspaces are the
    choices of leading bits times the choices of those free bits.
    """
    for leads in combinations(range(n), k):
        lead_mask = sum(1 << p for p in leads)
        rows = [[1 << p | sub for sub in _submasks(((1 << p) - 1) & ~lead_mask)]
                for p in leads]
        for basis in product(*rows):
            span = [0]
            for r in basis:
                span += [v ^ r for v in span]
            yield span[1:]


def enumerate_closed_sets(
    ts: TripleSystem, max_count: int = DEFAULT_CLOSED_SET_BUDGET
) -> ClosedSetEnumeration:
    """All proper closed sets of size >= 3 that are not single blocks.

    These are exactly the nontrivial subsystems, sorted by size and then
    by their sorted points.  When _coordinates certifies the system as
    PG(d,2), they are its subspaces of vector dimension 3 to d, whose count
    is a sum of Gaussian binomials; if that count is at most max_count they
    are listed from the labels, with truncated=False, which is what the
    walk returns.  Any other input, and a certified one with more
    subspaces than max_count, takes the walk of _walk_closed_sets.
    """
    label = _coordinates(ts)
    if label is not None:
        n = ts.order.bit_length()  # the order is 2^n - 1
        dims = range(3, n)
        if sum(_gaussian_binomial(n, k) for k in dims) <= max_count:
            owner = [0] * (ts.order + 1)  # owner[v]: the point labelled v
            for p, v in enumerate(label):
                owner[v] = p
            sets = sorted((sorted([owner[v] for v in span])
                           for k in dims for span in _subspaces(n, k)),
                          key=lambda s: (len(s), s))
            return ClosedSetEnumeration(tuple(map(frozenset, sets)), False)
    return _walk_closed_sets(ts, max_count)


def _walk_closed_sets(ts, max_count):
    """enumerate_closed_sets by a breadth-first walk of the closure lattice.

    Seed with the closures of all non-block 3-subsets in lexicographic
    order, then close each found set plus each outside point, in the order
    the sets were found and by ascending point, one bit-sliced batch per
    chunk of candidates.  Closures are collected in exactly that order, so
    the sets kept when collection stops at max_count (with truncated=True)
    do not depend on the batching.
    """
    full = (1 << ts.order) - 1
    found = set()
    frontier = []
    truncated = False

    def offer(mask):
        nonlocal truncated
        if mask == full or mask in found:
            return
        if len(found) >= max_count:
            truncated = True
            return
        found.add(mask)
        frontier.append(mask)

    for ones, live, closed in _triple_closures(ts):
        live &= ~_holding_all(closed, ones)  # whole closures are not proper
        if live:
            seeds = _columns(closed, ones.bit_length())
            for j in _iter_bits(live):
                offer(seeds[j])  # once truncated, offers add nothing
        if truncated:
            break

    if not truncated:
        for _, masks, _ in _extensions(ts, frontier):  # offer() appends
            for mask in masks:
                offer(mask)
            if truncated:
                break

    sets = sorted((_to_set(m) for m in found), key=lambda s: (len(s), sorted(s)))
    return ClosedSetEnumeration(tuple(sets), truncated)
