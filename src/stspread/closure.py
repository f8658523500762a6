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

The exhaustive subset scans (saturating sets, hyperplane extremes, minimal
spreading sets) take their k-subsets from one generator,
colex._colex_levels, in colex order, as bit-sliced batches cut from one
Pascal table per search, and close them with _batch_closure.

The lattice searches (is_spreading_system, enumerate_closed_sets and
spreading.min_spreading_size) scan no subsets: each is a loop over _walk,
which extends the distinct pair closures, read from the pair table, by
one point at a time in bit-sliced chunks and yields each new closure once.
"""

from __future__ import annotations

from bisect import bisect
from itertools import chain, combinations, compress, count, filterfalse, product, repeat
from operator import getitem, itemgetter
from typing import Iterable, NamedTuple

from .errors import BudgetExhaustedError, NotSteinerError, OutOfRangeError, TrivialOrderError
from .system import TripleSystem, _fmt_set

DEFAULT_CLOSED_SET_BUDGET = 100000


# -- bitmask plumbing ------------------------------------------------------


# turns the digits of format(bits, "b") into itertools.compress selectors
_SELECTOR = bytes.maketrans(b"01", b"\x00\x01")


def _select(items, bits):
    """The items[j] with bit j of bits set, lowest j first."""
    return compress(items, format(bits, "b")[::-1].encode().translate(_SELECTOR))


def _iter_bits(mask: int):
    """Positions of the set bits, lowest first."""
    return _select(count(), mask)


def _mask_of(order: int, points: Iterable[int]) -> int:
    """The points as a mask; raises OutOfRangeError for a point outside
    range(order)."""
    mask = 0
    for p in points:
        if not isinstance(p, int) or p < 0 or p >= order:
            raise OutOfRangeError("point %r outside [0, %d)" % (p, order))
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

    Each member x is looked up at all earlier members at once, in
    ascending order: those below x in x's row, those above in their rows
    at x, since the table holds each pair below the diagonal.  The earlier
    members are kept sorted for that.  The thirds already inside are
    dropped by a flag per point.  The flag past the last point is set, so
    an uncovered pair's -1 is dropped too.  The thirds of one member are
    distinct, so taking them at once adds the same points in the same order
    as taking its pairs one by one in that order.  Once every
    point is a member nothing can be added, so the rows left are not read.
    """
    inside = [False] * (len(third) + 1)
    inside[-1] = True
    for p in members:
        inside[p] = True
    done = sorted(members[:i])
    while i < len(members) < len(third):
        x = members[i]
        k = bisect(done, x)
        thirds = chain(map(getitem, repeat(third[x], k), done[:k]),
                       map(itemgetter(x), map(third.__getitem__, done[k:])))
        for z in list(filterfalse(inside.__getitem__, thirds)):
            inside[z] = True
            mask |= 1 << z
            members.append(z)
        done.insert(k, x)
        i += 1
    return mask, members


def _coordinates(ts):
    """GF(2) labels that make the system a binary projective space, or None.

    label[p] is a nonzero vector of GF(2)^(d+1), as an int, for a system of
    order 2^(d+1) - 1, such that every block is {x, y, z} with label[z] =
    label[x] ^ label[y]; such labels exist exactly when the system is
    PG(d,2).  The points are taken in index order and each unlabelled one
    gets the next basis bit; the labelled set then grows as in _grow, with
    each new pair (x, y) labelling its third point as label[x] ^ label[y].  A
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
            for y in members[:i]:
                z, v = row[y] if y < x else third[y][x], lx ^ label[y]
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
    """S u N(S) for one point set S, as a mask.  The points come in
    ascending order, so each pair is read in the row of its greater point."""
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


# slots per chunk of _walk
_CHUNK_CAP = 1 << 14


def _columns(batch, width):
    """The first width candidates of a batch, transposed: (y, step), with
    candidate j's mask int.from_bytes(y[j::step], "little").

    Bits of the rows at width and above are dropped.  Each group of eight
    points 8g + r is laid out as step // 8 words of 64 bits, byte r of word
    b holding bits 8b to 8b + 7 of point 8g + r's row, and transpose8 of
    Warren, Hacker's Delight (2nd ed., section 7-3), transposes every word
    of the group at once: byte j of it then holds candidate j's bits of the
    eight points.  y is the groups one after another, step bytes each.
    """
    size = (width + 7) >> 3
    step = size << 3
    low = (1 << width) - 1
    words = ((1 << 8 * step) - 1) // ((1 << 64) - 1)  # bit 64 b for every word b
    m7 = 0x00AA00AA00AA00AA * words
    m14 = 0x0000CCCC0000CCCC * words
    m28 = 0x00000000F0F0F0F0 * words
    y = bytearray()
    for g in range(0, len(batch), 8):
        buf = bytearray(step)
        for r, row in enumerate(batch[g:g + 8]):
            buf[r::8] = (row & low).to_bytes(size, "little")
        x = int.from_bytes(buf, "little")
        # three delta swaps: 2x2 blocks of bits, then of 2x2 blocks, then of 4x4
        t = (x ^ x >> 7) & m7
        x ^= t ^ t << 7
        t = (x ^ x >> 14) & m14
        x ^= t ^ t << 14
        t = (x ^ x >> 28) & m28
        x ^= t ^ t << 28
        y += x.to_bytes(step, "little")
    return y, step


def _pair_closures(ts):
    """The distinct closures of pairs, as (a, b, mask) at their least pair
    (a, b), in lexicographic order.

    A covered pair closes to its block, whose least pair is the one with
    its third point above b.  An uncovered pair, which only a partial system
    has, is closed already.  Every lattice search starts from these seeds.
    """
    third = ts._third
    seeds = []
    for a in range(ts.order):
        for b, c in enumerate(map(itemgetter(a), third[a + 1:]), a + 1):
            if c > b:
                seeds.append((a, b, 1 << a | 1 << b | 1 << c))
            elif c < 0:
                seeds.append((a, b, 1 << a | 1 << b))
    return seeds


def _walk(ts, seeds, budget=None):
    """Breadth-first walk of the closure lattice above seeds.

    seeds are distinct closed masks.  The walked sets are the seeds, then
    the closures yielded other than the whole point set, in yield order.
    Yields (e, p, mask) for each distinct closure of walked set e plus an
    outside point p, once, where it is first found: in order of e, then of
    p.  The whole point set is yielded at most once, ahead of the other
    closures of the chunk where it first appears.

    Bit j of a chunk's batch stands for walked set i + j // n plus point
    j % n.  Slots whose point lies in the set repeat it; live marks the
    others.  With C the sets side by side and R one bit per set, the sets
    holding point q are (C >> q) & R, so a chunk takes a few big-int
    operations per point and none per candidate.  The chunk is transposed
    by _columns only when some live candidate misses a point, and only
    after the whole set is yielded, so a caller that stops there never pays
    for it; then only those candidates are read out of the transposed
    bytes, one mask at a time, and no list of every mask is built.  Chunks
    start with one set, so an early hit stays cheap, and double up to about
    _CHUNK_CAP slots, which bounds memory.

    With a budget, each chunk adds its slots times (points + blocks), the
    candidate steps of checking every slot against every point and block,
    to a running total before it is closed, and the walk raises
    BudgetExhaustedError, naming the total, once that passes the budget.
    The count depends on the input only, never on time.
    """
    n, blocks = ts.order, ts.triples
    steps = n + ts.block_count
    spent = 0
    walked = list(seeds)
    seen = set(walked)
    whole = True  # the whole set is still to be yielded
    size, i = 1, 0
    while i < len(walked):
        entries = walked[i:i + size]
        width = len(entries) * n
        spent += width * steps
        if budget is not None and spent > budget:
            raise BudgetExhaustedError("lattice walk of %d candidate steps exceeds budget %d"
                                       % (spent, budget))
        ones = (1 << width) - 1
        rep = ones // ((1 << n) - 1)  # bit e * n for every entry e
        side = 0
        for e, mask in enumerate(entries):
            side |= mask << e * n
        batch = []
        for q in range(n):
            inside = side >> q & rep
            batch.append(((inside << n) - inside) | (rep ^ inside) << q)
        live = ones & ~side
        _batch_closure(blocks, batch)
        hits = _holding_all(batch, live)
        if hits and whole:
            whole = False
            e, p = divmod((hits & -hits).bit_length() - 1, n)
            yield i + e, p, (1 << n) - 1
        if hits != live:
            y, step = _columns(batch, live.bit_length())
            for j in _iter_bits(live ^ hits):
                mask = int.from_bytes(y[j::step], "little")
                if mask not in seen:
                    seen.add(mask)
                    walked.append(mask)
                    e, p = divmod(j, n)
                    yield i + e, p, mask
        i += len(entries)
        size = min(2 * size, max(1, _CHUNK_CAP // n))


# -- public operators ------------------------------------------------------


def neighbors(ts: TripleSystem, points: Iterable[int]) -> frozenset:
    """Points outside the set that complete a covered pair inside it."""
    mask = _mask_of(ts.order, points)
    return _to_set(_cover_mask(ts._third, mask) & ~mask)


def closure_points(ts: TripleSystem, points: Iterable[int]) -> frozenset:
    """The closure cl(S) without step bookkeeping (fast path)."""
    mask, _ = _closure_mask(ts._third, _iter_bits(_mask_of(ts.order, points)))
    return _to_set(mask)


class ClosureTrace(NamedTuple):
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
    mask = _mask_of(ts.order, points)
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
                z = row[y] if y < x else third[y][x]
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
    mask, _ = _closure_mask(ts._third, _iter_bits(_mask_of(ts.order, points)))
    return mask == (1 << ts.order) - 1


def is_saturating_set(ts: TripleSystem, points: Iterable[int]) -> bool:
    """True when S u N(S) already covers every point (one-step spreading)."""
    return _cover_mask(ts._third, _mask_of(ts.order, points)) == (1 << ts.order) - 1


def is_spreading_system(ts: TripleSystem) -> bool:
    """Does every nontrivial 3-subset spread?

    Equivalent to the absence of nontrivial proper subsystems.  Requires a
    Steiner system of order above 3; smaller orders have no nontrivial
    3-subsets to test.  A non-block triple {x, y, z} closes like the block
    through x and y plus z, so this holds exactly when every block plus
    every outside point spreads.
    """
    if not ts.is_steiner():
        raise NotSteinerError("spreading-system test needs a Steiner system")
    if ts.order <= 3:
        raise TrivialOrderError("spreading-system test needs order > 3")
    full = (1 << ts.order) - 1
    seeds = [mask for _, _, mask in _pair_closures(ts)]
    return all(mask == full for _, _, mask in _walk(ts, seeds))


class ClosedSetEnumeration(NamedTuple):
    """Result of enumerate_closed_sets: the proper nontrivial closed sets,
    plus a flag telling whether the budget cut the search short.

    points stores each set as the tuple of its points in ascending order,
    and the tuples are ordered by size, then lexicographically.  sets is the
    same sequence as frozensets, built anew on each access.
    """

    points: tuple
    truncated: bool

    @property
    def sets(self) -> tuple:
        return tuple(map(frozenset, self.points))


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
            # the subspaces of one dimension all have 2^k - 1 points
            points = []
            for k in dims:
                points += sorted(tuple(sorted([owner[v] for v in span]))
                                 for span in _subspaces(n, k))
            return ClosedSetEnumeration(tuple(points), False)
    return _walk_closed_sets(ts, max_count)


def _walk_closed_sets(ts, max_count):
    """enumerate_closed_sets by a breadth-first walk of the closure lattice.

    Close each pair closure of _pair_closures, then each found set, plus
    each outside point, in the order the sets were found and by ascending
    point.  Closures are collected in exactly that order, so the sets kept
    when collection stops at max_count (with truncated=True) do not depend
    on the batching.  They are first found in the order that closing the
    non-block 3-subsets in lexicographic order finds them: {x, y, z} with
    x < y < z closes like cl(x, y) plus z, and both a subset whose (x, y)
    is no seed and a seed (a, b) plus a point below b repeat the closure of
    a lexicographically earlier subset.
    """
    full = (1 << ts.order) - 1
    found = []
    truncated = False
    for _, _, mask in _walk(ts, [mask for _, _, mask in _pair_closures(ts)]):
        if mask != full:
            if len(found) >= max_count:
                truncated = True
                break
            found.append(mask)
    points = sorted(map(tuple, map(_iter_bits, found)))
    points.sort(key=len)  # stable: each size keeps its lexicographic order
    return ClosedSetEnumeration(tuple(points), truncated)
