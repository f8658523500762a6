"""Completion of partial systems by seeded hill climbing.

complete_partial embeds a partial triple system into a Steiner system of a
chosen admissible order.  The source blocks are frozen; the climber then
repeatedly picks a random uncovered pair {x,y} and a random admissible third
point z, removing at most one non-frozen block that conflicts with {x,z} or
{y,z}.  Each such switch never decreases the number of covered pairs, which
is the classical hill-climbing scheme for triple systems, restricted so the
frozen blocks survive.  Any target order v >= 2u+1 (u = source order) is
safe territory: embeddings exist there, and u <= (v-1)/2 also guarantees
that an uncovered pair always has conflict-free third points available.
Below it a Steiner source has no embedding at all besides itself, since a
proper subsystem of an STS(v) has at most (v-1)/2 points, and
complete_partial refuses such a target at once; a partial source is still
climbed there.

The climber names the pair {x,y}, x < y, by its code x*n + y.  One flat
array of n*n cells holds at each code the third point of the pair's block
or -1; it is filled from the source's table, a move finds there the block
it displaces, and the finished table is read out row by row with strided
slices, row y the cells x*n + y with x < y, as TripleSystem keeps it.

Each move finds its third points with a few big-int operations instead of a
scan over all n points.  The climber keeps one bitmask per point: cov[x] has
bit z set when the pair {x,z} is covered, frz[x] when a frozen block covers
it.  The admissible third points of {x,y} are then the set bits of

    full & ~(frz[x] | frz[y] | cov[x] & cov[y] | 1<<x | 1<<y)

and the move draws an index below their count and takes the set bit of that
rank in ascending order.  A scan that lists the candidates in ascending order
and draws an index into that list makes the same calls on the generator and
picks the same z, so the blocks (sorted), move counts and restarts are those
of the scalar climb (tests/oracles.py, scalar_climb).

The move loop makes no Python-level call.  It draws each index below k as
rng.randrange(k) does, with rng.getrandbits(k.bit_length()) redrawn while
it is k or more, so the generator sees the same calls.  It finds the set bit
of rank r by skipping whole 64-bit words and halving the word at 32, 16 and
8 bits.  It keeps the codes of the uncovered pairs in an array, in the
order the scalar climb keeps them, with their positions in an array
indexed by code; both arrays take a typecode wide enough for n*n.  A move
computes the codes of {x,z} and {y,z} once, for the table and the
positions alike.  A move that displaces a block writes only the net change
of the scalar climb's uncover-then-cover steps: four bitmasks, five table
cells and two slots of the uncovered codes.

two_minimal_sizes_sts drives the whole pipeline of the two-sizes
construction: build the partial system whose spreading structure is rigged,
and embed it into the first admissible order at least 2u+1, falling back to
the next two admissible orders.  Every completion carries both minimal
spreading sets (the proof is in its docstring), so it checks nothing; the
claim itself is checked once, by claims.two_sizes.  It alone imports the
constructions, so random_sts and embed never load them.
"""

from __future__ import annotations

import random
from array import array
from typing import NamedTuple, Optional

from . import config
from .errors import (
    BudgetExhaustedError,
    InadmissibleOrderError,
    TooLargeError,
    TrivialOrderError,
)
from .system import (
    PLAIN_TAG,
    GeometryTag,
    SystemKind,
    TripleSystem,
    _empty_pair_table,
    _typecode,
    steiner_admissible,
)


class CompletionReport(NamedTuple):
    """Outcome of a completion run.

    iterations counts hill-climbing moves summed over restarts; checks are
    (name, passed) pairs for the post-hoc verifications.  Identical inputs
    and seed always reproduce the identical report.
    """

    source_order: int
    target_order: int
    seed: int
    restarts_used: int
    iterations: int
    success: bool
    system: Optional[TripleSystem]
    checks: tuple

    def to_kv(self) -> str:
        lines = [
            "source_order=%d" % self.source_order,
            "target_order=%d" % self.target_order,
            "seed=%d" % self.seed,
            "restarts_used=%d" % self.restarts_used,
            "iterations=%d" % self.iterations,
            "success=%s" % ("true" if self.success else "false"),
        ]
        for name, okay in self.checks:
            lines.append("check.%s=%s" % (name, "pass" if okay else "fail"))
        return "\n".join(lines) + "\n"


def _climb(order, source, rng, max_moves):
    """One hill-climbing attempt from the blocks of source, a system of at
    most order points; returns (the pair table of a Steiner system of that
    order or None, moves used)."""
    n = order
    # t[x*n + y], x < y: the third point of the pair {x,y}, or -1
    t = array(_typecode(n), [-1]) * (n * n)
    # frz[x] / cov[x]: bit z set when {x,z} is covered by a source block / covered
    frz = [0] * n
    for x, row in enumerate(source._third):
        for y, z in enumerate(row):
            if z != -1:
                t[y * n + x] = z
                frz[x] |= 1 << y
                frz[y] |= 1 << x
    cov = frz[:]
    # fb[x]: the third points a pair through x never takes, x and its frozen partners
    fb = [m | 1 << x for x, m in enumerate(frz)]
    full = (1 << n) - 1

    # the codes of the uncovered pairs in ascending order; pos[code] is its index in uncov
    typecode = "i" if n * n <= 1 << 31 else "q"
    uncov = array(typecode)
    for x in range(n):
        start = x * n + x + 1
        uncov.extend(c for c, z in enumerate(t[start:x * n + n], start) if z == -1)
    pos = array(typecode, [0]) * (n * n)
    for i, code in enumerate(uncov):
        pos[code] = i
    getrandbits = rng.getrandbits

    moves = 0
    while uncov and moves < max_moves:
        moves += 1
        # rng.randrange(k) as Random._randbelow_with_getrandbits draws it
        k = len(uncov)
        bits = k.bit_length()
        i = getrandbits(bits)
        while i >= k:
            i = getrandbits(bits)
        xy = uncov[i]
        x, y = divmod(xy, n)
        # third points z with neither {x,z} nor {y,z} frozen and at most one
        # of them covered: switching may resolve one conflict, not two
        cands = full ^ (fb[x] | fb[y] | cov[x] & cov[y])
        if not cands:
            continue
        k = cands.bit_count()
        bits = k.bit_length()
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        # z is the set bit of rank r in cands: skip whole 64-bit words, halve
        # the word at 32, 16 and 8 bits, then clear the r lowest bits left
        base = 0
        word = cands & 0xFFFFFFFFFFFFFFFF
        c = word.bit_count()
        while r >= c:
            r -= c
            base += 64
            word = cands >> base & 0xFFFFFFFFFFFFFFFF
            c = word.bit_count()
        half = word & 0xFFFFFFFF
        c = half.bit_count()
        if r < c:
            word = half
        else:
            r -= c
            word >>= 32
            base += 32
        half = word & 0xFFFF
        c = half.bit_count()
        if r < c:
            word = half
        else:
            r -= c
            word >>= 16
            base += 16
        half = word & 0xFF
        c = half.bit_count()
        if r < c:
            word = half
        else:
            r -= c
            word >>= 8
            base += 8
        while r:
            word &= word - 1
            r -= 1
        z = base + (word & -word).bit_length() - 1

        xz = x * n + z if x < z else z * n + x
        yz = y * n + z if y < z else z * n + y
        t[xy] = z
        # the block {u,z,w} that covers {x,z} (u = x) or else {y,z} (u = y)
        w = t[xz]
        if w != -1:
            u, v, uz, vz = x, y, xz, yz
        else:
            u, v, uz, vz = y, x, yz, xz
            w = t[yz]
        if w == -1:
            # no block gives way: {x,y}, {x,z}, {y,z} leave uncov in that
            # order, each replaced by the last entry
            t[xz] = y
            t[yz] = x
            bx = 1 << x
            by = 1 << y
            bz = 1 << z
            cov[x] ^= by | bz
            cov[y] ^= bx | bz
            cov[z] ^= bx | by
            last = uncov.pop()
            if i < len(uncov):
                uncov[i] = last
                pos[last] = i
            for code in (xz, yz):
                i = pos[code]
                last = uncov.pop()
                if last != code:
                    uncov[i] = last
                    pos[last] = i
            continue
        # {u,z,w} gives way to {u,v,z}: {u,z} stays covered, {u,w} and {z,w}
        # become uncovered and {u,v}, {v,z} covered
        uw = u * n + w if u < w else w * n + u
        zw = z * n + w if z < w else w * n + z
        t[uz] = v
        t[vz] = u
        t[uw] = t[zw] = -1
        bu = 1 << u
        bv = 1 << v
        bw = 1 << w
        bz = 1 << z
        cov[u] ^= bw | bv
        cov[z] ^= bw | bv
        cov[w] ^= bu | bz
        cov[v] ^= bu | bz
        # The scalar climb appends the block's three pairs to uncov in
        # ascending order of code, then swap-removes {x,y}, {x,z}, {y,z}.
        # Net of that, {u,w} and {z,w} take the places of {x,y} and {v,z}:
        # the larger code goes to {x,y}'s, except when u = y and {u,z} has
        # the largest code of the three, when the smaller one does.
        if uw < zw:
            lo, hi = uw, zw
        else:
            lo, hi = zw, uw
        if u == y and uz > hi:
            lo, hi = hi, lo
        q = pos[vz]
        uncov[i] = hi
        pos[hi] = i
        uncov[q] = lo
        pos[lo] = q

    if uncov:
        return None, moves
    # row y of the half table: the cells x*n + y, x < y
    return [t[y:y * n:n] for y in range(n)], moves


def complete_partial(
    ts: TripleSystem,
    target_order: int,
    seed: int = 0,
    restarts: int = config.DEFAULT_RESTARTS,
    moves_per_restart: Optional[int] = None,
) -> CompletionReport:
    """Embed ts into a Steiner system of the given order.

    The source keeps its point indices; new points are appended.  Raises
    BudgetExhaustedError, carrying the failed report as .partial, when no
    restart converges.  A Steiner source of order u lies in no Steiner
    system of order v with u < v < 2u+1, since a proper subsystem of an
    STS(v) has at most (v-1)/2 points (Doyen and Wilson, 1973), so such a
    target raises InadmissibleOrderError before any restart.  A partial
    source may take a target below 2u+1 (the caller may know better), which
    is not guaranteed to admit any completion.  Targets
    above the construction cap raise TooLargeError before the climb
    allocates its order x order pair table.  moves_per_restart defaults to
    config.default_moves(target_order).
    """
    if not steiner_admissible(target_order):
        raise InadmissibleOrderError(
            "target order %d is not 1 or 3 mod 6" % target_order
        )
    if target_order < ts.order:
        raise InadmissibleOrderError(
            "target order %d below source order %d" % (target_order, ts.order)
        )
    if ts.is_steiner() and ts.order < target_order < 2 * ts.order + 1:
        raise InadmissibleOrderError(
            "no Steiner system of order %d contains one of order %d: a proper"
            " subsystem has at most (v-1)/2 points" % (target_order, ts.order)
        )
    cap = config.order_cap()
    if target_order > cap:
        raise TooLargeError("completion capped at order %d" % cap)
    if moves_per_restart is None:
        moves_per_restart = config.default_moves(target_order)
    rng = random.Random(seed)
    total_moves = 0
    for attempt in range(1, restarts + 1):
        third, moves = _climb(target_order, ts, rng, moves_per_restart)
        total_moves += moves
        if third is None:
            continue
        variant = "random" if not ts.block_count else "completed"
        tag = GeometryTag(variant, None, seed)
        system = TripleSystem._of_table(target_order, third,
                                        target_order * (target_order - 1) // 6,
                                        SystemKind.STEINER, tag)
        kept = all(c == -1 or c == d for row, out in zip(ts._third, system._third)
                   for c, d in zip(row, out))
        checks = (("steiner", system.is_steiner()), ("contains_source", kept))
        return CompletionReport(
            ts.order, target_order, seed, attempt, total_moves,
            True, system, checks,
        )
    report = CompletionReport(
        ts.order, target_order, seed, restarts, total_moves, False, None, ()
    )
    raise BudgetExhaustedError(
        "no completion of order %d in %d restarts" % (target_order, restarts),
        partial=report,
    )


def random_sts(order: int, seed: int = 0) -> TripleSystem:
    """A pseudorandom Steiner triple system built by hill climbing."""
    if not steiner_admissible(order):
        raise InadmissibleOrderError("no Steiner system of order %d" % order)
    if order < 7:
        raise TrivialOrderError("random_sts is for orders >= 7")
    # the source is one point and no block, so complete_partial checks the
    # cap before any table of this order is built
    source = TripleSystem._of_table(1, _empty_pair_table(1), 0, SystemKind.PARTIAL,
                                    PLAIN_TAG)
    return complete_partial(source, order, seed).system


def next_admissible(v: int) -> int:
    """Smallest Steiner-admissible order >= v."""
    while not steiner_admissible(v):
        v += 1
    return v


def two_minimal_sizes_sts(n: int = 4, seed: int = 0):
    """A Steiner system with minimal spreading sets of sizes 3 and n.

    Returns (system, base, b_triple): base is the image of the affine base
    (a minimal spreading set of size n), b_triple = {b1,b2,b3} (a minimal
    spreading set of size 3).  The partial two-sizes system is embedded into
    the smallest admissible order at least twice-plus-one its point count;
    if every restart budget there fails, the next two admissible orders are
    tried.  Each target gets config.DEFAULT_RESTARTS restarts of
    config.default_moves(target) moves, complete_partial's defaults.

    Every completion carries both minimal spreading sets, so none is
    checked here:
    - a completion is a Steiner system by construction, so a pair closes
      to the block on it and never spreads;
    - b_triple and the base spread in the partial system, and a closure
      only grows as blocks are added;
    - every pair inside X_i lies on a frozen line inside X_i, so X_i stays
      closed in every completion and keeps a_i out of cl(base - a_i); by
      monotonicity no smaller subset of the base spreads either.
    """
    from .constructions import section4_partial

    art = section4_partial(n)
    source = art.system
    base = frozenset(art.base_points)
    b_triple = frozenset(art.b_points[:3])
    rng = random.Random(seed)

    targets = []
    v = next_admissible(2 * source.order + 1)
    for _ in range(3):
        targets.append(v)
        v = next_admissible(v + 1)

    last_report = None
    for target in targets:
        try:
            report = complete_partial(source, target, seed=rng.getrandbits(32))
        except BudgetExhaustedError as exc:
            last_report = exc.partial
            continue
        return report.system, base, b_triple
    raise BudgetExhaustedError(
        "two-sizes completion failed for targets %s" % (targets,),
        partial=last_report,
    )
