"""Constructions of Steiner and partial triple systems.

Provided families:

* pg2(d): the projective space PG(d,2).  Points are the nonzero vectors of
  F2^(d+1), blocks are the triples {a, b, a xor b}.  Point i carries the
  label vector of the integer i+1, so the standard basis vector e_i sits at
  point index 2^i - 1.

* ag3(d): the affine space AG(d,3).  Points are all vectors of F3^d (point
  index = integer with base-3 digits the coordinates), blocks are the
  zero-sum triples of distinct vectors, i.e. the affine lines.

* subsystem_free_sts15(seed): a random STS(15) without proper subsystems,
  found by randomized pair-covering backtracking and verified before return.

* perturbed_pg(d, seed): PG(d,2) with the blocks inside the 15-point
  subspace W spanned by e_0..e_3 replaced by a subsystem-free STS(15),
  aligned so that the three lines on the pairs {e_1,e_2}, {e_2,e_3},
  {e_1,e_3} survive.  The result is a Steiner system of the same order in
  which {e_1, ..., e_d} is a minimal spreading set of size d: one less than
  the maximum that greedy growth can force.

* section4_partial(n): the partial system with minimal spreading sets of
  two different sizes (3 and n).  Inside AG(n-1,3) take the affine base
  a_1 = 0, a_2 = e_1, ..., a_n = e_(n-1); for each i let X_i be the affine
  span of the base minus a_i, and collect every line lying inside some X_i.
  Then pick b_1, b_2, b_3 from X_1, X_2, X_3 minus the other hyperplanes,
  append fresh points b_4 ... b_(n+7), and wire them with the triples
  (b_k, b_(k+1), b_(k+3)) for k = 1..n+4 and (b_l, b_(l+4), a_(l-3)) for
  l = 4..n+3.  The b-chain drags in every a_i, so {b_1,b_2,b_3} spreads,
  while each X_i stays closed because no added triple has two points in it.
"""

from __future__ import annotations

import random
from array import array
from itertools import combinations
from typing import NamedTuple

from . import config
from .closure import closure_points, is_spreading_system
from .errors import (
    NoTriangleError,
    NotSteinerError,
    SearchExhaustedError,
    TooLargeError,
    TrivialOrderError,
)
from .system import GeometryTag, SystemKind, TripleSystem, _typecode

STS15_NODE_BUDGET = 10 ** 6
STS15_MAX_RESTARTS = 100


def _cayley_rows(q, n, first, code):
    """The rows L_a[v] = first[a + v] for a, v in range(q^n), where + adds
    the base-q digits of a and v mod q, as arrays of the given typecode.

    Let a have its top digit t at place k, and a' = a - t q^k.  Then L_a[v]
    is L_a'[v + t q^k]: each block of q^(k+1) entries of L_a is the same
    block of L_a' with its q pieces of q^k entries rotated by t.  So every
    row is a few slices of an earlier one, with no work per entry.
    """
    size = q ** n
    rows = [array(code, first)]
    step = 1  # q^k
    for a in range(1, size):
        if a == q * step:
            step *= q
        top = a // step
        src = rows[a - top * step]
        row = src[:]
        for base in range(0, size, q * step):
            for j in range(q):
                start = base + (j + top) % q * step
                row[base + j * step:base + (j + 1) * step] = src[start:start + step]
        rows.append(row)
    return rows


def _lower_cayley_rows(q, n, first, code):
    """The rows of _cayley_rows below the diagonal: row a holds L_a[v] for
    v < a, and the full rows are never held.

    Let s = q^(n-1), and tops[k] the Cayley rows of size s over
    first[k s:(k+1) s].  Point t s + a, t its top digit, has L[u s + v] =
    tops[(t + u) % q][a][v], so its lower row is tops[(t + j) % q][a] for
    j < t, then tops[2t % q][a][:a].  Row a of each top table is freed once
    it is read, so the build holds little beyond the tops, 1/q of the full
    rows.
    """
    s = q ** (n - 1)
    tops = [_cayley_rows(q, n - 1, first[k * s:(k + 1) * s], code) for k in range(q)]
    rows = [None] * (q * s)
    for a in range(s):
        for t in range(q):
            row = tops[2 * t % q][a][:a]
            for j in reversed(range(t)):
                row = tops[(t + j) % q][a] + row
            rows[t * s + a] = row
        for top in tops:
            top[a] = None
    return rows


def pg2(d: int) -> TripleSystem:
    """The projective Steiner triple system PG(d,2) of order 2^(d+1) - 1.

    The blocks are {a-1, b-1, c-1} for labels c = a xor b, and the pair
    table is built without them: row a-1 is [(a ^ b) - 1 for b in 1..a-1].
    These are the rows of _lower_cayley_rows with q = 2 and first[v] =
    v - 1, less label 0.
    """
    if d < 1:
        raise TrivialOrderError("pg2 needs dimension >= 1")
    cap = config.order_cap()
    if d > (cap + 1).bit_length() - 2:  # 2^(d+1) - 1 > cap, without the power
        raise TooLargeError("PG(%d,2) has order above the cap %d" % (d, cap))
    order = (1 << (d + 1)) - 1
    rows = _lower_cayley_rows(2, d + 1, range(-1, order), _typecode(order))
    for row in rows[1:]:
        del row[0]
    labels = tuple(
        tuple((v >> i) & 1 for i in range(d + 1)) for v in range(1, order + 1)
    )
    tag = GeometryTag("pg2", d, None, labels)
    return TripleSystem._of_table(order, rows[1:], order * (order - 1) // 6,
                                  SystemKind.STEINER, tag)


def _f3_digits(value: int, width: int) -> tuple:
    return tuple((value // 3 ** i) % 3 for i in range(width))


def ag3(d: int) -> TripleSystem:
    """The affine Steiner triple system AG(d,3) of order 3^d.

    The blocks are {a, b, c} with c = -(a + b) digit by digit mod 3, and the
    pair table is built without them: its rows are those of
    _lower_cayley_rows with q = 3 and first[v] = -v.  The diagonal, where
    the rule gives -2a = a, is not stored.
    """
    if d < 1:
        raise TrivialOrderError("ag3 needs dimension >= 1")
    cap = config.order_cap()
    if d > cap.bit_length() or 3 ** d > cap:  # the power only once d is small
        raise TooLargeError("AG(%d,3) has order above the cap %d" % (d, cap))
    order = 3 ** d
    powers = [3 ** i for i in range(d)]
    digits = [_f3_digits(v, d) for v in range(order)]
    negated = [sum(-x % 3 * p for x, p in zip(dv, powers)) for dv in digits]
    rows = _lower_cayley_rows(3, d, negated, _typecode(order))
    labels = tuple(digits)
    tag = GeometryTag("ag3", d, None, labels)
    return TripleSystem._of_table(order, rows, order * (order - 1) // 6,
                                  SystemKind.STEINER, tag)


def find_triangle(ts: TripleSystem):
    """First triangle configuration of a Steiner system, in index order.

    Returns (vertices, edges) = ((a, a', a''), (b, b', b'')) such that
    {a, b, a'}, {a', b', a''} and {a'', b'', a} are blocks.  Any non-block
    triple works as the vertex set: the three pair completions are then
    automatically distinct and disjoint from the vertices, so systems of
    order >= 7 always contain one.
    """
    if not ts.is_steiner():
        raise NotSteinerError("triangle search needs a Steiner system")
    if ts.order < 7:
        raise NoTriangleError("no triangle in orders below 7")
    third = ts._third
    for a, b, c in combinations(range(ts.order), 3):
        if third[b][a] != c:
            return (a, b, c), (third[b][a], third[c][b], third[c][a])
    raise NoTriangleError("system has no non-block triple")


class _NodesExhausted(Exception):
    pass


def _backtrack_sts(order: int, rng: random.Random, node_budget: int):
    """One randomized pair-covering backtracking run; the pair table of a
    Steiner system, or None.  The run keeps both orders of each pair in a
    square scratch table, folded below the diagonal on success."""
    blank = array(_typecode(order), [-1]) * order
    third = [blank[:] for _ in range(order)]
    nodes = 0

    def least_uncovered():
        for x in range(order):
            row = third[x]
            for y in range(x + 1, order):
                if row[y] == -1:
                    return x, y
        return None

    def place(x, y, z):
        for u, v, w in ((x, y, z), (x, z, y), (y, z, x)):
            third[u][v] = third[v][u] = w

    def unplace(x, y, z):
        for u, v in ((x, y), (x, z), (y, z)):
            third[u][v] = third[v][u] = -1

    def extend():
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise _NodesExhausted
        pair = least_uncovered()
        if pair is None:
            return True
        x, y = pair
        rowx, rowy = third[x], third[y]
        cands = [
            z
            for z in range(order)
            if z != x and z != y and rowx[z] == -1 and rowy[z] == -1
        ]
        rng.shuffle(cands)
        for z in cands:
            place(x, y, z)
            if extend():
                return True
            unplace(x, y, z)
        return False

    try:
        return [row[:x] for x, row in enumerate(third)] if extend() else None
    except _NodesExhausted:
        return None


def subsystem_free_sts15(seed: int = 0) -> TripleSystem:
    """A random STS(15) in which every nontrivial 3-subset spreads.

    Randomized backtracking over pair covering, with up to
    STS15_MAX_RESTARTS restarts of STS15_NODE_BUDGET nodes each; candidates
    with a proper subsystem are rejected and the search continues.  Fully
    deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    for _ in range(STS15_MAX_RESTARTS):
        third = _backtrack_sts(15, rng, STS15_NODE_BUDGET)
        if third is None:
            continue
        ts = TripleSystem._of_table(
            15, third, 35, SystemKind.STEINER, GeometryTag("random", None, seed)
        )
        if is_spreading_system(ts):
            return ts
    raise SearchExhaustedError(
        "no subsystem-free STS(15) found in %d restarts" % STS15_MAX_RESTARTS
    )


def perturbed_pg(d: int, seed: int = 0) -> TripleSystem:
    """PG(d,2) with its e_0..e_3 subspace replaced by a subsystem-free STS(15).

    The replacement is relabeled so that the three blocks on the pairs
    {e_1,e_2}, {e_2,e_3} and {e_1,e_3} coincide with the projective lines;
    every block with at most one point inside the subspace is untouched.
    {e_1, ..., e_d} then spreads and no proper subset of it does, giving a
    minimal spreading set one short of the projective maximum.  Both hold
    by construction, and claims.almostmax checks them on the result:
    - find_triangle's blocks {a1,a2,b12}, {a2,a3,b23}, {a1,a3,b13} are
      relabelled onto the lines {1,3,5}, {3,7,11} and {1,7,9};
    - {a1,a2,a3} is a non-block triple of a subsystem-free STS(15), so its
      image {e_1,e_2,e_3} closes to the whole subspace W;
    - the blocks with at most one point in W are those of PG(d,2), so a set
      holding W closes as in PG(d,2), and a projective subspace is closed
      when it holds W or meets W in one aligned line.  Without e_k (k >= 4)
      the rest lies in a hyperplane holding W; without one of e_1, e_2,
      e_3 it lies in a subspace meeting W in the line on the other two.
    """
    if d < 4:
        raise TrivialOrderError("perturbed_pg needs dimension >= 4")
    base = pg2(d)
    # point index of the label vector v is v - 1: e_1, e_2, e_3 and the
    # third points of the lines on their pairs
    v1, v2, v3 = 1, 3, 7
    e12, e23, e13 = 5, 11, 9

    sts = subsystem_free_sts15(seed)
    (a1, a2, a3), (b12, b23, b13) = find_triangle(sts)
    relabel = {a1: v1, a2: v2, a3: v3, b12: e12, b23: e23, b13: e13}
    rest_src = [p for p in range(15) if p not in relabel]
    rest_dst = [p for p in range(15) if p not in set(relabel.values())]
    relabel.update(zip(rest_src, rest_dst))

    # W, points 0..14, is closed, so the blocks with two points in W are the
    # blocks inside it: those are the entries of rows 0..14, which take the
    # relabelled STS(15) in place of PG(3,2); the other rows are base's
    blank = array(_typecode(base.order), [-1]) * 15
    inner = [blank[:x] for x in range(15)]
    for x, row in enumerate(sts._third):
        u = relabel[x]
        for y, z in enumerate(row):
            v = relabel[y]
            inner[max(u, v)][min(u, v)] = relabel[z]
    third = inner + base._third[15:]
    tag = GeometryTag("perturbed_pg", d, seed, base.tag.labels)
    return TripleSystem._of_table(base.order, third, base.block_count, SystemKind.STEINER, tag)


class Section4Artifacts(NamedTuple):
    """Output bundle of section4_partial.

    system is the partial triple system; base_points are the images of the
    affine base a_1..a_n, hyperplane_sets the images of X_1..X_n, and
    b_points the chain b_1..b_(n+7) (the first three live inside the
    geometry, the rest are fresh points).
    """

    system: TripleSystem
    base_points: tuple
    hyperplane_sets: tuple
    b_points: tuple


def section4_partial(n: int = 4) -> Section4Artifacts:
    """Partial system with minimal spreading sets of sizes 3 and n.

    What the construction needs holds for every n >= 4, so nothing is
    checked after building; claims.two_sizes checks the claim on a
    completion:
    - the base 0, e_1, ..., e_(n-1) is affinely independent, so a_i lies
      outside X_i;
    - X_1 is the hyperplane of coordinate sum 1 and X_(j+1) the hyperplane
      x_j = 0, so X_1 minus the others holds the points with no zero
      coordinate and sum 1, and X_(j+1) minus the others those whose only
      zero is x_j and whose sum is not 1: both exist once n - 1 >= 2;
    - no added triple has two points in one X_i (pinned by the tests).
    The only size cap is ag3's: AG(n-1,3) above the construction cap is
    refused before its order is computed.
    """
    if n <= 3:
        raise TrivialOrderError("two-sizes construction needs n > 3")

    ambient = ag3(n - 1)
    labels = ambient.tag.labels
    base = [0] + [3 ** j for j in range(n - 1)]  # 0, e_1, ..., e_(n-1)
    hyper = [closure_points(ambient, [p for k, p in enumerate(base) if k != i])
             for i in range(n)]

    union = sorted(set().union(*hyper))
    rank = {p: i for i, p in enumerate(union)}

    kept = set()
    for t in ambient.triples:
        s = set(t)
        if any(s <= h for h in hyper):
            kept.add(t)

    # b_i: the first point, by label, of X_i minus the other X_j
    b_geo = [min(hyper[i].difference(*(h for j, h in enumerate(hyper) if j != i)),
                 key=lambda p: labels[p])
             for i in range(3)]

    order = len(union) + n + 4
    b_points = [rank[p] for p in b_geo] + list(range(len(union), order))
    base_new = [rank[p] for p in base]
    hyper_new = [frozenset(rank[p] for p in h) for h in hyper]

    triples = [tuple(sorted((rank[a], rank[b], rank[c]))) for a, b, c in kept]
    added = []
    for k in range(1, n + 5):  # (b_k, b_(k+1), b_(k+3)),  k = 1..n+4
        added.append((b_points[k - 1], b_points[k], b_points[k + 2]))
    for l in range(4, n + 4):  # (b_l, b_(l+4), a_(l-3)),  l = 4..n+3
        added.append((b_points[l - 1], b_points[l + 3], base_new[l - 4]))
    triples += [tuple(sorted(t)) for t in added]

    full_labels = tuple(
        labels[union[i]] if i < len(union) else None for i in range(order)
    )
    tag = GeometryTag("section4", n, None, full_labels)
    system = TripleSystem(order, triples, SystemKind.PARTIAL, tag)
    return Section4Artifacts(
        system=system,
        base_points=tuple(base_new),
        hyperplane_sets=tuple(hyper_new),
        b_points=tuple(b_points),
    )
