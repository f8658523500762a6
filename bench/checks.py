"""Checkers for the benchmark, written apart from the program.

Nothing here imports stspread.  Systems are read from the text files the CLI
writes; closures use a table indexed by point pairs built from those block
lines; geometric facts come from label arithmetic (F2 xor, F3 digit sums) and
from the reference code in tests/oracles.py (F2 spans, Gaussian binomials).
Every check returns a list of failure messages, empty when the check passes.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import (  # noqa: E402  (re-exported for the workload checks)
    f2_span_indices,
    gaussian_binomial,
    hyperplane_point_indices,
    variance_sum_by_enumeration,
)


# -- systems read from the CLI's text format -------------------------------


def read_system(text):
    """(order, kind, blocks) from the 'v'/'b' line format, blocks as written."""
    order = kind = None
    blocks = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "v":
            order, kind = int(fields[1]), fields[2]
        elif fields[0] == "b":
            blocks.append((int(fields[1]), int(fields[2]), int(fields[3])))
        else:
            raise ValueError("unknown record %r" % line)
    return order, kind, blocks


def _sorted_distinct(blocks):
    bad = []
    if any(not (a < b < c) for a, b, c in blocks):
        bad.append("a block is not written in ascending order")
    if any(blocks[i] >= blocks[i + 1] for i in range(len(blocks) - 1)):
        bad.append("blocks are not strictly sorted")
    return bad


def pair_counts(order, blocks, steiner=True):
    """No pair of points lies in two blocks; with steiner, every pair lies in one."""
    seen = bytearray(order * order)
    for a, b, c in blocks:
        for x, y in ((a, b), (a, c), (b, c)):
            if not (0 <= x < order and 0 <= y < order) or x == y:
                return ["block %r leaves the point range" % ((a, b, c),)]
            if seen[x * order + y]:
                return ["pair (%d, %d) lies in two blocks" % (x, y)]
            seen[x * order + y] = seen[y * order + x] = 1
    pairs = order * (order - 1) // 2
    if steiner and 3 * len(blocks) != pairs:
        return ["%d blocks cover %d pairs, not %d" % (len(blocks), 3 * len(blocks), pairs)]
    return []


def pg_rule(dim, blocks):
    """Blocks of PG(dim,2): sorted, one per line, (a+1) xor (b+1) = c+1."""
    order = (1 << (dim + 1)) - 1
    want = order * (order - 1) // 6
    bad = _sorted_distinct(blocks)
    if len(blocks) != want:
        bad.append("%d blocks, PG(%d,2) has %d" % (len(blocks), dim, want))
    wrong = [t for t in blocks if (t[0] + 1) ^ (t[1] + 1) != t[2] + 1 or t[2] >= order]
    if wrong:
        bad.append("%d blocks break the xor rule, first %r" % (len(wrong), wrong[0]))
    return bad


def _f3_digits(value, dim):
    out = []
    for _ in range(dim):
        value, d = divmod(value, 3)
        out.append(d)
    return out


def ag_rule(dim, blocks):
    """Blocks of AG(dim,3): sorted, and the three digit vectors sum to zero."""
    order = 3 ** dim
    want = order * (order - 1) // 6
    bad = _sorted_distinct(blocks)
    if len(blocks) != want:
        bad.append("%d blocks, AG(%d,3) has %d" % (len(blocks), dim, want))
    digits = [_f3_digits(v, dim) for v in range(order)]
    wrong = [
        t for t in blocks
        if t[2] >= order
        or any((x + y + z) % 3 for x, y, z in zip(digits[t[0]], digits[t[1]], digits[t[2]]))
    ]
    if wrong:
        bad.append("%d blocks are not zero-sum, first %r" % (len(wrong), wrong[0]))
    return bad


# -- closure indexed by point pairs ----------------------------------------


class PairClosure:
    """Closure operator of a (partial) triple system given by its block list.

    third[x * order + y] is the third point of the block on {x, y}, or -1.
    """

    def __init__(self, order, blocks):
        self.order = order
        self.full = (1 << order) - 1
        third = [-1] * (order * order)
        for a, b, c in blocks:
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                third[x * order + y] = z
                third[y * order + x] = z
        self.third = third

    def mask(self, points):
        """Bitmask of the closure of points."""
        n, third = self.order, self.third
        members = []
        mask = 0
        for p in points:
            if not mask >> p & 1:
                mask |= 1 << p
                members.append(p)
        i = 0
        while i < len(members):
            row = members[i] * n
            for y in members[:i]:
                z = third[row + y]
                if z >= 0 and not mask >> z & 1:
                    mask |= 1 << z
                    members.append(z)
            i += 1
        return mask

    def points(self, points):
        mask = self.mask(points)
        return frozenset(p for p in range(self.order) if mask >> p & 1)

    def spreads(self, points):
        return self.mask(points) == self.full

    def one_step(self, points):
        """The set plus the third points of every block on two of its points."""
        n, third = self.order, self.third
        pts = list(points)
        cover = set(pts)
        for i, x in enumerate(pts):
            for y in pts[:i]:
                z = third[x * n + y]
                if z >= 0:
                    cover.add(z)
        return cover


# -- numbers the results must match ----------------------------------------


def counting_bound(order):
    """Least s with C(s,2) + s >= order: s points and their C(s,2) blocks
    reach at most that many points in one step."""
    s = 1
    while s * (s - 1) // 2 + s < order:
        s += 1
    return s


def n_bases(dim):
    """Unordered bases of F2^dim: prod(2^dim - 2^i) / dim!."""
    return math.prod((1 << dim) - (1 << i) for i in range(dim)) // math.factorial(dim)


def n_projective_subspaces(dim, sizes):
    """Subspaces of F2^dim of the given vector dimensions, by Gaussian binomials."""
    return sum(gaussian_binomial(dim, k, 2) for k in sizes)


def colex_rank(points):
    """Position of a k-set among all k-sets in colexicographic order."""
    return sum(math.comb(p, i + 1) for i, p in enumerate(sorted(points)))


def f2_independent(points):
    """Labels index + 1 are linearly independent over F2 (xor basis)."""
    basis = []
    for p in points:
        v = p + 1
        for b in basis:
            v = min(v, v ^ b)
        if not v:
            return False
        basis.append(v)
    return True


# -- checks on whole results -----------------------------------------------


def check_saturating_witness(clo, size, witness):
    bad = []
    if len(witness) != size:
        bad.append("witness has %d points, size says %d" % (len(witness), size))
    if len(clo.one_step(witness)) != clo.order:
        bad.append("witness does not saturate in one step")
    bound = counting_bound(clo.order)
    if size < bound:
        bad.append("size %d is below the counting bound %d" % (size, bound))
    return bad


def check_bases(sets, dim):
    """sets is exactly the set of bases of F2^(dim+1) in PG(dim,2)."""
    want = n_bases(dim + 1)
    bad = []
    if len(sets) != want:
        bad.append("%d sets listed, F2^%d has %d bases" % (len(sets), dim + 1, want))
    if len(set(sets)) != len(sets):
        bad.append("a set is listed twice")
    wrong = [s for s in sets if len(s) != dim + 1 or not f2_independent(s)]
    if wrong:
        bad.append("%d sets are not bases, first %r" % (len(wrong), sorted(wrong[0])))
    return bad


def check_minimal_spreading(clo, sets, small=3):
    """Each set spreads and no one-point-smaller subset does; every minimal
    spreading set of at most `small` points is listed."""
    bad = []
    for s in sets:
        if not clo.spreads(s):
            bad.append("%r does not spread" % sorted(s))
        elif any(clo.spreads(s - {p}) for p in s):
            bad.append("%r is not minimal" % sorted(s))
        if len(bad) >= 5:
            return bad
    listed = set(sets)
    n = clo.order
    spreading_pairs = {frozenset((a, b)) for b in range(n) for a in range(b) if clo.spreads((a, b))}
    found = set(spreading_pairs)
    if small >= 3:
        for c in range(n):
            for b in range(c):
                for a in range(b):
                    t = frozenset((a, b, c))
                    if (frozenset((a, b)) in spreading_pairs or frozenset((a, c)) in spreading_pairs
                            or frozenset((b, c)) in spreading_pairs):
                        continue
                    if clo.spreads((a, b, c)):
                        found.add(t)
    missing = sorted(sorted(s) for s in found - listed)
    if missing:
        bad.append("%d minimal spreading sets of size <= %d missing, first %r"
                   % (len(missing), small, missing[0]))
    return bad


def check_closed_sets(clo, sets, blocks):
    """Each set is a proper closed set of at least 3 points and not a block."""
    block_set = {frozenset(b) for b in blocks}
    bad = []
    if len(set(sets)) != len(sets):
        bad.append("a set is listed twice")
    for s in sets:
        if len(s) < 3 or len(s) >= clo.order or s in block_set:
            bad.append("%r is trivial or not proper" % sorted(s))
        elif clo.points(s) != s:
            bad.append("%r is not closed" % sorted(s))
        if len(bad) >= 5:
            break
    return bad


def check_xor_closed(sets):
    """Each set is a projective subspace of PG(n,2): closed under label xor."""
    bad = []
    for s in sets:
        labels = {p + 1 for p in s}
        if any((x ^ y) not in labels for x in labels for y in labels if x != y):
            bad.append("%r is not closed under xor" % sorted(s))
            break
    return bad


def check_sampled_triples(clo, sets, blocks, triples):
    """Every sampled non-block triple whose closure is proper closes onto a listed set."""
    block_set = {tuple(sorted(b)) for b in blocks}
    listed = set(sets)
    for t in triples:
        if tuple(sorted(t)) in block_set:
            continue
        c = clo.points(t)
        if len(c) < clo.order and c not in listed:
            return ["closure of %r (%d points) is not listed" % (sorted(t), len(c))]
    return []
