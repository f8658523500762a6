"""Independent reference implementations used to cross-check the library.

Everything here is written against the algebraic definitions (linear spans
over F2, affine spans over F3, direct pair-covering scans) rather than the
library's incidence-based fixpoint code, so agreement between the two is
meaningful evidence.
"""

from fractions import Fraction
from itertools import combinations, product


# -- colex order and bit-sliced batches ------------------------------------


def colex_subsets(n, k):
    """All k-subsets of range(n) as tuples, in colexicographic order: by
    greatest point, then by the rest in colex order."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in colex_subsets(top, k - 1):
            yield rest + (top,)


def string_columns(batch, width):
    """The first width candidates of a bit-sliced batch (one int per point,
    bit j set when candidate j holds it) as masks, candidate j at index j.

    Every row's bits below width, top point first, go into one string, and
    the slice of it with step width that starts at width-1-j reads
    candidate j's mask, top point first.
    """
    rows = "".join([format(s & ((1 << width) - 1), "0%db" % width)
                    for s in reversed(batch)])
    return [int(rows[j::width], 2) for j in range(width - 1, -1, -1)]


# -- naive closure straight from the block list ----------------------------


def naive_closure(triples, seeds):
    """Fixpoint of repeated full passes over the block list (no indexes)."""
    current = set(seeds)
    changed = True
    while changed:
        changed = False
        for a, b, c in triples:
            inside = (a in current) + (b in current) + (c in current)
            if inside == 2:
                current.update((a, b, c))
                changed = True
    return frozenset(current)


def naive_is_spreading(order, triples, subset):
    return len(naive_closure(triples, subset)) == order


def brute_min_spreading(order, triples):
    """Smallest spreading set by scanning all subsets in colex order."""
    for size in range(1, order + 1):
        best = None
        for subset in combinations(range(order), size):
            if naive_is_spreading(order, triples, subset):
                key = tuple(sorted(subset, reverse=True))
                if best is None or key < best[0]:
                    best = (key, subset)
        if best is not None:
            return size, frozenset(best[1])
    raise AssertionError("no spreading set found")


def all_minimal_spreading(order, triples, max_size):
    """Every minimal spreading set of size <= max_size, by brute force.

    A spreading set is minimal when no subset one point short spreads, so
    each size closes every subset once and looks those subsets up among
    the spreading sets of the size before."""
    found = []
    below = set()  # the spreading sets one point smaller
    for size in range(1, max_size + 1):
        spreading = {s for s in map(frozenset, combinations(range(order), size))
                     if naive_is_spreading(order, triples, s)}
        found += [s for s in spreading if not any(s - {p} in below for p in s)]
        below = spreading
    return set(found)


def restart_reduce_to_minimal(order, triples, points):
    """A minimal spreading subset of points: drop the least point whose
    removal keeps the set spreading, then start again from the least point,
    until no point can be dropped."""
    current = sorted(points)
    changed = True
    while changed:
        changed = False
        for p in current:
            trial = [q for q in current if q != p]
            if trial and naive_is_spreading(order, triples, trial):
                current = trial
                changed = True
                break
    return frozenset(current)


def naive_saturates(order, triples, subset):
    """One quasi-closure step computed from the original subset only."""
    base = set(subset)
    step = set(subset)
    for a, b, c in triples:
        if (a in base) + (b in base) + (c in base) == 2:
            step.update((a, b, c))
    return len(step) == order


# -- breadth-first walks of the closure lattice ------------------------------
#
# Both walks visit candidates in one order: the frontier in the order its
# closed sets were first found, and each frontier set with its outside points
# in ascending order; the frontier grows while it is walked.


def bfs_min_spreading(order, triples):
    """Smallest spreading set, by closing chains of generators.

    Pairs come first, in colex order; the first candidate whose closure is
    the whole point set is returned, with the chain that reached it.
    """
    everything = frozenset(range(order))
    seen = set()
    frontier = []
    for y in range(order):
        for x in range(y):
            closed = naive_closure(triples, (x, y))
            if closed == everything:
                return 2, frozenset((x, y))
            if closed not in seen:
                seen.add(closed)
                frontier.append((closed, (x, y)))
    for closed, gens in frontier:
        for p in range(order):
            if p in closed:
                continue
            bigger = naive_closure(triples, closed | {p})
            if bigger == everything:
                return len(gens) + 1, frozenset(gens + (p,))
            if bigger not in seen:
                seen.add(bigger)
                frontier.append((bigger, gens + (p,)))
    raise AssertionError("no spreading set found")


def bfs_closed_sets(order, triples, limit=None):
    """Proper closed sets of size >= 3 that are not blocks, in the order
    they are first found.

    Closures of the non-block 3-subsets are offered in lexicographic order,
    then the closures of each found set plus one outside point.  A search
    that keeps at most m sets keeps the first m of this list, and is cut
    short exactly when the list is longer.  With a limit, the list stops
    once it holds that many sets.
    """
    everything = frozenset(range(order))
    blocks = {frozenset(t) for t in triples}
    found = []
    seen = {everything}

    def offer(closed):
        if closed not in seen:
            seen.add(closed)
            found.append(closed)

    def closures():
        for t in combinations(range(order), 3):
            if frozenset(t) not in blocks:
                yield naive_closure(triples, t)
        for closed in found:
            for p in range(order):
                if p not in closed:
                    yield naive_closure(triples, closed | {p})

    for closed in closures():
        if len(found) == limit:
            break
        offer(closed)
    return found


# -- binary projective space -----------------------------------------------


def f2_span_indices(point_indices, dim):
    """Span of PG(dim,2) points given as indices (label = index + 1)."""
    labels = [p + 1 for p in point_indices]
    span = {0}
    for lab in labels:
        span |= {x ^ lab for x in span}
    return frozenset(lab - 1 for lab in span if lab)


def f2_rank(vectors):
    """Rank over F2 of integer bit vectors, by Gaussian elimination."""
    basis = []  # reduced rows with distinct leading bits
    for v in vectors:
        for row in basis:
            v = min(v, v ^ row)
        if v:
            basis.append(v)
    return len(basis)


def pairwise_pg2_triples(dim):
    """Blocks of PG(dim,2) from a double loop over the label pairs a < b,
    kept when c = a xor b > b, as (a-1, b-1, c-1) in loop order."""
    order = (1 << (dim + 1)) - 1
    triples = []
    for a in range(1, order + 1):
        for b in range(a + 1, order + 1):
            c = a ^ b
            if c > b:
                triples.append((a - 1, b - 1, c - 1))
    return triples


def pg_block_set(dim):
    return set(pairwise_pg2_triples(dim))


def pasch_count(order, triples):
    """Pasch configurations: four blocks on six points, each point on two.

    Any two blocks of a Pasch configuration meet, so it is found from each
    of its six pairs of blocks {x,a,b}, {x,c,d}: by the pairing a-c, b-d
    when the blocks on a,c and on b,d share their third point, or by a-d,
    b-c.  An STS(v) has at most v(v-1)(v-3)/24 of them, with equality
    exactly on the binary projective spaces (Stinson-Wei 1992).
    """
    third = {}
    through = [[] for _ in range(order)]
    for block in triples:
        for x in block:
            u, v = (p for p in block if p != x)
            third[u, v] = third[v, u] = x
            through[x].append((u, v))
    found = 0
    for x in range(order):
        for (a, b), (c, d) in combinations(through[x], 2):
            for (p, q), (r, s) in (((a, c), (b, d)), ((a, d), (b, c))):
                y = third.get((p, q))
                if y is not None and y == third.get((r, s)):
                    found += 1
    return found // 6


def union_size_by_inclusion_exclusion(sets):
    """|union of sets| via alternating sums over all nonempty subfamilies."""
    total = 0
    k = len(sets)
    for mask in range(1, 1 << k):
        meet = None
        for i in range(k):
            if mask >> i & 1:
                meet = set(sets[i]) if meet is None else meet & set(sets[i])
        sign = -1 if bin(mask).count("1") % 2 == 0 else 1
        total += sign * len(meet)
    return total


def gaussian_binomial(n, k, q=2):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def xor_saturates(n, subset):
    """Saturation in PG(n,2) by direct label arithmetic."""
    labels = {p + 1 for p in subset}
    count = (1 << (n + 1)) - 1
    for v in range(1, count + 1):
        if v in labels:
            continue
        if not any((v ^ s) in labels and (v ^ s) != s for s in labels):
            return False
    return True


def hyperplane_point_indices(n, functional):
    """Indices of PG(n,2) points with even inner product against functional."""
    out = []
    for lab in range(1, (1 << (n + 1))):
        if bin(lab & functional).count("1") % 2 == 0:
            out.append(lab - 1)
    return out


def brute_extremes(n, m):
    """(max_min, max_min_witness, min_max, min_max_witness) over the
    m-subsets U of PG(n,2), of the least and the greatest |U n H| over the
    hyperplanes H, each witness the colex-first subset attaining its
    extreme; every subset is met with every hyperplane as a set."""
    planes = [set(hyperplane_point_indices(n, f)) for f in range(1, 1 << (n + 1))]
    best_low, best_high = -1, len(planes) + 1
    for subset in colex_subsets((1 << (n + 1)) - 1, m):
        counts = [len(h.intersection(subset)) for h in planes]
        if min(counts) > best_low:
            best_low, low_witness = min(counts), frozenset(subset)
        if max(counts) < best_high:
            best_high, high_witness = max(counts), frozenset(subset)
    return best_low, low_witness, best_high, high_witness


def variance_sum_by_enumeration(n, subset):
    """Sum over hyperplanes of (|subset on H| - m/2)^2, straight from the
    definition with Fractions."""
    m = len(set(subset))
    total = Fraction(0)
    for functional in range(1, (1 << (n + 1))):
        on_h = set(hyperplane_point_indices(n, functional))
        u = len(on_h & set(subset))
        total += (Fraction(u) - Fraction(m, 2)) ** 2
    return total


def most_deviating_functional(n, subset):
    """The least functional whose hyperplane meets subset in a count u
    farthest from m/2, scanned from the definition."""
    m = len(set(subset))
    best, best_functional = -1, None
    for functional in range(1, (1 << (n + 1))):
        u = len(set(hyperplane_point_indices(n, functional)) & set(subset))
        if abs(2 * u - m) > best:
            best, best_functional = abs(2 * u - m), functional
    return best_functional, Fraction(best, 2)


# -- ternary affine space --------------------------------------------------


def f3_digits(value, dim):
    digits = []
    for _ in range(dim):
        digits.append(value % 3)
        value //= 3
    return tuple(digits)


def f3_value(digits):
    value = 0
    for d in reversed(digits):
        value = value * 3 + d
    return value


def f3_affine_span(point_indices, dim):
    """Affine span over F3: base + all F3-combinations of the differences."""
    pts = [f3_digits(p, dim) for p in point_indices]
    if not pts:
        return frozenset()
    base = pts[0]
    diffs = [tuple((a - b) % 3 for a, b in zip(p, base)) for p in pts[1:]]
    span = set()
    for coeffs in product(range(3), repeat=len(diffs)):
        vec = list(base)
        for c, d in zip(coeffs, diffs):
            for i in range(dim):
                vec[i] = (vec[i] + c * d[i]) % 3
        span.add(f3_value(tuple(vec)))
    return frozenset(span)


def pairwise_ag3_triples(dim):
    """Lines of AG(dim,3) from a double loop over the point pairs a < b,
    kept when the third point c = -(a + b) (digit-wise mod 3) has c > b,
    as (a, b, c) in loop order."""
    order = 3 ** dim
    digits = [f3_digits(v, dim) for v in range(order)]
    triples = []
    for a in range(order):
        da = digits[a]
        for b in range(a + 1, order):
            c = f3_value(tuple((-x - y) % 3 for x, y in zip(da, digits[b])))
            if c > b:
                triples.append((a, b, c))
    return triples


def ag_block_set(dim):
    return set(pairwise_ag3_triples(dim))


# -- scalar reference loops of the fast paths ----------------------------------


def line_serialize(ts):
    """The text format built as one string per line, joined with LF."""
    lines = ["v %d %s" % (ts.order, ts.kind.value)]
    tag = ts.tag
    if tag.variant != "plain":
        extra = "" if tag.seed is None else " seed=%d" % tag.seed
        param = "-" if tag.param is None else str(tag.param)
        lines.append("# tag %s %s%s" % (tag.variant, param, extra))
    for a, b, c in ts.triples:
        lines.append("b %d %d %d" % (a, b, c))
    return "\n".join(lines) + "\n"


def block_serialize(ts):
    """The text format read pair by pair through third_point: point a's
    pairs (b, c) with a < b < c = third_point(a, b), each line formatted by
    its own %, the points joined in order.  No table layout decides it."""
    tag = ts.tag
    head = "v %d %s\n" % (ts.order, ts.kind.value)
    if tag.variant != "plain":
        extra = "" if tag.seed is None else " seed=%d" % tag.seed
        param = "-" if tag.param is None else str(tag.param)
        head += "# tag %s %s%s\n" % (tag.variant, param, extra)
    rows = [head]
    for a in range(ts.order):
        thirds = [(b, ts.third_point(a, b)) for b in range(a + 1, ts.order)]
        pairs = [(b, c) for b, c in thirds if c is not None and c > b]
        rows.append("".join(map(("b %d %%d %%d\n" % a).__mod__, pairs)))
    return "".join(rows)


def scalar_climb(order, frozen_blocks, rng, max_moves):
    """The hill climb with a per-move scan of every third point.

    frozen_blocks share no pair.  Makes the moves and the calls on rng of
    completion._climb from a source system with these blocks, and returns
    (blocks or None, moves).
    """
    n = order
    cover = [[-1] * n for _ in range(n)]
    blocks = {}
    nfrozen = len(frozen_blocks)
    for bid, (x, y, z) in enumerate(frozen_blocks):
        blocks[bid] = (x, y, z)
        for u, v in ((x, y), (x, z), (y, z)):
            cover[u][v] = bid
            cover[v][u] = bid
    next_id = nfrozen

    uncov = []
    pos = {}
    for x in range(n):
        for y in range(x + 1, n):
            if cover[x][y] == -1:
                pos[x * n + y] = len(uncov)
                uncov.append(x * n + y)

    def cover_pair(x, y, bid):
        if x > y:
            x, y = y, x
        cover[x][y] = bid
        cover[y][x] = bid
        code = x * n + y
        i = pos.pop(code)
        last = uncov.pop()
        if last != code:
            uncov[i] = last
            pos[last] = i

    def uncover_pair(x, y):
        if x > y:
            x, y = y, x
        cover[x][y] = -1
        cover[y][x] = -1
        code = x * n + y
        pos[code] = len(uncov)
        uncov.append(code)

    moves = 0
    while uncov and moves < max_moves:
        moves += 1
        code = uncov[rng.randrange(len(uncov))]
        x, y = divmod(code, n)
        covx = cover[x]
        covy = cover[y]
        cands = []
        for z in range(n):
            if z == x or z == y:
                continue
            c1 = covx[z]
            c2 = covy[z]
            if 0 <= c1 < nfrozen or 0 <= c2 < nfrozen:
                continue
            if c1 >= 0 and c2 >= 0:
                continue
            cands.append(z)
        if not cands:
            continue
        z = cands[rng.randrange(len(cands))]
        conflict = covx[z] if covx[z] >= 0 else covy[z]
        if conflict >= 0:
            a, b, c = blocks.pop(conflict)
            uncover_pair(a, b)
            uncover_pair(a, c)
            uncover_pair(b, c)
        bid = next_id
        next_id += 1
        blocks[bid] = tuple(sorted((x, y, z)))
        cover_pair(x, y, bid)
        cover_pair(x, z, bid)
        cover_pair(y, z, bid)

    if uncov:
        return None, moves
    return list(blocks.values()), moves


def scalar_parse(text):
    """The text format read line by line, with no fast path."""
    from stspread.errors import BadOrderError, DuplicatePairError, NotSteinerError, ParseError
    from stspread.system import PLAIN_TAG, SystemKind, TripleSystem, _parse_tag_comment

    order = None
    kind = None
    tag = PLAIN_TAG
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if order is not None and tag is PLAIN_TAG:
                maybe = _parse_tag_comment(line[1:].strip())
                if maybe is not None:
                    tag = maybe
            continue
        fields = line.split()
        if fields[0] == "v":
            if order is not None:
                raise ParseError("line %d: repeated header" % lineno)
            if len(fields) != 3:
                raise ParseError("line %d: header must be 'v <order> <kind>'" % lineno)
            try:
                order = int(fields[1])
            except ValueError:
                raise ParseError("line %d: bad order %r" % (lineno, fields[1])) from None
            if fields[2] not in ("steiner", "partial"):
                raise ParseError(
                    "line %d: kind must be 'steiner' or 'partial', got %r"
                    % (lineno, fields[2])
                )
            kind = SystemKind(fields[2])
        elif fields[0] == "b":
            if order is None:
                raise ParseError("line %d: block before header" % lineno)
            if len(fields) != 4:
                raise ParseError("line %d: block must be 'b <i> <j> <k>'" % lineno)
            try:
                t = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise ParseError("line %d: non-integer point index" % lineno) from None
            if len(set(t)) != 3:
                raise ParseError("line %d: repeated index in block" % lineno)
            if min(t) < 0 or max(t) >= order:
                raise ParseError("line %d: point outside [0, %d)" % (lineno, order))
            triples.append(t)
        else:
            raise ParseError("line %d: unknown record %r" % (lineno, fields[0]))
    if order is None:
        raise ParseError("line 0: missing 'v <order> <kind>' header")
    try:
        return TripleSystem(order, triples, kind, tag)
    except (DuplicatePairError, NotSteinerError, BadOrderError) as exc:
        raise ParseError("invalid system: %s" % exc) from exc


def scalar_triple_system(order, triples, kind):
    """(triples, kind, third) as TripleSystem builds them, by the direct
    route: deduplicate and sort every block, fill the pair table one
    oriented pair at a time and test coverage pair by pair.  Raises the
    same errors with the same messages."""
    from stspread.errors import DuplicatePairError, NotSteinerError, OutOfRangeError, SamePointError
    from stspread.system import SystemKind, steiner_admissible

    seen = set()
    out = []
    for t in triples:
        if len(t) != 3:
            raise SamePointError("block %r does not have three distinct points" % (t,))
        a, b, c = sorted(t)
        if a == b or b == c:
            raise SamePointError("block %r repeats a point" % (t,))
        if a < 0 or c >= order:
            raise OutOfRangeError("block %r is outside [0, %d)" % (t, order))
        if (a, b, c) not in seen:
            seen.add((a, b, c))
            out.append((a, b, c))
    out.sort()
    third = [[-1] * order for _ in range(order)]
    for a, b, c in out:
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if third[x][y] != -1:
                raise DuplicatePairError("pair (%d, %d) lies in two blocks" % (x, y))
            third[x][y] = z
            third[y][x] = z
    total = all(third[x][y] != -1 for x in range(order) for y in range(x + 1, order))
    if kind is SystemKind.STEINER and not total:
        raise NotSteinerError("some pair is not covered by any block")
    if total and steiner_admissible(order):
        kind = SystemKind.STEINER
    return tuple(out), kind, third


def pair_square(ts):
    """Every pair of ts read through third_point, in both orders, as the
    square table of scalar_triple_system: -1 on the diagonal and at an
    uncovered pair."""
    third = ts.third_point
    return [[-1 if x == y or (z := third(x, y)) is None else z for y in range(ts.order)]
            for x in range(ts.order)]


def scalar_grow(ts, mask, members, i):
    """closure._grow as a loop over one pair at a time, read through
    third_point: each of members[i:] meets the earlier members in ascending
    order, and each third point not yet in mask is appended as it is
    found.  Returns (mask, members), with members a new list."""
    members = list(members)
    while i < len(members):
        x = members[i]
        for y in sorted(members[:i]):
            z = ts.third_point(x, y)
            if z is not None and not (mask >> z) & 1:
                mask |= 1 << z
                members.append(z)
        i += 1
    return mask, members


def scalar_closure(ts, seeds):
    """closure._closure_mask by scalar_grow: the distinct seeds in their
    order, then every pair."""
    members = list(dict.fromkeys(seeds))
    return scalar_grow(ts, sum(1 << p for p in members), members, 0)
