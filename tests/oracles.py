"""Independent reference implementations used to cross-check the library.

Everything here is written against the algebraic definitions (linear spans
over F2, affine spans over F3, direct pair-covering scans) rather than the
library's incidence-based fixpoint code, so agreement between the two is
meaningful evidence.
"""

from fractions import Fraction
from itertools import combinations, product


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
    """Every minimal spreading set of size <= max_size, by brute force."""
    found = []
    for size in range(1, max_size + 1):
        for subset in combinations(range(order), size):
            if not naive_is_spreading(order, triples, subset):
                continue
            if all(
                not naive_is_spreading(order, triples, sub)
                for sub in combinations(subset, size - 1)
            ):
                found.append(frozenset(subset))
    return set(found)


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


def bfs_closed_sets(order, triples):
    """Proper closed sets of size >= 3 that are not blocks, in the order
    they are first found.

    Closures of the non-block 3-subsets are offered in lexicographic order,
    then the closures of each found set plus one outside point.  A search
    that keeps at most m sets keeps the first m of this list, and is cut
    short exactly when the list is longer.
    """
    everything = frozenset(range(order))
    blocks = {frozenset(t) for t in triples}
    found = []
    seen = {everything}

    def offer(closed):
        if closed not in seen:
            seen.add(closed)
            found.append(closed)

    for t in combinations(range(order), 3):
        if frozenset(t) not in blocks:
            offer(naive_closure(triples, t))
    for closed in found:
        for p in range(order):
            if p not in closed:
                offer(naive_closure(triples, closed | {p}))
    return found


# -- binary projective space -----------------------------------------------


def f2_span_indices(point_indices, dim):
    """Span of PG(dim,2) points given as indices (label = index + 1)."""
    labels = [p + 1 for p in point_indices]
    span = {0}
    for lab in labels:
        span |= {x ^ lab for x in span}
    return frozenset(lab - 1 for lab in span if lab)


def pg_block_set(dim):
    order = (1 << (dim + 1)) - 1
    blocks = set()
    for a in range(1, order + 1):
        for b in range(a + 1, order + 1):
            c = a ^ b
            if c > b:
                blocks.add((a - 1, b - 1, c - 1))
    return blocks


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


def ag_block_set(dim):
    order = 3 ** dim
    blocks = set()
    for a in range(order):
        da = f3_digits(a, dim)
        for b in range(a + 1, order):
            db = f3_digits(b, dim)
            dc = tuple((-x - y) % 3 for x, y in zip(da, db))
            c = f3_value(dc)
            if c > b:
                blocks.add((a, b, c))
    return blocks
