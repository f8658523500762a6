"""The paper's results, each checked in one place.

One function per ``stspread demo`` subcommand, taking that subcommand's
options.  Each yields ``(name, ok, detail)`` records in the order the
command prints them; ``ok`` is None for a fact reported ahead of the
checks (the two-sizes order, base and b_triple).  Records come lazily, so
a caller that renders them as they arrive keeps every check finished
before a search ran out of budget.  The CLI and the scripts in ``demos/``
render these records; the acceptance tests keep their own oracle checks.

The constructions and the completion pipeline check none of these claims:
they hold there by proof (see perturbed_pg, section4_partial and
two_minimal_sizes_sts), and this module is the one place they are checked
on the built systems.  Beyond the core (closure, system), each function
imports the library modules it calls, so a demo loads only its own code.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, count

from .closure import closure_points, is_saturating_set, is_spreading_set
from .system import _fmt_set, render


def _log2(order):
    """floor(log2(order + 1)), the greedy bound on a spreading set."""
    return (order + 1).bit_length() - 1


def _minimal(ts, points):
    """No set one point short of points spreads; by monotonicity, then, no
    proper subset of points does."""
    return not any(is_spreading_set(ts, sub)
                   for sub in combinations(sorted(points), len(points) - 1))


def report(title, records):
    """Every record rendered, then one line that passes when all checks hold."""
    records = list(records)
    checks = [ok for _, ok, _ in records if ok is not None]
    verdict = "%s %s: %d/%d checks hold" % (
        "PASS" if all(checks) else "FAIL", title, sum(checks), len(checks))
    return "\n".join([render(r) for r in records] + [verdict])


def maxofmin(orders=(7, 9, 13, 15), seed=0):
    """Greedy spreading sets have at most floor(log2(n+1)) points, and
    exactly that many in PG(d,2)."""
    from .completion import random_sts
    from .constructions import pg2
    from .greedy import greedy_spreading_set

    for i, order in enumerate(orders):
        size = greedy_spreading_set(random_sts(order, seed + i)).size
        yield ("greedy_bound order=%d" % order, size <= _log2(order),
               "greedy=%d bound=%d" % (size, _log2(order)))
    for d in (2, 3, 4):
        size = greedy_spreading_set(pg2(d)).size
        yield ("greedy_equality pg2(%d)" % d, size == d + 1,
               "greedy=%d log2(order+1)=%d" % (size, d + 1))


def unicity(trials=500, seed=0):
    """The minimum spreading-set size reaches log2(n+1) exactly on the
    projective spaces, whose closed sets obey the dimension identity."""
    from .completion import random_sts
    from .constructions import ag3, pg2, subsystem_free_sts15
    from .spreading import check_projective, min_spreading_size, verify_dimension_theorem

    systems = [
        ("pg2(2)", pg2(2)),
        ("pg2(3)", pg2(3)),
        ("ag3(2)", ag3(2)),
        ("sts15-free", subsystem_free_sts15(seed)),
        ("random(13)", random_sts(13, seed)),
    ]
    for name, ts in systems:
        n = ts.order
        size, _ = min_spreading_size(ts)
        attains = ((n + 1) & n) == 0 and size == _log2(n)
        proj = check_projective(ts)
        yield ("unicity %s" % name, attains == proj,
               "min=%d projective=%s" % (size, str(proj).lower()))
    for d in (3, 4):
        rep = verify_dimension_theorem(pg2(d), trials=trials, seed=seed)
        yield ("dimension pg2(%d)" % d, rep.ok,
               "trials=%d counterexamples=%d" % (rep.trials, len(rep.counterexamples)))


def almostmax(seed=0):
    """The perturbed PG(4,2) keeps the old basis v1..v4 as a minimal
    spreading set of size 4, below the projective size 5."""
    from .constructions import perturbed_pg
    from .spreading import min_spreading_size

    ts = perturbed_pg(4, seed)
    yield ("perturbed_steiner", ts.order == 31 and ts.is_steiner(),
           "order=%d blocks=%d" % (ts.order, ts.block_count))
    replaced = closure_points(ts, [1, 3, 7])
    yield ("replacement_subspace_closed", replaced == frozenset(range(15)),
           "size=%d" % len(replaced))
    witness = (1, 3, 7, 15)
    yield ("witness_spreads", is_spreading_set(ts, witness),
           "witness=%s" % _fmt_set(witness))
    yield "witness_minimal", _minimal(ts, witness), "all proper subsets fail"
    size, _ = min_spreading_size(ts)
    yield ("below_projective_maximum", size <= 4,
           "min=%d witness_size=4 projective_max=5" % size)


def two_sizes(n=4, seed=0):
    """A Steiner system with minimal spreading sets of sizes 3 and n; the
    order, base and b_triple come first, as facts."""
    from .completion import two_minimal_sizes_sts

    ts, base, b_triple = two_minimal_sizes_sts(n, seed)
    yield "order", None, "order=%d blocks=%d seed=%d" % (ts.order, ts.block_count, seed)
    yield "base", None, "base=%s" % _fmt_set(base)
    yield "b_triple", None, "b_triple=%s" % _fmt_set(b_triple)
    yield "steiner", ts.is_steiner(), "order=%d" % ts.order
    yield "b_triple_spreads", is_spreading_set(ts, b_triple), "size=3"
    yield "b_triple_minimal", _minimal(ts, b_triple), "all pairs fail"
    yield "base_spreads", is_spreading_set(ts, base), "size=%d" % len(base)
    yield "base_minimal", _minimal(ts, base), "all (n-1)-subsets fail"


def szoras(n=3, trials=100, seed=0):
    """The hyperplane variance identity of PG(n,2) holds exactly on random
    subsets, and some hyperplane deviates strictly beyond its r.m.s."""
    from .saturation import _check_pg_dim, _deviation_report, _hyperplane_counts, _variance_sides

    points = _check_pg_dim(n)  # before range(points) is sampled
    rng = random.Random(seed)
    identity_fail = strict_fail = degenerate = 0
    for _ in range(trials):
        subset = rng.sample(range(points), rng.randint(0, points))
        m, counts = _hyperplane_counts(n, subset)  # one pass serves both checks
        lhs, rhs = _variance_sides(n, m, counts)
        identity_fail += lhs != rhs
        dev = _deviation_report(n, m, counts)
        degenerate += dev.degenerate
        strict_fail += not (dev.degenerate or dev.strict)
    yield ("variance_identity", identity_fail == 0,
           "trials=%d failures=%d" % (trials, identity_fail))
    yield ("deviation_strict", strict_fail == 0,
           "trials=%d failures=%d degenerate=%d" % (trials, strict_fail, degenerate))


def bounds(max_n=10):
    """The Lunelli-Sce bounds match their closed forms, and PG(2,2), PG(3,2)
    need 4 and 5 points."""
    from .constructions import pg2
    from .saturation import _check_pg_dim, lunelli_sce_min, min_saturating_size

    dims = range(1, max_n + 1)
    for n in dims:
        _check_pg_dim(n)  # the q = 2 count loops about 2^(n/2+1) times
    lunelli = [lunelli_sce_min(n, 2) for n in dims]
    closed = [next(s for s in count(1) if s * s + s >= (1 << (n + 2)) - 2) for n in dims]
    yield ("lunelli_q2_closed_form", lunelli == closed,
           "least s with s^2+s >= 2^(n+2)-2, n <= %d" % max_n)
    yield ("lunelli_q3_closed_form",
           all(lunelli_sce_min(n, 3) == math.isqrt((3 ** (n + 1) - 1) // 2 - 1) + 1
               for n in range(1, min(max_n, 6) + 1)),
           "least s with s^2 >= (3^(n+1)-1)/2")
    for d, size in ((2, 4), (3, 5)):
        space = pg2(d)
        got, witness = min_saturating_size(space)
        yield ("exact_pg2(%d)" % d,
               got == size and is_saturating_set(space, witness)
               and is_spreading_set(space, witness),
               "size=%d witness=%s" % (got, _fmt_set(witness)))
