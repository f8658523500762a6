"""Spreading-set search: greedy, exact minimum, enumeration, projectivity."""

import pickle
import random
import sys
import time
from itertools import accumulate, combinations
from math import comb

import pytest

from stspread import (
    NotProjectiveTagError,
    SamePointError,
    TripleSystem,
    ag3,
    build_system,
    check_projective,
    enumerate_minimal_spreading_sets,
    greedy_spreading_set,
    is_spreading_set,
    min_spreading_size,
    perturbed_pg,
    pg2,
    random_sts,
    reduce_to_minimal,
    subsystem_free_sts15,
    verify_dimension_theorem,
)

from stspread import enumeration

from oracles import (
    all_minimal_spreading,
    brute_min_spreading,
    naive_closure,
    naive_is_spreading,
    restart_reduce_to_minimal,
)

FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
RANDOM_SYSTEMS = [(v, seed) for v in (7, 9, 13, 15, 19) for seed in (0, 1, 2)]


def _fano():
    return build_system(7, FANO, "steiner")


# -- greedy ------------------------------------------------------------------


def test_greedy_spreads_and_reports_trajectory():
    ts = pg2(3)
    res = greedy_spreading_set(ts)
    assert is_spreading_set(ts, res.witness)
    assert res.size == len(res.witness)
    assert res.method == "greedy"
    assert res.closure_sizes[-1] == ts.order
    # strictly increasing closure trajectory
    assert list(res.closure_sizes) == sorted(set(res.closure_sizes))


def test_greedy_respects_logarithmic_bound():
    rng = random.Random(5)
    for order in (7, 9, 13, 15, 19, 21, 25, 27):
        ts = random_sts(order, rng.randrange(1 << 30))
        res = greedy_spreading_set(ts)
        assert res.size <= (order + 1).bit_length() - 1


def test_greedy_attains_bound_on_projective():
    for d in (2, 3, 4, 5):
        res = greedy_spreading_set(pg2(d))
        assert res.size == d + 1


def test_greedy_doubling_trajectory_in_pg():
    # each adjoined point at least doubles the closure plus one, and in the
    # projective case exactly doubles it
    res = greedy_spreading_set(pg2(4))
    sizes = list(res.closure_sizes)
    for prev, nxt in zip(sizes, sizes[1:]):
        assert nxt == 2 * prev + 1


def test_greedy_seed_pair_validation():
    ts = _fano()
    with pytest.raises(SamePointError):
        greedy_spreading_set(ts, (2, 2))
    res = greedy_spreading_set(ts, (4, 6))
    assert is_spreading_set(ts, res.witness)
    assert {4, 6} <= set(res.witness)


def test_greedy_reads_no_row_once_its_closure_is_whole(monkeypatch):
    # the seventh point of the greedy set of PG(6,2) closes it to all 127
    # points with most members' rows unread: growth stops there, after
    # 2,016 pair lookups
    lookups = []

    def counted(row, p):
        lookups.append(p)
        return row[p]

    ts = pg2(6)
    # the module: the attribute stspread.closure is the function
    monkeypatch.setattr(sys.modules["stspread.closure"], "getitem", counted)
    assert greedy_spreading_set(ts).size == 7
    assert len(lookups) == 2016


def test_reduce_to_minimal():
    ts = pg2(2)
    minimal = reduce_to_minimal(ts, (0, 1, 2, 3, 4))
    assert is_spreading_set(ts, minimal)
    for p in minimal:
        assert not is_spreading_set(ts, set(minimal) - {p})
    assert set(minimal) <= {0, 1, 2, 3, 4}


REDUCTION_SYSTEMS = (
    [pytest.param(lambda d=d: pg2(d), id="pg2(%d)" % d) for d in (2, 3, 4)]
    + [pytest.param(lambda: perturbed_pg(4, 0), id="perturbed_pg(4,0)")]
    + [pytest.param(lambda v=v, s=s: random_sts(v, s), id="random_sts(%d,%d)" % (v, s))
       for v in (7, 9, 13, 15, 19, 21, 25, 27, 31) for s in (0, 1, 2)]
)


@pytest.mark.parametrize("make", REDUCTION_SYSTEMS)
def test_reduce_to_minimal_matches_the_restarting_reduction(make):
    # each set is a random order's shortest spreading prefix plus up to
    # three more points
    ts = make()
    rng = random.Random(ts.order)
    for _ in range(24):
        order = rng.sample(range(ts.order), ts.order)
        k = next(k for k in range(1, ts.order + 1) if is_spreading_set(ts, order[:k]))
        points = order[:k + rng.randint(0, 3)]
        assert reduce_to_minimal(ts, points) == restart_reduce_to_minimal(
            ts.order, ts.triples, points)


# -- exact minimum -----------------------------------------------------------


def test_min_matches_brute_force_on_small_systems():
    for ts in (_fano(), pg2(3), ag3(2), subsystem_free_sts15(0)):
        size, witness = min_spreading_size(ts)
        brute_size, _ = brute_min_spreading(ts.order, ts.triples)
        assert size == brute_size
        assert naive_is_spreading(ts.order, ts.triples, witness)
        assert len(witness) == size


def test_min_known_values():
    assert min_spreading_size(_fano()) == (3, frozenset({0, 1, 3}))
    assert min_spreading_size(pg2(3))[0] == 4
    assert min_spreading_size(pg2(4))[0] == 5
    assert min_spreading_size(ag3(2))[0] == 3
    assert min_spreading_size(ag3(3))[0] == 4
    assert min_spreading_size(subsystem_free_sts15(0))[0] == 3


def test_min_on_perturbed_pg_is_three():
    size, witness = min_spreading_size(perturbed_pg(4, 0))
    assert size == 3
    assert is_spreading_set(perturbed_pg(4, 0), witness)


def test_min_trivial_systems():
    line = build_system(3, ((0, 1, 2),), "steiner")
    size, witness = min_spreading_size(line)
    assert size == 1 or size == 2
    assert naive_is_spreading(3, line.triples, witness)


def test_min_walks_uncertified_orders_above_63():
    # no order cap: the work budget alone bounds the walk
    ts = random_sts(67, 0)
    size, witness = min_spreading_size(ts)
    assert (size, len(witness)) == (3, 3)
    assert is_spreading_set(ts, witness)


# -- enumeration -------------------------------------------------------------


def test_enumerate_fano_triples():
    enum = enumerate_minimal_spreading_sets(_fano(), max_size=3)
    assert not enum.truncated
    # every non-block triple of the Fano plane is a minimal spreading set
    assert len(enum.sets) == 35 - 7
    oracle = all_minimal_spreading(7, FANO, 3)
    assert set(enum.sets) == oracle


def test_enumerate_matches_oracle_on_ag9():
    ts = ag3(2)
    enum = enumerate_minimal_spreading_sets(ts, max_size=3)
    oracle = all_minimal_spreading(9, ts.triples, 3)
    assert set(enum.sets) == oracle
    assert len(enum.sets) == 72


@pytest.mark.parametrize("v,seed", RANDOM_SYSTEMS)
def test_enumerate_matches_oracle_on_random_systems(v, seed):
    ts = random_sts(v, seed)
    enum = enumerate_minimal_spreading_sets(ts)
    assert not enum.truncated
    assert len(set(enum.sets)) == len(enum.sets)
    assert set(enum.sets) == all_minimal_spreading(v, ts.triples, enum.max_size)


def test_enumerate_pg3_has_no_size3():
    enum = enumerate_minimal_spreading_sets(pg2(3), max_size=3)
    assert enum.sets == ()
    assert not enum.truncated


def test_enumerate_includes_larger_minimal_sets():
    enum = enumerate_minimal_spreading_sets(pg2(3), max_size=4)
    assert all(len(s) == 4 for s in enum.sets)
    oracle = all_minimal_spreading(15, pg2(3).triples, 4)
    assert set(enum.sets) == oracle


def test_enumerate_respects_budget_flag():
    enum = enumerate_minimal_spreading_sets(pg2(3), max_size=4, budget=100)
    assert enum.truncated
    assert enum.sets == ()  # the size-4 level cannot start within 100 subsets


def test_enumerate_jobs_equivalence():
    ts = subsystem_free_sts15(3)
    serial = enumerate_minimal_spreading_sets(ts, max_size=3, jobs=1)
    parallel = enumerate_minimal_spreading_sets(ts, max_size=3, jobs=4)
    assert serial.sets == parallel.sets
    assert serial.truncated == parallel.truncated


def test_enumerate_jobs_equivalence_past_the_order():
    # levels above the order are empty; splitting them must not divide by zero
    serial = enumerate_minimal_spreading_sets(pg2(3), 20, jobs=1)
    assert enumerate_minimal_spreading_sets(pg2(3), 20, jobs=2) == serial
    assert len(serial.sets) == 840


def test_enumerate_stops_at_the_order():
    # no subset has more than 15 points, so a huge max_size scans nothing more
    # and is still reported as given
    at_order = enumerate_minimal_spreading_sets(pg2(3), max_size=15)
    start = time.perf_counter()
    huge = enumerate_minimal_spreading_sets(pg2(3), max_size=10 ** 12)
    assert time.perf_counter() - start < 1.0
    assert huge.points == at_order.points
    assert (huge.max_size, huge.truncated) == (10 ** 12, at_order.truncated)
    assert at_order.max_size == 15


def _oracle_points(ts, max_size):
    found = all_minimal_spreading(ts.order, ts.triples, max_size)
    return tuple(tuple(sorted(s)) for s in sorted(found, key=lambda s: (len(s), sorted(s))))


@pytest.mark.parametrize("ts, budget, levels", [
    *(pytest.param(random_sts(v, seed), 2_000_000, None, id="sts%d-seed%d" % (v, seed))
      for v in (7, 9, 13, 15) for seed in (0, 1)),
    pytest.param(pg2(3), 100, 1, id="pg3-before-pairs"),
    pytest.param(random_sts(15, 0), 105 + 455, 3, id="sts15-after-triples"),
])
def test_enumerate_points_match_the_oracle_in_order(ts, budget, levels):
    enum = enumerate_minimal_spreading_sets(ts, budget=budget)
    assert enum.truncated == (levels is not None)
    assert enum.points == _oracle_points(ts, levels or enum.max_size)
    assert enum.sets == tuple(map(frozenset, enum.points))
    parallel = enumerate_minimal_spreading_sets(ts, budget=budget, jobs=2)
    assert parallel == enum
    for result in (enum, parallel):
        assert pickle.loads(pickle.dumps(result)) == enum


# name: (system builder, the highest level whose cumulative budget is
# tried).  A minimal spreading set of order n has at most floor(log2(n+1))
# points, since each of its points lies outside the closure of the others
# and adjoining an outside point to a closed set of c points closes to at
# least 2c+1 points.  So the oracle needs no level above that bound; on
# PG(4,2) perturbed the brute force stops at level 4, and so do the budgets
# tried there.
SPEC_SYSTEMS = {
    **{"sts%d-seed%d" % (v, s): (lambda v=v, s=s: random_sts(v, s), v)
       for v in (7, 9, 13, 15, 19) for s in (0, 1)},
    "pg3": (lambda: pg2(3), 15),
    "pp4": (lambda: perturbed_pg(4, 0), 4),
}


@pytest.mark.parametrize("name", SPEC_SYSTEMS)
def test_enumerate_meets_its_budget_spec(name):
    make, levels = SPEC_SYSTEMS[name]
    ts = make()
    n = ts.order
    sums = list(accumulate(comb(n, k) for k in range(2, levels + 1)))
    budgets = sorted({b - d for b in sums for d in (0, 1)})
    # the oracle's points, by size and then lexicographically
    oracle = _oracle_points(ts, min(levels, (n + 1).bit_length() - 1))
    for max_size in range(1, n + 1):
        for budget in budgets:
            enum = enumerate_minimal_spreading_sets(ts, max_size, budget)
            need = sum(comb(n, k) for k in range(2, min(max_size, n) + 1))
            assert enum.truncated == (need > budget), (max_size, budget)
            # the last level that fits: the sets of every level up to it
            fits = 1 + sum(1 for b in sums[:max_size - 1] if b <= budget)
            assert enum.points == tuple(s for s in oracle if len(s) <= fits), (
                max_size, budget)


def test_enumerate_stops_once_a_whole_level_spreads(monkeypatch):
    # every 4-set of this system spreads, so no set of 5 or more points is
    # minimal and the scan closes no level above 4; the budget still
    # counts the levels up to 9 and runs out at level 7
    closed = []
    close = enumeration._batch_closure

    def recording(triples, batch):
        # every candidate of a batch has the same size: the points it holds
        width = max(batch).bit_length()
        closed.append(sum(s.bit_count() for s in batch) // width)
        return close(triples, batch)

    monkeypatch.setattr(enumeration, "_batch_closure", recording)
    enum = enumerate_minimal_spreading_sets(random_sts(31, 1), max_size=9)
    assert max(closed) == 4
    assert len(enum.points) == 4340
    assert {len(s) for s in enum.points} == {3}
    assert enum.truncated


def test_enumerate_closes_no_pair_above_order_three(monkeypatch):
    # above order 3 a pair closes to its block, so the pair level is only
    # counted against the budget; at order 3 the pair spreads
    sizes = []
    close = enumeration._batch_closure

    def recording(triples, batch):
        width = max(batch).bit_length()
        sizes.append(sum(s.bit_count() for s in batch) // width)
        return close(triples, batch)

    monkeypatch.setattr(enumeration, "_batch_closure", recording)
    for ts in (pg2(2), ag3(2), random_sts(13, 0), pg2(3)):
        sizes.clear()
        enum = enumerate_minimal_spreading_sets(ts, max_size=3)
        assert enum.points == _oracle_points(ts, 3)
        assert 2 not in sizes and 3 in sizes
        assert enumerate_minimal_spreading_sets(ts, 2, budget=comb(ts.order, 2) - 1).truncated
    sizes.clear()
    line = build_system(3, [(0, 1, 2)], "steiner")
    assert enumerate_minimal_spreading_sets(line, max_size=2).points == ((0, 1), (0, 2), (1, 2))
    assert set(sizes) == {2}


def test_enumerate_order_one_lists_its_point():
    # only at order 1 does a single point spread; every other order starts
    # at the pair level, with the budget it always had
    ts = build_system(1, [], "steiner")
    assert min_spreading_size(ts) == (1, frozenset({0}))
    for max_size in (None, 1, 3):
        enum = enumerate_minimal_spreading_sets(ts, max_size)
        assert enum.points == _oracle_points(ts, enum.max_size) == ((0,),)
        assert not enum.truncated
    assert enumerate_minimal_spreading_sets(ts).max_size == 1
    line = build_system(3, [(0, 1, 2)], "steiner")
    assert enumerate_minimal_spreading_sets(line).points == ((0, 1), (0, 2), (1, 2))
    assert enumerate_minimal_spreading_sets(line, budget=3).points == ((0, 1), (0, 2), (1, 2))
    assert enumerate_minimal_spreading_sets(line, budget=2).truncated


def test_enumerate_takes_points_above_255():
    # no level of an STS(259) is scanned: its pairs are passed over, since no
    # pair spreads, and its 3-sets exceed the budget
    enum = enumerate_minimal_spreading_sets(random_sts(259, 0), max_size=3)
    assert enum == ((), 3, True)


def test_enumerate_lists_only_minimal_sets_on_perturbed_pg4():
    # some 4-sets here hold a spreading triple below their top point and no
    # spreading triple through it: the previous level's bits must drop them
    ts = perturbed_pg(4, 0)
    enum = enumerate_minimal_spreading_sets(ts, max_size=4)
    assert {len(s) for s in enum.points} == {3, 4}
    for s in enum.points:
        assert is_spreading_set(ts, s)
        assert not any(is_spreading_set(ts, sub) for sub in combinations(s, len(s) - 1))


def test_enumerate_refuses_the_first_level_of_pg2_10_unread(monkeypatch):
    # C(2047, 2) pairs exceed the default budget, which is the scan's only
    # limit at any order: it lists nothing, and never reads the blocks
    ts = pg2(10)

    def refuse(self):
        raise AssertionError("the blocks were read")

    monkeypatch.setattr(TripleSystem, "triples", property(refuse))
    assert enumerate_minimal_spreading_sets(ts) == ((), 11, True)


def test_enumerate_keeps_no_spreading_sets_for_a_refused_level(monkeypatch):
    # the C(127, 4) 4-sets of r127 exceed the budget, so its spreading
    # 3-sets, which only a scan of the 4-sets would look up, are not kept
    split = []
    real = enumeration._split

    def recording(sets, k):
        split.append(k)
        return real(sets, k)

    monkeypatch.setattr(enumeration, "_split", recording)
    enum = enumerate_minimal_spreading_sets(random_sts(127, 1))
    assert (len(enum.points), enum.truncated) == (330708, True)
    assert split == []


@pytest.mark.parametrize("make, count, size, max_size", [
    pytest.param(lambda: random_sts(63, 1), 39060, 3, 6, id="r63"),
    pytest.param(lambda: perturbed_pg(5, 0), 416640, 4, 6, id="pp5"),
    pytest.param(lambda: random_sts(127, 1), 330708, 3, 7, id="r127"),
])
def test_enumerate_above_order_31_meets_independent_counts(make, count, size, max_size):
    # the counts are those of a separate search for the minimal transversals
    # of the complements of the maximal closed sets (ROADMAP direction 9);
    # the budget stops the scan below max_size, so the result is truncated
    ts = make()
    enum = enumerate_minimal_spreading_sets(ts)
    assert (len(enum.points), enum.max_size, enum.truncated) == (count, max_size, True)
    assert {len(s) for s in enum.points} == {size}
    triples = ts.triples
    rng = random.Random(ts.order)
    for s in [enum.points[0], enum.points[-1], *rng.sample(enum.points, 8)]:
        assert naive_is_spreading(ts.order, triples, s)
        assert not any(naive_is_spreading(ts.order, triples, sub)
                       for sub in combinations(s, size - 1))


# -- projectivity and dimension ----------------------------------------------


def test_check_projective():
    assert check_projective(pg2(2))
    assert check_projective(pg2(3))
    assert check_projective(pg2(4))
    assert not check_projective(ag3(2))
    assert not check_projective(subsystem_free_sts15(0))
    assert not check_projective(perturbed_pg(4, 0))
    assert not check_projective(random_sts(13, 0))


@pytest.mark.parametrize("v,seed", RANDOM_SYSTEMS)
def test_check_projective_matches_naive_closures(v, seed):
    ts = random_sts(v, seed)
    blocks = set(ts.triples)
    sizes = {
        len(naive_closure(ts.triples, t))
        for t in combinations(range(v), 3)
        if t not in blocks
    }
    assert check_projective(ts) == ((v + 1) & v == 0 and sizes == {7})


def test_min_equals_log_iff_projective():
    for ts in (pg2(2), pg2(3), ag3(2), ag3(3), subsystem_free_sts15(0),
               perturbed_pg(4, 0), random_sts(13, 0), random_sts(19, 1)):
        n = ts.order
        size, _ = min_spreading_size(ts)
        attains = (n + 1) & n == 0 and size == (n + 1).bit_length() - 1
        assert attains == check_projective(ts)


@pytest.mark.parametrize("make,size", [
    (lambda: pg2(4), 5),
    (lambda: pg2(5), 6),
    (lambda: perturbed_pg(4, 0), 3),
    (lambda: perturbed_pg(5, 0), 4),
    (lambda: random_sts(31, 1), 3),
    (lambda: random_sts(63, 1), 3),
], ids=["pg2(4)", "pg2(5)", "perturbed_pg(4,0)", "perturbed_pg(5,0)",
        "random_sts(31,1)", "random_sts(63,1)"])
def test_min_reaches_log_only_on_projective_spaces_at_orders_31_and_63(make, size):
    ts = make()
    got, witness = min_spreading_size(ts)
    assert (got, len(witness)) == (size, size)
    assert is_spreading_set(ts, witness)
    log = (ts.order + 1).bit_length() - 1
    assert (got == log) == check_projective(ts)
    assert got <= log


def test_dimension_theorem_on_projective_spaces():
    for d in (2, 3, 4):
        report = verify_dimension_theorem(pg2(d), trials=100, seed=0)
        assert report.trials == 100
        assert report.counterexamples == ()
        assert report.ok


def test_dimension_theorem_requires_projective_tag():
    with pytest.raises(NotProjectiveTagError):
        verify_dimension_theorem(subsystem_free_sts15(0), trials=5, seed=0)
    with pytest.raises(NotProjectiveTagError):
        verify_dimension_theorem(perturbed_pg(4, 0), trials=5, seed=0)


def test_dimension_theorem_accepts_a_relabelled_projective_space():
    # no pg2 tag and a permuted point order: the coordinates still certify it
    ts = pg2(4)
    perm = list(range(ts.order))
    random.Random(3).shuffle(perm)
    relabelled = build_system(ts.order, [[perm[p] for p in t] for t in ts.triples], "steiner")
    assert relabelled.tag.variant == "plain"
    report = verify_dimension_theorem(relabelled, trials=100, seed=0)
    assert report.trials == 100 and report.ok


def test_dimension_theorem_reproducible():
    a = verify_dimension_theorem(pg2(3), trials=50, seed=9)
    b = verify_dimension_theorem(pg2(3), trials=50, seed=9)
    assert a == b
