"""Closure fixpoint, traces, spreading/saturating predicates, closed sets."""

import random
from itertools import combinations

import pytest

from stspread import (
    OutOfRangeError,
    TrivialOrderError,
    ag3,
    build_system,
    closure,
    closure_points,
    enumerate_closed_sets,
    is_saturating_set,
    is_spreading_set,
    is_spreading_system,
    neighbors,
    perturbed_pg,
    pg2,
    random_sts,
    section4_partial,
    subsystem_free_sts15,
)
from stspread.closure import _closure_mask, _grow

from oracles import (
    f2_span_indices,
    f3_affine_span,
    gaussian_binomial,
    naive_closure,
    scalar_closure,
    scalar_grow,
)

FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
RANDOM_SYSTEMS = [(v, seed) for v in (7, 9, 13, 15, 19) for seed in (0, 1, 2)]


def test_neighbors_fano():
    ts = build_system(7, FANO, "steiner")
    assert neighbors(ts, {0, 1}) == {2}
    assert neighbors(ts, {0, 1, 2}) == set()
    assert neighbors(ts, {0, 1, 3}) == {2, 4, 5}


def test_closure_pair_is_block():
    ts = build_system(7, FANO, "steiner")
    assert closure_points(ts, [0, 1]) == {0, 1, 2}


def test_closure_non_block_triple_spreads_fano():
    ts = build_system(7, FANO, "steiner")
    assert closure_points(ts, [0, 1, 3]) == set(range(7))


def test_closure_matches_linear_span_in_pg():
    ts = pg2(4)
    rng = random.Random(11)
    for _ in range(300):
        size = rng.randint(0, 5)
        seeds = rng.sample(range(31), size)
        assert closure_points(ts, seeds) == set(f2_span_indices(seeds, 4))


def test_closure_matches_affine_span_in_ag():
    ts = ag3(3)
    rng = random.Random(12)
    for _ in range(300):
        size = rng.randint(0, 4)
        seeds = rng.sample(range(27), size)
        assert closure_points(ts, seeds) == set(f3_affine_span(seeds, 3))


def test_closure_matches_naive_fixpoint():
    ts = subsystem_free_sts15(0)
    rng = random.Random(13)
    for _ in range(200):
        seeds = rng.sample(range(15), rng.randint(0, 4))
        assert closure_points(ts, seeds) == naive_closure(ts.triples, seeds)


def test_closure_rejects_out_of_range():
    ts = build_system(7, FANO, "steiner")
    with pytest.raises(OutOfRangeError):
        closure_points(ts, [0, 9])


def test_trace_steps_and_report():
    ts = build_system(7, FANO, "steiner")
    trace = closure(ts, [0, 1, 3])
    assert trace.points == frozenset(range(7))
    assert trace.steps[0] == frozenset({0, 1, 3})
    # each step grows strictly until the fixpoint
    for earlier, later in zip(trace.steps, trace.steps[1:]):
        assert earlier < later
    report = trace.report()
    assert report.startswith("step 0: start")
    assert "closure:" in report
    # every firing block mentioned in the trace is a real block
    for fired in trace.firing_blocks[1:]:
        for block in fired:
            assert block in ts.triples


def test_spreading_and_saturating_predicates():
    ts = build_system(7, FANO, "steiner")
    assert is_spreading_set(ts, (0, 1, 3))
    assert not is_spreading_set(ts, (0, 1, 2))
    # {0,1,3} spreads in two steps but one step misses point 6
    assert not is_saturating_set(ts, (0, 1, 3))
    assert is_saturating_set(ts, (0, 1, 2, 3))
    # a basis of pg2(3) spreads but needs more than one step
    space = pg2(3)
    assert is_spreading_set(space, (0, 1, 3, 7))
    assert not is_saturating_set(space, (0, 1, 3, 7))


def test_spreading_system_detection():
    assert is_spreading_system(subsystem_free_sts15(0))
    assert not is_spreading_system(pg2(3))
    assert is_spreading_system(build_system(7, FANO, "steiner"))
    with pytest.raises(TrivialOrderError):
        is_spreading_system(build_system(3, ((0, 1, 2),), "steiner"))


@pytest.mark.parametrize("v,seed", RANDOM_SYSTEMS)
def test_spreading_system_matches_naive_closures(v, seed):
    ts = random_sts(v, seed)
    blocks = set(ts.triples)
    want = all(
        naive_closure(ts.triples, t) == frozenset(range(v))
        for t in combinations(range(v), 3)
        if t not in blocks
    )
    assert is_spreading_system(ts) == want


def test_closed_sets_of_pg3_are_the_fano_subsystems():
    ts = pg2(3)
    enum = enumerate_closed_sets(ts)
    assert not enum.truncated
    # proper nontrivial closed sets of PG(3,2) are its 15 planes
    assert len(enum.sets) == gaussian_binomial(4, 3)
    expected = set()
    for h in range(1, 16):
        expected.add(frozenset(
            lab - 1 for lab in range(1, 16) if bin(lab & h).count("1") % 2 == 0 and lab
        ))
    assert set(enum.sets) == expected
    for s in enum.sets:
        assert len(s) == 7


def test_closed_sets_none_in_subsystem_free_sts15():
    enum = enumerate_closed_sets(subsystem_free_sts15(0))
    assert enum.sets == ()
    assert not enum.truncated


def test_closed_sets_ag3_planes_and_lines_are_excluded_blocks_only():
    ts = ag3(2)
    enum = enumerate_closed_sets(ts)
    # AG(2,3) has no proper closed set larger than a block
    assert enum.sets == ()


def test_closed_sets_of_pg4_truncation_flag():
    enum = enumerate_closed_sets(pg2(4), max_count=3)
    assert enum.truncated
    assert len(enum.sets) == 3
    # the closures of the lexicographically first non-block triples
    assert enum.sets == (
        frozenset(range(7)),
        frozenset({0, 1, 2, 7, 8, 9, 10}),
        frozenset({0, 1, 2, 11, 12, 13, 14}),
    )


def test_closed_sets_of_pg4_full():
    enum = enumerate_closed_sets(pg2(4))
    # Fano planes plus 15-point hyperplanes of PG(4,2); lines are blocks and
    # are excluded, singletons/pairs are below the size floor
    assert len(enum.sets) == gaussian_binomial(5, 3) + gaussian_binomial(5, 4)
    sizes = sorted({len(s) for s in enum.sets})
    assert sizes == [7, 15]


@pytest.mark.parametrize("make, cut", [
    (lambda: pg2(4), 0),  # certified by its coordinates: listed from the labels
    (lambda: perturbed_pg(4, 0), 0),  # the walk
    (lambda: perturbed_pg(4, 0), 1),  # the walk, stopped one set short
], ids=["pg2(4)", "perturbed_pg(4,0)", "perturbed_pg(4,0)-truncated"])
def test_closed_sets_are_ascending_point_tuples_in_size_then_lex_order(make, cut):
    ts = make()
    full = len(enumerate_closed_sets(ts).points)
    enum = enumerate_closed_sets(ts, max_count=full - cut)
    assert enum.truncated == bool(cut)
    assert len(enum.points) == full - cut
    assert all(type(p) is tuple and list(p) == sorted(set(p)) for p in enum.points)
    keys = [(len(p), p) for p in enum.points]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert enum.sets == tuple(map(frozenset, enum.points))
    assert all(closure_points(ts, p) == frozenset(p) for p in enum.points)


# -- _grow against the scalar pair loop: same mask, same discovery order ------


GROWTH_SYSTEMS = [("r%d" % v, v) for v in range(7, 64) if v % 6 in (1, 3)] + [("s4", 4)]


@pytest.mark.parametrize("name, v", GROWTH_SYSTEMS, ids=[n for n, _ in GROWTH_SYSTEMS])
def test_closure_growth_matches_scalar_pair_loop(name, v):
    ts = section4_partial(v).system if name == "s4" else random_sts(v, v % 4)
    third, n = ts._third, ts.order
    rng = random.Random(n)
    for size in (1, 2, 3, 4, n // 3, n):
        seeds = rng.sample(range(n), size) + rng.sample(range(n), 1)
        assert _closure_mask(third, seeds) == scalar_closure(ts, seeds), seeds
    # one point at a time, as greedy_spreading_set adjoins them
    mask, members = _closure_mask(third, rng.sample(range(n), 2))
    for p in rng.sample(range(n), n):
        if not (mask >> p) & 1:
            expected = scalar_grow(ts, mask | 1 << p, members + [p], len(members))
            members.append(p)
            assert _grow(third, mask | 1 << p, members, len(members) - 1) == expected
            mask = expected[0]
