"""The breadth-first lattice searches against scalar walks built on
naive_closure: min_spreading_size and enumerate_closed_sets must return
the same first hit, the same sets and the same truncations."""

import random

import pytest

from stspread import (
    build_system,
    enumerate_closed_sets,
    min_spreading_size,
    perturbed_pg,
    pg2,
    random_sts,
    section4_partial,
)

from oracles import bfs_closed_sets, bfs_min_spreading

SYSTEMS = [
    pytest.param(lambda v=v, s=s: random_sts(v, s), id="random_sts(%d,%d)" % (v, s))
    for v in (7, 9, 13, 15, 19, 21, 25, 27, 31)
    for s in (0, 1, 2)
] + [pytest.param(lambda: perturbed_pg(4, 0), id="perturbed_pg(4,0)")]


def _canonical(sets):
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


@pytest.mark.parametrize("make", SYSTEMS)
def test_lattice_searches_match_scalar_walks(make):
    ts = make()
    assert min_spreading_size(ts) == bfs_min_spreading(ts.order, ts.triples)
    enum = enumerate_closed_sets(ts)
    assert enum.sets == _canonical(bfs_closed_sets(ts.order, ts.triples))
    assert not enum.truncated


def test_closed_set_truncation_keeps_the_first_sets_found():
    # pg2(4) has 186 closed sets; its 155 triple seeds are the Fano planes,
    # so every count from 155 on truncates inside the frontier walk
    ts = pg2(4)
    found = bfs_closed_sets(ts.order, ts.triples)
    assert len(found) == 186
    _check_truncations(ts, found, range(150, 190))


def _check_truncations(ts, found, max_counts):
    for max_count in max_counts:
        enum = enumerate_closed_sets(ts, max_count=max_count)
        assert enum.sets == _canonical(found[:max_count]), max_count
        assert enum.truncated == (max_count < len(found)), max_count


def _half(v, seed):
    """A partial system: a random half of the blocks of random_sts(v, seed)."""
    blocks = random_sts(v, seed).triples
    return build_system(v, random.Random(seed).sample(blocks, len(blocks) // 2), "partial")


@pytest.mark.parametrize("v, seed", [(v, s) for v in (7, 9, 13, 15) for s in (0, 1, 2)])
def test_closed_sets_of_partial_systems_at_every_count(v, seed):
    # uncovered pairs are closed sets of their own: the walk must extend
    # them as well as the blocks, or it misses the sets they generate
    ts = _half(v, seed)
    found = bfs_closed_sets(ts.order, ts.triples)
    _check_truncations(ts, found, range(1, len(found) + 2))


def test_closed_set_truncations_of_the_section4_partial_system():
    # its 10,004 sets take the scalar oracle about 9 s, so only the first
    # 1,000 are checked: every count up to 200, then every 53rd
    ts = section4_partial(4).system
    found = bfs_closed_sets(ts.order, ts.triples, limit=1001)
    assert len(found) == 1001
    _check_truncations(ts, found, [*range(1, 201), *range(201, 1001, 53), 1000])
