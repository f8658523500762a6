"""The breadth-first lattice searches against scalar walks built on
naive_closure: min_spreading_size and enumerate_closed_sets must return
the same first hit, the same sets and the same truncations."""

import pytest

from stspread import (
    enumerate_closed_sets,
    min_spreading_size,
    perturbed_pg,
    pg2,
    random_sts,
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
    for max_count in range(150, 190):
        enum = enumerate_closed_sets(ts, max_count=max_count)
        assert enum.sets == _canonical(found[:max_count]), max_count
        assert enum.truncated == (max_count < len(found)), max_count
