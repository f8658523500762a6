"""The breadth-first lattice searches against scalar walks built on
naive_closure: min_spreading_size and enumerate_closed_sets must return
the same first hit, the same sets and the same truncations.  The walker
they share is checked against its contract, and under other batchings, and
its decoder against the string transpose."""

import importlib
import random
import tracemalloc

import pytest

from stspread import (
    build_system,
    enumerate_closed_sets,
    is_spreading_system,
    min_spreading_size,
    perturbed_pg,
    pg2,
    random_sts,
    section4_partial,
    subsystem_free_sts15,
)
from stspread.closure import (
    _closure_mask,
    _columns,
    _iter_bits,
    _pair_closures,
    _to_set,
    _walk,
    _walk_closed_sets,
)
from stspread.spreading import _walk_min_spreading

from oracles import bfs_closed_sets, bfs_min_spreading, string_columns

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


@pytest.mark.parametrize("make", [
    pytest.param(lambda: perturbed_pg(4, 0), id="pp4"),
    pytest.param(lambda: _half(15, 1), id="half of random_sts(15,1)"),
])
def test_the_walk_yields_each_closure_once_in_order(make):
    ts = make()
    full = (1 << ts.order) - 1
    walked = [mask for _, _, mask in _pair_closures(ts)]
    items = list(_walk(ts, list(walked)))
    masks = [mask for _, _, mask in items]
    assert len(set(masks)) == len(masks)
    assert masks.count(full) <= 1
    for e, p, mask in items:
        # e indexes the seeds, then the proper closures in yield order
        assert not walked[e] >> p & 1
        assert mask == _closure_mask(ts._third, [*_iter_bits(walked[e]), p])[0]
        if mask != full:
            walked.append(mask)
    proper = [(e, p, mask) for e, p, mask in items if mask != full]
    assert [(e, p) for e, p, _ in proper] == sorted((e, p) for e, p, _ in proper)
    assert [_to_set(mask) for _, _, mask in proper] == bfs_closed_sets(ts.order, ts.triples)


def _walk_answers():
    """What the three walks give on a fixed corpus, at the current batching."""
    section4 = section4_partial(4).system
    half = _half(13, 2)
    count = len(_walk_closed_sets(half, 10 ** 6).sets)
    return [
        _walk_min_spreading(perturbed_pg(4, 0)),
        _walk_min_spreading(random_sts(31, 1)),
        *(_walk_closed_sets(section4, m) for m in (1, 200, 1000)),
        *(_walk_closed_sets(half, m) for m in range(1, count + 2)),
        is_spreading_system(subsystem_free_sts15(0)),
        is_spreading_system(pg2(3)),
    ]


@pytest.fixture(scope="module")
def default_walk_answers():
    return _walk_answers()


@pytest.mark.parametrize("cap", [1, 64], ids=["chunk 1", "chunk 64"])
def test_the_walks_do_not_depend_on_the_batching(cap, default_walk_answers, monkeypatch):
    # the package's name closure is the function, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("stspread.closure"), "_CHUNK_CAP", cap)
    assert _walk_answers() == default_walk_answers


@pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 13, 16, 31, 63, 127])
def test_columns_match_the_string_transpose(n):
    # rows carry bits above the width, as _walk's do when the last live
    # candidate sits below the chunk's top slot: _columns must drop them
    rng = random.Random(n)
    for width in (1, 5, 8, 63, 64, 100, 4096, 5000, 9000):
        batch = [rng.getrandbits(width + rng.randrange(1, 70)) for _ in range(n)]
        batch[rng.randrange(n)] = -1  # every bit set
        y, step = _columns(batch, width)
        masks = [int.from_bytes(y[j::step], "little") for j in range(width)]
        assert masks == string_columns(batch, width), width


@pytest.mark.parametrize("walk", [
    pytest.param(min_spreading_size, id="min"),
    pytest.param(lambda ts: _walk_closed_sets(ts, 10 ** 5), id="closed sets"),
])
def test_the_pp5_walks_stay_small_in_memory(walk):
    # each chunk is decoded one read candidate at a time from its transposed
    # bytes; a string per chunk and a list of every mask peaked above 2 MB
    ts = perturbed_pg(5, 0)
    tracemalloc.start()
    try:
        walk(ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6, peak
