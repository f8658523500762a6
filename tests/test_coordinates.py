"""GF(2) coordinates of binary projective spaces, and the answers taken
from them: check_projective against the Pasch-count oracle, the labels
against pg2(d), and the min_spreading_size and enumerate_closed_sets
shortcuts against the walks they replace on certified inputs.  Every
answer is also checked to survive a random relabelling of the points."""

import importlib
import random
from collections import Counter

import pytest

from stspread import (
    ag3,
    build_system,
    check_projective,
    enumerate_closed_sets,
    enumerate_minimal_spreading_sets,
    greedy_spreading_set,
    is_saturating_set,
    is_spreading_set,
    is_spreading_system,
    min_saturating_size,
    min_spreading_size,
    perturbed_pg,
    pg2,
    random_sts,
    subsystem_free_sts15,
)
from stspread.closure import DEFAULT_CLOSED_SET_BUDGET, _coordinates, _walk_closed_sets
from stspread.spreading import _walk_min_spreading

from oracles import bfs_closed_sets, gaussian_binomial, pasch_count


def _relabelled(ts, seed):
    """ts with its points permuted at random, as an untagged system."""
    perm = list(range(ts.order))
    random.Random(seed).shuffle(perm)
    return build_system(ts.order, [[perm[p] for p in t] for t in ts.triples], "steiner")


def _pasch_switched(ts):
    """ts with one Pasch configuration {x,a,b}, {x,c,d}, {y,a,c}, {y,b,d}
    switched to {x,a,c}, {x,b,d}, {y,a,b}, {y,c,d}: the first one found
    from two blocks through point 0."""
    through = [t for t in ts.triples if 0 in t]
    for i, first in enumerate(through):
        a, b = (p for p in first if p)
        for second in through[i + 1:]:
            c, d = (p for p in second if p)
            y = ts.third_point(a, c)
            if y is not None and y == ts.third_point(b, d):
                old = {first, second, tuple(sorted((y, a, c))), tuple(sorted((y, b, d)))}
                new = [(0, a, c), (0, b, d), (y, a, b), (y, c, d)]
                blocks = [t for t in ts.triples if t not in old] + new
                return build_system(ts.order, blocks, "steiner")
    raise AssertionError("no Pasch configuration through point 0")


def _max_pasch(v):
    return v * (v - 1) * (v - 3) // 24


CORPUS = (
    [pytest.param(lambda d=d: pg2(d), id="pg2(%d)" % d) for d in range(1, 6)]
    + [pytest.param(lambda d=d, s=s: _relabelled(pg2(d), s), id="relabelled pg2(%d) %d" % (d, s))
       for d in (3, 4, 5) for s in range(3)]
    + [
        pytest.param(lambda: perturbed_pg(4, 0), id="pp4"),
        pytest.param(lambda: perturbed_pg(5, 0), id="pp5"),
        pytest.param(lambda: ag3(2), id="ag3(2)"),
        pytest.param(lambda: ag3(3), id="ag3(3)"),
        pytest.param(lambda: subsystem_free_sts15(0), id="subsystem-free STS(15)"),
        pytest.param(lambda: random_sts(31, 1), id="r31"),
        pytest.param(lambda: random_sts(63, 1), id="r63"),
        pytest.param(lambda: _pasch_switched(pg2(4)), id="switched pg2(4)"),
        pytest.param(lambda: _pasch_switched(pg2(5)), id="switched pg2(5)"),
    ]
)


@pytest.mark.parametrize("make", CORPUS)
def test_projective_exactly_when_the_pasch_count_is_maximal(make):
    ts = make()
    assert check_projective(ts) == (pasch_count(ts.order, ts.triples) == _max_pasch(ts.order))


@pytest.mark.parametrize("make,count", [
    (lambda: pg2(2), 7),
    (lambda: pg2(3), 105),
    (lambda: pg2(4), 1085),
    (lambda: pg2(5), 9765),
    (lambda: perturbed_pg(4, 0), 491),
    (lambda: perturbed_pg(5, 0), 8179),
    (lambda: ag3(3), 0),
    (lambda: subsystem_free_sts15(0), 7),
    (lambda: random_sts(31, 1), 40),
    (lambda: random_sts(63, 1), 186),
], ids=["pg2(2)", "pg2(3)", "pg2(4)", "pg2(5)", "pp4", "pp5", "ag3(3)",
        "subsystem-free STS(15)", "r31", "r63"])
def test_pasch_counts(make, count):
    ts = make()
    assert pasch_count(ts.order, ts.triples) == count


@pytest.mark.parametrize("d", [4, 5])
def test_a_pasch_switch_breaks_projectivity(d):
    ts = _pasch_switched(pg2(d))
    assert ts.is_steiner() and ts.triples != pg2(d).triples
    assert not check_projective(ts)
    assert pasch_count(ts.order, ts.triples) < _max_pasch(ts.order)


@pytest.mark.parametrize("d", range(1, 8))
def test_labels_are_an_isomorphism_onto_pg2(d):
    target = pg2(d).triples
    for ts in [pg2(d)] + [_relabelled(pg2(d), s) for s in range(2)]:
        label = _coordinates(ts)
        assert sorted(label) == list(range(1, ts.order + 1))
        mapped = sorted(tuple(sorted(label[p] - 1 for p in t)) for t in ts.triples)
        assert tuple(mapped) == target


def test_projectivity_at_order_255():
    assert check_projective(pg2(7))
    assert not check_projective(perturbed_pg(7, 0))


def test_no_labels_for_partial_systems():
    assert _coordinates(build_system(7, [(0, 1, 2)])) is None


@pytest.mark.parametrize("make", [
    pytest.param(lambda d=d: pg2(d), id="pg2(%d)" % d) for d in range(1, 6)
] + [
    pytest.param(lambda d=d: _relabelled(pg2(d), d), id="relabelled pg2(%d)" % d)
    for d in (3, 4, 5)
])
def test_min_spreading_shortcut_equals_the_walk(make):
    ts = make()
    size, witness = min_spreading_size(ts)
    assert (size, witness) == _walk_min_spreading(ts)
    assert size == ts.order.bit_length()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: pg2(3), id="pg2(3)"),
    pytest.param(lambda: pg2(4), id="pg2(4)"),
    pytest.param(lambda: _relabelled(pg2(4), 7), id="relabelled pg2(4)"),
])
def test_closed_set_shortcut_equals_the_walk(make):
    ts = make()
    n = ts.order.bit_length()
    count = sum(gaussian_binomial(n, k) for k in range(3, n))
    enum = enumerate_closed_sets(ts)
    assert enum == _walk_closed_sets(ts, DEFAULT_CLOSED_SET_BUDGET)
    assert len(enum.sets) == len(set(enum.sets)) == count
    assert not enum.truncated
    assert enumerate_closed_sets(ts, max_count=count) == enum
    below = enumerate_closed_sets(ts, max_count=count - 1)
    assert below == _walk_closed_sets(ts, count - 1)
    assert below.truncated and len(below.sets) == count - 1


def test_certified_inputs_take_no_walk(monkeypatch):
    def refuse(ts, seeds, budget=None):
        raise AssertionError("lattice walk on a certified input")

    # the package's name closure is the function, so fetch the module itself;
    # the spreading module holds its own reference to the walker
    for name in ("stspread.closure", "stspread.spreading"):
        monkeypatch.setattr(importlib.import_module(name), "_walk", refuse)
    ts = _relabelled(pg2(5), 1)
    assert check_projective(ts)
    assert min_spreading_size(ts)[0] == 6
    assert len(enumerate_closed_sets(ts).sets) == 2109


@pytest.mark.parametrize("make", [
    pytest.param(lambda: pg2(6), id="pg2(6)"),
    pytest.param(lambda: _relabelled(pg2(6), 2), id="relabelled pg2(6)"),
])
def test_min_spreading_answers_certified_orders_above_the_walk_cap(make, monkeypatch):
    # a certified input takes no walk, at any order
    def refuse(ts, seeds, budget=None):
        raise AssertionError("lattice walk on a certified input")

    monkeypatch.setattr(importlib.import_module("stspread.spreading"), "_walk", refuse)
    ts = make()
    size, witness = min_spreading_size(ts)
    assert size == 7
    assert witness == greedy_spreading_set(ts).witness
    assert is_spreading_set(ts, witness)


def _answers(ts, truncated=False):
    """What the searches say about ts that a relabelling must keep: the
    minimum spreading size, the counts by size of the minimal spreading sets
    and of the closed sets, check_projective, is_spreading_system and, up to
    order 27, the minimum saturating size.  The colex-first witnesses move
    with the labels, so they are checked for validity only.  truncated is
    what the listing of minimal spreading sets must say, which depends on
    the order only."""
    size, witness = min_spreading_size(ts)
    assert len(witness) == size and is_spreading_set(ts, witness)
    spreading, closed = enumerate_minimal_spreading_sets(ts), enumerate_closed_sets(ts)
    assert spreading.truncated is truncated and not closed.truncated
    answers = [
        size,
        Counter(map(len, spreading.points)),
        Counter(map(len, closed.points)),
        check_projective(ts),
        is_spreading_system(ts),
    ]
    if ts.order <= 27:
        size, witness = min_saturating_size(ts)
        assert len(witness) == size and is_saturating_set(ts, witness)
        answers.append(size)
    return answers


@pytest.mark.parametrize("make", [
    pytest.param(lambda: pg2(4), id="pg2(4)"),
    pytest.param(lambda: perturbed_pg(4, 0), id="perturbed_pg(4,0)"),
    pytest.param(lambda: random_sts(31, 1), id="random_sts(31,1)"),
    pytest.param(lambda: random_sts(19, 1), id="random_sts(19,1)"),
    pytest.param(lambda: ag3(3), id="ag3(3)"),
    pytest.param(lambda: _pasch_switched(pg2(4)), id="switched pg2(4)"),
])
def test_answers_do_not_depend_on_the_labelling(make):
    ts = make()
    want = _answers(ts)
    for seed in range(3):
        assert _answers(_relabelled(ts, seed)) == want, seed


def test_answers_above_order_31_do_not_depend_on_the_labelling():
    # the budget refuses the 5-sets of r63, so its listing is truncated
    ts = random_sts(63, 1)
    want = _answers(ts, truncated=True)
    assert want[1] == Counter({3: 39060})
    for seed in range(3):
        assert _answers(_relabelled(ts, seed), truncated=True) == want, seed


def test_the_pasch_switch_of_pg2_4_is_pinned():
    # the Pasch configuration abc, ade, bdf, cef on points a..f = 0..5
    # becomes abd, ace, bcf, def
    ts, pg = _pasch_switched(pg2(4)), pg2(4)
    assert set(pg.triples) - set(ts.triples) == {(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)}
    assert set(ts.triples) - set(pg.triples) == {(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)}
    assert _answers(ts) == [4, Counter({4: 13440}), Counter({7: 131, 15: 15}), False, False]
    closed = set(map(frozenset, enumerate_closed_sets(ts).points))
    assert closed == set(bfs_closed_sets(ts.order, ts.triples)) and len(closed) == 146
