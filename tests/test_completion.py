"""Hill-climbing completion, random systems, and the two-sizes pipeline."""

import hashlib
import random
from itertools import combinations

import pytest

from stspread import (
    BudgetExhaustedError,
    InadmissibleOrderError,
    SystemKind,
    TrivialOrderError,
    build_system,
    complete_partial,
    induced_subsystem,
    is_spreading_set,
    next_admissible,
    pg2,
    random_sts,
    section4_partial,
    two_minimal_sizes_sts,
)
from stspread.completion import _climb
from stspread.system import _blocks_of
from stspread.writer import serialize

from oracles import naive_is_spreading, scalar_climb

FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))


def test_a_steiner_source_is_refused_below_twice_its_order(monkeypatch):
    # a proper subsystem of an STS(v) has at most (v-1)/2 points, so no
    # STS(9) or STS(13) holds the Fano plane, and no restart is tried
    from stspread import completion

    fano = build_system(7, FANO, "steiner")
    with monkeypatch.context() as m:
        m.setattr(completion, "_climb", None)
        for target in (9, 13):
            with pytest.raises(InadmissibleOrderError, match=r"at most \(v-1\)/2 points"):
                complete_partial(fano, target)
    assert complete_partial(fano, 7).success  # not a proper subsystem
    report = complete_partial(fano, 15, seed=0)
    assert report.success and all(ok for _, ok in report.checks)
    # a partial source is climbed as before; this one has no completion of
    # order 9, since its blocks meet pairwise and AG(2,3), the only STS(9),
    # holds at most four such blocks, one per parallel class
    with pytest.raises(BudgetExhaustedError):
        complete_partial(build_system(7, FANO[:6]), 9, restarts=1, moves_per_restart=100)


def test_next_admissible():
    assert next_admissible(7) == 7
    assert next_admissible(8) == 9
    assert next_admissible(10) == 13
    assert next_admissible(62) == 63
    assert next_admissible(64) == 67


def test_random_sts_valid_and_reproducible():
    for order in (7, 9, 13, 15, 19):
        ts = random_sts(order, 4)
        assert ts.order == order
        assert ts.is_steiner()
        assert len(ts.triples) == order * (order - 1) // 6
    assert random_sts(13, 8) == random_sts(13, 8)
    assert random_sts(13, 8) != random_sts(13, 9)


def test_random_sts_rejects_bad_orders():
    with pytest.raises(InadmissibleOrderError):
        random_sts(8, 0)
    with pytest.raises(TrivialOrderError):
        random_sts(3, 0)


def test_complete_empty_partial():
    empty = build_system(13, (), "partial")
    report = complete_partial(empty, 13, seed=2)
    assert report.success
    assert report.system.is_steiner()
    assert report.source_order == 13
    assert report.target_order == 13


def test_complete_fano_into_sts15():
    fano = build_system(7, FANO, "partial")
    report = complete_partial(fano, 15, seed=0)
    assert report.success
    full = report.system
    assert full.order == 15
    assert full.is_steiner()
    assert set(FANO) <= set(full.triples)
    assert dict(report.checks)["steiner"]
    assert dict(report.checks)["contains_source"]


def test_complete_keeps_source_indices():
    src = build_system(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)), "partial")
    report = complete_partial(src, 9, seed=1)
    assert set(src.triples) <= set(report.system.triples)


def test_complete_rejects_inadmissible_target():
    fano = build_system(7, FANO, "partial")
    with pytest.raises(InadmissibleOrderError):
        complete_partial(fano, 14, seed=0)
    with pytest.raises(InadmissibleOrderError):
        complete_partial(fano, 3, seed=0)


def test_complete_budget_exhaustion_carries_report():
    art = section4_partial(4)
    with pytest.raises(BudgetExhaustedError) as info:
        complete_partial(art.system, 61, seed=0, restarts=1, moves_per_restart=50)
    partial = info.value.partial
    assert partial is not None
    assert not partial.success
    assert partial.system is None
    assert partial.restarts_used == 1


def test_completion_report_kv_format():
    report = complete_partial(build_system(7, FANO, "partial"), 15, seed=0)
    kv = report.to_kv()
    assert "source_order=7" in kv
    assert "target_order=15" in kv
    assert "success=true" in kv
    assert "check.steiner=pass" in kv


def test_section4_embeds_into_sts61():
    art = section4_partial(4)
    report = complete_partial(art.system, 61, seed=0)
    assert report.success
    full = report.system
    assert full.order == 61
    assert len(full.triples) == 61 * 60 // 6
    assert set(art.system.triples) <= set(full.triples)


def test_two_sizes_pipeline():
    ts, base, b_triple = two_minimal_sizes_sts(4, seed=0)
    assert ts.is_steiner()
    assert ts.order == 61
    assert len(base) == 4
    assert len(b_triple) == 3
    # check (a): the three b-points spread and are minimal
    assert is_spreading_set(ts, b_triple)
    b = sorted(b_triple)
    for i in range(3):
        pair = b[:i] + b[i + 1:]
        assert not is_spreading_set(ts, pair)
    # check (b): the base spreads
    assert is_spreading_set(ts, base)
    # check (c): no (n-1)-subset of the base spreads
    for a in sorted(base):
        assert not is_spreading_set(ts, set(base) - {a})


def test_two_sizes_spreading_agrees_with_naive_oracle():
    ts, base, b_triple = two_minimal_sizes_sts(4, seed=0)
    assert naive_is_spreading(ts.order, ts.triples, b_triple)
    assert naive_is_spreading(ts.order, ts.triples, base)
    some_a = sorted(base)[0]
    assert not naive_is_spreading(ts.order, ts.triples, set(base) - {some_a})


def test_two_sizes_reproducible():
    first = two_minimal_sizes_sts(4, seed=0)
    second = two_minimal_sizes_sts(4, seed=0)
    assert first == second


# -- the two-sizes proof: every completion carries both minimal sets ----------


def _spreads_and_is_minimal(ts, points):
    triples = ts.triples
    return (naive_is_spreading(ts.order, triples, points)
            and not any(naive_is_spreading(ts.order, triples, sub)
                        for sub in combinations(sorted(points), len(points) - 1)))


@pytest.mark.parametrize("n, target, seed", [(4, 61, s) for s in range(5)]
                         + [(4, 63, s) for s in range(5)] + [(5, 159, s) for s in range(2)])
def test_every_completion_carries_both_minimal_spreading_sets(n, target, seed):
    # why two_minimal_sizes_sts accepts its first completion unchecked
    art = section4_partial(n)
    ts = complete_partial(art.system, target, seed=seed).system
    assert _spreads_and_is_minimal(ts, art.b_points[:3])
    assert _spreads_and_is_minimal(ts, art.base_points)


@pytest.mark.parametrize("n, seed", [(4, 0), (4, 1), (5, 0)])
def test_two_sizes_is_the_first_completion(n, seed):
    art = section4_partial(n)
    target = next_admissible(2 * art.system.order + 1)
    report = complete_partial(art.system, target, seed=random.Random(seed).getrandbits(32))
    assert two_minimal_sizes_sts(n, seed) == (
        report.system, frozenset(art.base_points), frozenset(art.b_points[:3]))


# -- the bitmask climb against the scalar oracle -------------------------------


def _same_climb(order, frozen, seed, max_moves=10 ** 6, attempts=1):
    """Run both climbs from one seed, attempt after attempt on one generator
    each, and require equal moves, equal generator states and the oracle's
    blocks, which the climb's pair table holds.  The climb starts from the
    system of the frozen blocks on the points up to the largest of them."""
    source = build_system(1 + max(map(max, frozen), default=0), frozen)
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(attempts):
        third, moves = _climb(order, source, fast_rng, max_moves)
        got = (None if third is None else _blocks_of(third), moves)
        want = scalar_climb(order, frozen, ref_rng, max_moves)
        if want[0] is not None:
            want = (sorted(want[0]), want[1])
        assert got == want
        assert fast_rng.getstate() == ref_rng.getstate()
        if got[0] is not None:
            return got
    return got


@pytest.mark.parametrize("order", [7, 9, 13, 15, 19, 31, 63])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_climb_matches_scalar_oracle(order, seed):
    blocks, moves = _same_climb(order, (), seed)
    assert blocks is not None and moves > 0


@pytest.mark.parametrize("order, seed", [(129, 0), (133, 1)])
def test_climb_across_words_matches_scalar_oracle(order, seed):
    # the candidate masks span three 64-bit words, so the rank-r bit search
    # skips words before it halves one
    blocks, moves = _same_climb(order, (), seed)
    assert blocks is not None and moves > 0


def test_climb_matches_scalar_oracle_with_frozen_blocks():
    art = section4_partial(4)
    target = next_admissible(2 * art.system.order + 1)
    blocks, _ = _same_climb(target, art.system.triples, 0, attempts=5)
    assert blocks is not None
    assert set(art.system.triples) <= set(blocks)


def test_climb_cut_short_matches_scalar_oracle():
    blocks, moves = _same_climb(63, (), 1, max_moves=500)
    assert (blocks, moves) == (None, 500)
    art = section4_partial(4)
    blocks, moves = _same_climb(61, art.system.triples, 3, max_moves=200, attempts=3)
    assert (blocks, moves) == (None, 200)
    big = section4_partial(5).system
    blocks, moves = _same_climb(159, big.triples, 0, max_moves=2000)
    assert (blocks, moves) == (None, 2000)


def test_random_sts_255_is_pinned():
    # digest of the system the scalar climb built; the oracle itself takes
    # several seconds at this order
    text = serialize(random_sts(255, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6710a588a16fcf3defe6c6b858fb9d50ed6972eb6412d49701978855b7f2e983"
    )


def test_embedding_into_159_is_pinned():
    report = complete_partial(section4_partial(5).system, 159, seed=0)
    assert (report.iterations, report.restarts_used) == (38813, 1)
    assert hashlib.sha256(serialize(report.system).encode()).hexdigest() == (
        "0a20587f798c547e0b8556374be86932d48568c00a3b30326e17d78d2d564908"
    )


def test_two_sizes_n5_is_pinned():
    ts, base, b_triple = two_minimal_sizes_sts(5, 0)
    assert (sorted(base), sorted(b_triple)) == ([0, 1, 3, 9, 27], [37, 39, 40])
    assert hashlib.sha256(serialize(ts).encode()).hexdigest() == (
        "7222776f828cd7bad26c41453ba944544145f7ff7d1dd33c956b79b29821bb28"
    )


def test_builders_hand_over_canonical_blocks(monkeypatch):
    # the climber, random_sts's one-point source, the STS(15) backtracker
    # and induced_subsystem each hand a filled pair table to
    # TripleSystem._of_table, so no block list goes through the constructor
    from stspread import system
    from stspread.constructions import subsystem_free_sts15

    source = section4_partial(4).system

    def unsorted(triples, order):
        raise AssertionError("blocks handed over unsorted")

    monkeypatch.setattr(system, "_canonical_triples", unsorted)
    assert random_sts(63, 0).is_steiner()
    report = complete_partial(source, next_admissible(2 * source.order + 1), 0)
    assert report.success and all(ok for _, ok in report.checks)
    assert subsystem_free_sts15(0).is_steiner()
    assert induced_subsystem(pg2(4), range(15))[0].is_steiner()
