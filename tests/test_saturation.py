"""Saturating sets in binary projective space: bounds, identities, extremes."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from stspread import (
    BudgetExhaustedError,
    NotPrimePowerError,
    ag3,
    build_system,
    deviating_hyperplane,
    hyperplanes_pg2,
    induced_subsystem,
    intersection_extremes,
    is_saturating_set,
    is_spreading_set,
    lunelli_sce_min,
    min_saturating_size,
    pg2,
    random_sts,
    variance_identity,
)

from stspread import claims, saturation
from stspread import colex
from stspread.colex import _colex_levels

from oracles import (
    brute_extremes,
    colex_subsets,
    hyperplane_point_indices,
    most_deviating_functional,
    naive_saturates,
    variance_sum_by_enumeration,
    xor_saturates,
)

FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
RANDOM_SYSTEMS = [(v, seed) for v in (7, 9, 13, 15, 19) for seed in (0, 1, 2)]


# -- hyperplane family -------------------------------------------------------


def test_hyperplane_family_counts():
    for n in (1, 2, 3, 4):
        fam = hyperplanes_pg2(n)
        assert len(fam) == (1 << (n + 1)) - 1
        for h in fam.hyperplanes:
            assert len(h) == (1 << n) - 1


def test_hyperplanes_match_parity_oracle():
    fam = hyperplanes_pg2(3)
    for functional, points in zip(fam.functionals, fam.hyperplanes):
        assert sorted(points) == hyperplane_point_indices(3, functional)


def test_hyperplane_pairwise_intersections():
    # two distinct hyperplanes of PG(n,2) meet in 2^(n-1) - 1 points
    fam = hyperplanes_pg2(3)
    sets = [frozenset(h) for h in fam.hyperplanes]
    for a, b in combinations(sets, 2):
        assert len(a & b) == 3


# -- variance identity -------------------------------------------------------


def test_variance_identity_line_example():
    lhs, rhs = variance_identity(2, (0, 1, 2))
    assert lhs == rhs == Fraction(15, 4)


def test_variance_identity_matches_enumeration_oracle():
    rng = random.Random(3)
    for n in (2, 3, 4):
        count = (1 << (n + 1)) - 1
        for _ in range(40):
            subset = rng.sample(range(count), rng.randint(0, count))
            lhs, rhs = variance_identity(n, subset)
            assert lhs == rhs
            assert lhs == variance_sum_by_enumeration(n, subset)


def test_variance_identity_empty_and_full():
    lhs, rhs = variance_identity(2, ())
    assert lhs == rhs == 0
    full = tuple(range(7))
    lhs, rhs = variance_identity(2, full)
    assert lhs == rhs
    assert lhs == Fraction(7, 4)  # m*2^(n-1) - m^2/4 with m=7, n=2


def test_deviating_hyperplane_strict():
    report = deviating_hyperplane(2, (0, 1, 3))
    assert not report.degenerate
    assert report.strict
    assert report.deviation == Fraction(3, 2)
    # the reported hyperplane actually attains the deviation
    fam = hyperplanes_pg2(2)
    idx = list(fam.functionals).index(report.functional)
    u = len(set(fam.hyperplanes[idx]) & {0, 1, 3})
    assert abs(Fraction(u) - Fraction(3, 2)) == report.deviation


def test_deviating_hyperplane_random_strictness():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        count = (1 << (n + 1)) - 1
        for _ in range(50):
            subset = rng.sample(range(count), rng.randint(1, count))
            report = deviating_hyperplane(n, subset)
            assert report.bound_squared > 0
            assert report.strict
            assert report.deviation ** 2 > report.bound_squared


def test_deviating_hyperplane_matches_the_scan_oracle():
    rng = random.Random(33)
    for n in (1, 2, 3, 4, 5):
        count = (1 << (n + 1)) - 1
        subsets = [(), tuple(range(count)), hyperplane_point_indices(n, 1),
                   sorted(set(range(count)) - set(hyperplane_point_indices(n, 3)))]
        subsets += [rng.sample(range(count), rng.randint(0, count)) for _ in range(40)]
        for subset in subsets:
            report = deviating_hyperplane(n, subset)
            assert (report.functional, report.deviation) == most_deviating_functional(n, subset)
            assert report.hyperplane == frozenset(hyperplane_point_indices(n, report.functional))


def test_szoras_makes_one_hyperplane_pass_per_trial(monkeypatch):
    passes = []
    counts = saturation._hyperplane_counts

    def counted(n, points):
        passes.append(n)
        return counts(n, points)

    monkeypatch.setattr(saturation, "_hyperplane_counts", counted)
    records = list(claims.szoras(n=4, trials=30, seed=5))
    assert [ok for _, ok, _ in records] == [True, True]
    assert passes == [4] * 30


def test_deviating_hyperplane_degenerate_empty():
    report = deviating_hyperplane(3, ())
    assert report.degenerate


# -- counting bounds ---------------------------------------------------------


def test_lunelli_sce_known_values():
    assert lunelli_sce_min(2, 2) == 4
    assert lunelli_sce_min(3, 2) == 5
    assert lunelli_sce_min(2, 3) == 4
    assert lunelli_sce_min(4, 3) == 11


def test_lunelli_sce_defining_inequality_is_tight():
    for n in range(1, 12):
        for q in (2, 3, 4, 5):
            s = lunelli_sce_min(n, q)
            need = (q ** (n + 1) - 1) // (q - 1)
            assert (q - 1) * s * (s - 1) // 2 + s >= need
            if s > 1:
                t = s - 1
                assert (q - 1) * t * (t - 1) // 2 + t < need


def test_lunelli_sce_rejects_non_prime_power():
    with pytest.raises(NotPrimePowerError):
        lunelli_sce_min(3, 6)


def test_lunelli_sce_q2_golden_values():
    assert [lunelli_sce_min(n, 2) for n in range(1, 11)] == [
        2, 4, 5, 8, 11, 16, 23, 32, 45, 64,
    ]


def test_lower_bounds_at_most_exact_minimum():
    for n, exact in ((2, 4), (3, 5), (4, 9)):
        size, _ = min_saturating_size(pg2(n))
        assert size == exact
        assert lunelli_sce_min(n, 2) <= size


# -- exhaustive minima -------------------------------------------------------


def test_min_saturating_fano_is_four():
    size, witness = min_saturating_size(pg2(2))
    assert size == 4
    assert xor_saturates(2, witness)
    # exhaustion: no triple saturates
    for triple in combinations(range(7), 3):
        assert not xor_saturates(2, triple)


def test_min_saturating_pg3_at_least_five():
    size, witness = min_saturating_size(pg2(3))
    assert size == 5
    assert xor_saturates(3, witness)
    assert is_saturating_set(pg2(3), witness)


def test_saturating_witnesses_also_spread():
    for d in (2, 3):
        ts = pg2(d)
        _, witness = min_saturating_size(ts)
        assert is_spreading_set(ts, witness)


def test_min_saturating_matches_naive_oracle_on_small_systems():
    fano = build_system(7, FANO, "steiner")
    size, witness = min_saturating_size(fano)
    assert naive_saturates(7, FANO, witness)
    assert size == 4
    nine = ag3(2)
    size9, witness9 = min_saturating_size(nine)
    assert naive_saturates(9, nine.triples, witness9)
    for smaller in combinations(range(9), size9 - 1):
        assert not naive_saturates(9, nine.triples, smaller)


def _colex_first_saturating(ts):
    """The least saturating size and its colex-first witness, by brute force."""
    v = ts.order
    for k in range(1, v + 1):
        hits = [c for c in combinations(range(v), k) if naive_saturates(v, ts.triples, c)]
        if hits:
            # colex order compares the largest points first
            return k, frozenset(min(hits, key=lambda c: c[::-1]))


@pytest.mark.parametrize("v,seed", RANDOM_SYSTEMS)
def test_min_saturating_matches_colex_oracle_scan(v, seed):
    ts = random_sts(v, seed)
    assert min_saturating_size(ts) == _colex_first_saturating(ts)


def _partial_systems():
    systems = [build_system(1, [], "steiner"), build_system(7, FANO[:6], "partial")]
    for v, seed, points in ((13, 0, range(0, 13, 2)), (15, 1, range(1, 15, 3)),
                            (19, 2, range(11)), (31, 1, range(0, 31, 3))):
        systems.append(induced_subsystem(random_sts(v, seed), points)[0])
    return systems


def test_min_saturating_on_partial_systems_matches_the_oracle():
    # an uncovered pair completes no block, so it must cover no point
    for ts in _partial_systems():
        assert min_saturating_size(ts) == _colex_first_saturating(ts), ts


@pytest.mark.parametrize("cap", [1, 2, 7, 30, 1716])
def test_subset_chunks_follow_colex_order(cap):
    for n in range(15):
        levels = []
        for k, batches in _colex_levels(n, cap):
            levels.append(k)
            got = []
            tops = []
            for full, batch in batches:
                assert len(batch) == n
                assert 0 < full.bit_length() <= cap, (n, k)
                assert all(s & ~full == 0 for s in batch)
                subsets = [tuple(p for p, s in enumerate(batch) if s >> j & 1)
                           for j in range(full.bit_length())]
                # one top point per batch
                assert len({s[-1] for s in subsets}) == 1, (n, k, cap)
                tops.append(subsets[0][-1])
                got += subsets
            assert got == list(colex_subsets(n, k)), (n, k, cap)
            # a top is split only when its candidates exceed the cap
            if comb(n - 1, k - 1) <= cap:
                assert tops == list(range(k - 1, n)), (n, k, cap)
        assert levels == list(range(1, n + 1))


def test_min_saturating_builds_each_pascal_row_once(monkeypatch):
    # the minimum 9 of PG(4,2) is found at level 9, which reads rows up to 8;
    # row 0 is given, and each later row is built once from the row before
    built = []
    pascal = colex._pascal

    def recording(*args):
        built.append(args[1])
        return pascal(*args)

    monkeypatch.setattr(colex, "_pascal", recording)
    assert min_saturating_size(pg2(4))[0] == 9
    assert built == list(range(1, 9))


def test_min_saturating_in_tiny_batches_keeps_its_witness(monkeypatch):
    # the first batch with a hit must still hold the colex-first witness
    monkeypatch.setattr(saturation, "_BATCH_CAP", 3)
    systems = [random_sts(v, seed) for v, seed in RANDOM_SYSTEMS] + _partial_systems()
    for ts in systems:
        assert min_saturating_size(ts) == _colex_first_saturating(ts), ts


def test_min_saturating_holds_a_bounded_window():
    # the minimum 9 of PG(4,2) is found among the 9-subsets; a whole colex
    # level of them traced 18.2 MB, the bounded batches hold about 1.1 MB
    ts = pg2(4)
    tracemalloc.start()
    try:
        size, _ = min_saturating_size(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 9
    assert peak < 3_000_000, peak


def test_min_saturating_trivial_line():
    line = build_system(3, ((0, 1, 2),), "steiner")
    assert min_saturating_size(line) == (2, frozenset({0, 1}))


def test_min_saturating_pg3_pg4_witnesses():
    assert min_saturating_size(pg2(3)) == (5, frozenset({2, 3, 5, 7, 8}))
    witness = frozenset({2, 3, 5, 7, 9, 11, 13, 15, 16})
    assert min_saturating_size(pg2(4)) == (9, witness)


def test_xor_saturation_agrees_with_incidence_definition():
    rng = random.Random(1)
    ts = pg2(3)
    for _ in range(200):
        subset = rng.sample(range(15), rng.randint(0, 15))
        assert is_saturating_set(ts, subset) == xor_saturates(3, subset)


# -- intersection extremes ---------------------------------------------------


def test_extremes_known_small_case():
    report = intersection_extremes(2, 3)
    assert (report.max_min, report.min_max) == (1, 2)
    assert len(report.max_min_witness) == 3
    assert len(report.min_max_witness) == 3


def test_extremes_match_direct_scan():
    # both witnesses are the colex-first subsets attaining the extremes;
    # colex order compares the largest points first
    for n, m in ((2, 3), (2, 4), (3, 4), (3, 5)):
        sets = [frozenset(h) for h in hyperplanes_pg2(n).hyperplanes]
        subsets = sorted(combinations(range((1 << (n + 1)) - 1), m),
                         key=lambda c: c[::-1])
        lows = [min(len(h.intersection(c)) for h in sets) for c in subsets]
        highs = [max(len(h.intersection(c)) for h in sets) for c in subsets]
        report = intersection_extremes(n, m)
        assert report.max_min == max(lows)
        assert report.min_max == min(highs)
        assert report.max_min_witness == frozenset(subsets[lows.index(max(lows))])
        assert report.min_max_witness == frozenset(subsets[highs.index(min(highs))])


@pytest.mark.parametrize("n, m", [(4, 2), (4, 3), (3, 9), (5, 2)])
def test_extremes_past_the_old_caps_match_the_oracle(n, m):
    # no cap bounds n or m below the hyperplane family's: only the budget
    assert tuple(intersection_extremes(n, m)) == (n, m, *brute_extremes(n, m))


def test_extremes_budget_refusal():
    with pytest.raises(BudgetExhaustedError):
        intersection_extremes(3, 8, budget=1000)


def test_extremes_budget_counts_the_pascal_table(monkeypatch):
    # m near the point count: few subsets, but level m needs m - 1 Pascal
    # rows, so the budget refuses before any row is built
    def no_row(*args):
        raise AssertionError("a Pascal row was built")

    monkeypatch.setattr(colex, "_pascal", no_row)
    for n, m, pairs in ((8, 510, 261121), (10, 2046, 4190209)):
        with pytest.raises(BudgetExhaustedError,
                           match="^scan of %d subset-hyperplane pairs plus its Pascal table"
                                 " exceeds budget 10000000$" % pairs):
            intersection_extremes(n, m)


def test_extremes_budget_bounds_the_rows_built(monkeypatch):
    # the budget counts each of the 11 rows of level 12 of PG(3,2) as 14
    # entries of C(14, j) bits; the rows built hold no more
    bits = []
    pascal = colex._pascal

    def counted(below, j, m):
        row = pascal(below, j, m)
        bits.append(sum(map(int.bit_length, row)))
        return row

    monkeypatch.setattr(colex, "_pascal", counted)
    work = comb(15, 12) * 15 + 14 * sum(comb(14, j) for j in range(1, 12))
    with pytest.raises(BudgetExhaustedError):
        intersection_extremes(3, 12, budget=work - 1)
    assert not bits
    assert tuple(intersection_extremes(3, 12, budget=work)) == (3, 12, *brute_extremes(3, 12))
    assert len(bits) == 11 and sum(bits) <= work - comb(15, 12) * 15
