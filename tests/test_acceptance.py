"""Acceptance gate: one test and one PASS/FAIL line per shipped claim.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they are
produced.  Every check is exact (no tolerances except the stated wall-clock
budgets, which are generous).
"""

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from stspread import (
    ag3,
    check_projective,
    closure_points,
    deviating_hyperplane,
    greedy_spreading_set,
    is_saturating_set,
    is_spreading_set,
    lunelli_sce_min,
    min_saturating_size,
    min_spreading_size,
    perturbed_pg,
    pg2,
    random_sts,
    subsystem_free_sts15,
    two_minimal_sizes_sts,
    variance_identity,
    verify_dimension_theorem,
)
from stspread.cli import main as cli_main

from oracles import f2_span_indices, f3_affine_span, xor_saturates

RANDOM_ORDERS = (7, 9, 13, 15, 19, 21, 25, 27)


def _line(ok, name, detail):
    print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def corpus():
    systems = [
        pg2(2), pg2(3), pg2(4),
        ag3(2), ag3(3),
        subsystem_free_sts15(0),
        perturbed_pg(4, 0),
    ]
    rng = random.Random(2024)
    for i in range(30):
        systems.append(random_sts(RANDOM_ORDERS[i % len(RANDOM_ORDERS)],
                                  rng.randrange(1 << 30)))
    return systems


def test_criterion_1_greedy_logarithmic_bound(corpus):
    start = time.time()
    violations = []
    for ts in corpus:
        res = greedy_spreading_set(ts)
        bound = (ts.order + 1).bit_length() - 1
        if res.size > bound or not is_spreading_set(ts, res.witness):
            violations.append((ts.tag.variant, ts.order, res.size, bound))
    for d in (2, 3, 4):
        res = greedy_spreading_set(pg2(d))
        if res.size != d + 1:
            violations.append(("pg2-equality", d, res.size, d + 1))
    elapsed = time.time() - start
    _line(
        not violations and elapsed < 10,
        "criterion-1 greedy bound",
        "systems=%d violations=%r elapsed=%.2fs budget=10s"
        % (len(corpus), violations, elapsed),
    )


def test_criterion_2_minimum_attained_iff_projective(corpus):
    start = time.time()
    violations = []
    for ts in corpus:
        if ts.order > 31:
            continue
        n = ts.order
        size, witness = min_spreading_size(ts)
        attains = (n + 1) & n == 0 and size == (n + 1).bit_length() - 1
        proj = check_projective(ts)
        if attains != proj or not is_spreading_set(ts, witness):
            violations.append((ts.tag.variant, n, size, proj))
    reports = [verify_dimension_theorem(pg2(d), trials=500, seed=0) for d in (3, 4)]
    counterexamples = sum(len(r.counterexamples) for r in reports)
    elapsed = time.time() - start
    _line(
        not violations and counterexamples == 0 and elapsed < 60,
        "criterion-2 minimum iff projective",
        "systems=%d violations=%r dim_trials=%d counterexamples=%d "
        "elapsed=%.2fs budget=60s"
        % (len(corpus), violations, sum(r.trials for r in reports),
           counterexamples, elapsed),
    )


def test_criterion_3_perturbed_space_minimal_size_four():
    start = time.time()
    ts = perturbed_pg(4, 0)
    witness = (1, 3, 7, 15)  # the four basis points kept out of the rebuild
    spreads = is_spreading_set(ts, witness)
    minimal = all(
        not is_spreading_set(ts, sub)
        for k in (1, 2, 3)
        for sub in combinations(witness, k)
    )
    size, _ = min_spreading_size(ts)
    elapsed = time.time() - start
    _line(
        ts.order == 31 and spreads and minimal and size <= 4 < 5 and elapsed < 60,
        "criterion-3 perturbed witness",
        "order=%d witness=%r spreads=%s minimal=%s min_size=%d elapsed=%.2fs "
        "budget=60s" % (ts.order, list(witness), spreads, minimal, size, elapsed),
    )


def test_criterion_4_two_minimal_sizes():
    start = time.time()
    seed = 0
    ts, base, b_triple = two_minimal_sizes_sts(4, seed=seed)
    b = sorted(b_triple)
    check_a = is_spreading_set(ts, b_triple) and all(
        not is_spreading_set(ts, b[:i] + b[i + 1:]) for i in range(3)
    )
    check_b = is_spreading_set(ts, base)
    check_c = all(not is_spreading_set(ts, set(base) - {a}) for a in base)
    elapsed = time.time() - start
    _line(
        ts.is_steiner() and len(base) == 4 and check_a and check_b and check_c
        and elapsed < 600,
        "criterion-4 two minimal sizes",
        "order=%d seed=%d b_triple=%r base=%r checks=(a=%s,b=%s,c=%s) "
        "elapsed=%.2fs budget=600s"
        % (ts.order, seed, sorted(b_triple), sorted(base),
           check_a, check_b, check_c, elapsed),
    )


def test_criterion_5_variance_identity_and_deviation():
    start = time.time()
    rng = random.Random(77)
    identity_failures = deviation_failures = tested = 0
    for n in (2, 3, 4, 5):
        count = (1 << (n + 1)) - 1
        for _ in range(200):
            subset = rng.sample(range(count), rng.randint(0, count))
            lhs, rhs = variance_identity(n, subset)
            if lhs != rhs:
                identity_failures += 1
            report = deviating_hyperplane(n, subset)
            if report.degenerate:
                continue
            tested += 1
            if not report.strict:
                deviation_failures += 1
    elapsed = time.time() - start
    _line(
        identity_failures == 0 and deviation_failures == 0 and elapsed < 30,
        "criterion-5 variance identity",
        "subsets=800 identity_failures=%d strict_tested=%d strict_failures=%d "
        "elapsed=%.2fs budget=30s"
        % (identity_failures, tested, deviation_failures, elapsed),
    )


def test_criterion_6_saturation_bounds_and_exhaustive_minima():
    start = time.time()
    lunelli_ok = lunelli_sce_min(2, 2) == 4 and lunelli_sce_min(3, 2) == 5
    fano = pg2(2)
    size2, wit2 = min_saturating_size(fano)
    no_triple = all(not is_saturating_set(fano, t) for t in combinations(range(7), 3))
    no_triple_oracle = all(not xor_saturates(2, t) for t in combinations(range(7), 3))
    space = pg2(3)
    size3, wit3 = min_saturating_size(space)
    witnesses_ok = (
        is_saturating_set(fano, wit2) and is_saturating_set(space, wit3)
        and is_spreading_set(fano, wit2) and is_spreading_set(space, wit3)
    )
    elapsed = time.time() - start
    _line(
        lunelli_ok and size2 == 4 and no_triple and no_triple_oracle
        and size3 >= 5 and witnesses_ok and elapsed < 60,
        "criterion-6 saturation bounds",
        "lunelli=(4,5) fano_min=%d pg3_min=%d triples_checked=35 "
        "witnesses_spread=%s elapsed=%.2fs budget=60s"
        % (size2, size3, witnesses_ok, elapsed),
    )


def test_criterion_7_property_suites():
    start = time.time()
    pool = [pg2(2), pg2(3), pg2(4), ag3(2), ag3(3),
            subsystem_free_sts15(0), perturbed_pg(4, 0), random_sts(19, 0)]
    rng = random.Random(2025)
    cases = 1000
    failures = {"closure": 0, "doubling": 0, "blocks": 0, "span": 0, "meet": 0}
    for _ in range(cases):
        ts = rng.choice(pool)
        seeds = rng.sample(range(ts.order), rng.randint(0, 5))
        closed = closure_points(ts, seeds)
        if not (set(seeds) <= closed and closure_points(ts, closed) == closed):
            failures["closure"] += 1
        extra = rng.sample(range(ts.order), rng.randint(0, 3))
        if not closed <= closure_points(ts, list(seeds) + extra):
            failures["closure"] += 1
        if ts.is_steiner() and closed and len(closed) < ts.order:
            p = rng.choice([q for q in range(ts.order) if q not in closed])
            if len(closure_points(ts, list(closed) + [p])) < 2 * len(closed) + 1:
                failures["doubling"] += 1
        a, b = rng.choice(ts.triples), rng.choice(ts.triples)
        overlap = len(set(a) & set(b))
        if overlap not in (0, 1, 3) or (overlap == 3) != (a == b):
            failures["blocks"] += 1
        if ts.tag.variant == "pg2":
            if closed != set(f2_span_indices(seeds, ts.tag.param)):
                failures["span"] += 1
        elif ts.tag.variant == "ag3":
            if closed != set(f3_affine_span(seeds, ts.tag.param)):
                failures["span"] += 1
        other = closure_points(ts, rng.sample(range(ts.order), rng.randint(0, 5)))
        meet = closed & other
        if closure_points(ts, meet) != meet:
            failures["meet"] += 1
    elapsed = time.time() - start
    total = sum(failures.values())
    _line(
        total == 0 and elapsed < 120,
        "criterion-7 property suites",
        "cases=%d failures=%r elapsed=%.2fs budget=120s" % (cases, failures, elapsed),
    )


def test_criterion_8_determinism_across_repeats_and_jobs(tmp_path, capsys):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    src = tmp_path / "p3.txt"
    run(["construct", "pg2", "--dim", "3", "--out", str(src)])
    first_bytes = src.read_bytes()
    src2 = tmp_path / "p3b.txt"
    run(["construct", "pg2", "--dim", "3", "--out", str(src2)])
    files_equal = first_bytes == src2.read_bytes()

    commands = [
        ["analyze", "--system", str(src), "spread", "enumerate", "--max-size", "4"],
        ["analyze", "--system", str(src), "subsystems"],
        ["saturate", "min", "--system", str(src)],
        ["saturate", "extremes", "--n", "3", "--m", "5"],
        ["demo", "szoras", "--n", "3", "--trials", "50", "--seed", "5"],
    ]
    mismatches = []
    for argv in commands:
        outputs = []
        for jobs in ("1", "1", "8"):
            code, out = run(["--jobs", jobs] + argv)
            if code != 0:
                mismatches.append((argv, "exit=%d" % code))
            outputs.append(hashlib.sha256(out.encode()).hexdigest())
        if len(set(outputs)) != 1:
            mismatches.append((argv, outputs))
    with capsys.disabled():
        _line(
            files_equal and not mismatches,
            "criterion-8 determinism",
            "commands=%d repeat+jobs byte-identical, files_equal=%s mismatches=%r"
            % (len(commands), files_equal, mismatches),
        )
