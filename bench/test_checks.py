"""Each checker accepts a known-good result and rejects a corrupted one.

Good results come from tests/oracles.py and from label arithmetic, not from
the program, so a passing benchmark check is shown to be able to fail.
Run with: python -m pytest bench/test_checks.py
"""

from itertools import combinations

import checks as C
from oracles import ag_block_set, pg_block_set


def _pg(dim):
    blocks = sorted(pg_block_set(dim))
    return (1 << (dim + 1)) - 1, blocks


def _altered(blocks, index=3):
    a, b, c = blocks[index]
    return blocks[:index] + [(a, b, c + 1)] + blocks[index + 1:]


def test_read_system_reads_the_cli_format():
    text = "v 7 steiner\n# tag pg2 2\nb 0 1 2\nb 0 3 4\n"
    assert C.read_system(text) == (7, "steiner", [(0, 1, 2), (0, 3, 4)])


def test_pg_rule_rejects_one_altered_block():
    _, blocks = _pg(4)
    assert C.pg_rule(4, blocks) == []
    assert C.pg_rule(4, _altered(blocks))
    assert C.pg_rule(4, blocks[:-1])


def test_ag_rule_rejects_one_altered_block():
    blocks = sorted(ag_block_set(3))
    assert C.ag_rule(3, blocks) == []
    assert C.ag_rule(3, _altered(blocks))


def test_pair_counts_rejects_a_missing_or_doubled_pair():
    order, blocks = _pg(3)
    assert C.pair_counts(order, blocks) == []
    assert C.pair_counts(order, blocks[1:])
    assert C.pair_counts(order, blocks[1:], steiner=False) == []
    assert C.pair_counts(order, blocks + [(0, 1, 5)], steiner=False)


def test_pair_closure_matches_f2_spans():
    order, blocks = _pg(4)
    clo = C.PairClosure(order, blocks)
    for seeds in ((0, 1), (0, 1, 3), (2, 9, 17), (0, 1, 3, 7, 15)):
        assert clo.points(seeds) == C.f2_span_indices(seeds, 4)
    assert clo.spreads((0, 1, 3, 7, 15))


def test_check_bases_rejects_an_enumeration_missing_one_basis():
    order, _ = _pg(3)
    bases = [frozenset(s) for s in combinations(range(order), 4)
             if len(C.f2_span_indices(s, 3)) == order]
    assert len(bases) == C.n_bases(4) == 840
    assert C.check_bases(bases, 3) == []
    assert C.check_bases(bases[1:], 3)
    assert C.check_bases(bases[1:] + [frozenset((0, 1, 2, 3))], 3)


def test_check_minimal_spreading_rejects_missing_and_non_minimal_sets():
    order, blocks = _pg(2)
    clo = C.PairClosure(order, blocks)
    line_set = {frozenset(b) for b in blocks}
    bases = [frozenset(t) for t in combinations(range(order), 3) if frozenset(t) not in line_set]
    assert C.check_minimal_spreading(clo, bases) == []
    assert C.check_minimal_spreading(clo, bases[1:])
    assert C.check_minimal_spreading(clo, bases + [frozenset((0, 1, 2, 3))])
    assert C.check_minimal_spreading(clo, bases + [frozenset((0, 1, 2))])


def test_closed_set_checks_reject_a_dropped_point():
    order, blocks = _pg(3)
    clo = C.PairClosure(order, blocks)
    plane = frozenset(range(7))
    assert C.check_closed_sets(clo, [plane], blocks) == []
    assert C.check_xor_closed([plane]) == []
    dropped = plane - {4}
    assert C.check_closed_sets(clo, [dropped], blocks)
    assert C.check_xor_closed([dropped])
    assert C.check_closed_sets(clo, [frozenset(blocks[0])], blocks)


def test_sampled_triples_must_land_on_a_listed_set():
    order, blocks = _pg(3)
    clo = C.PairClosure(order, blocks)
    planes = {clo.points(t) for t in combinations(range(order), 3)} - {frozenset(b) for b in blocks}
    planes = sorted(planes, key=sorted)
    assert len(planes) == C.n_projective_subspaces(4, (3,))
    triples = list(combinations(range(order), 3))
    assert C.check_sampled_triples(clo, planes, blocks, triples) == []
    assert C.check_sampled_triples(clo, planes[1:], blocks, triples)


def test_saturating_witness_check_rejects_a_dropped_point():
    order, blocks = _pg(2)
    clo = C.PairClosure(order, blocks)
    assert C.counting_bound(order) == 4
    assert C.check_saturating_witness(clo, 4, {0, 1, 2, 3}) == []
    assert C.check_saturating_witness(clo, 3, {0, 1, 3})
    assert C.check_saturating_witness(clo, 4, {0, 1, 3})


def test_counts_and_ranks():
    assert C.n_bases(5) == 83328
    assert C.n_projective_subspaces(6, (3, 4, 5)) == 2109
    assert C.counting_bound(31) == 8
    colex = sorted(combinations(range(6), 3), key=lambda s: tuple(reversed(s)))
    assert [C.colex_rank(s) for s in colex] == list(range(len(colex)))
    assert C.f2_independent((0, 1, 3)) and not C.f2_independent((0, 1, 2))
