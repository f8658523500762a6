"""Geometric and search-based constructions."""

import sys
import tracemalloc

import pytest

import stspread.system as system_module
from stspread import (
    NoTriangleError,
    SystemKind,
    TooLargeError,
    TrivialOrderError,
    ag3,
    closure_points,
    find_triangle,
    is_spreading_set,
    is_spreading_system,
    pg2,
    perturbed_pg,
    section4_partial,
    subsystem_free_sts15,
)

from oracles import (
    ag_block_set,
    f3_affine_span,
    pair_square,
    pairwise_ag3_triples,
    pairwise_pg2_triples,
    pg_block_set,
    scalar_triple_system,
    union_size_by_inclusion_exclusion,
)

FANO_BLOCKS = {(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
               (2, 3, 6), (2, 4, 5)}


def test_pg2_fano_blocks():
    ts = pg2(2)
    assert ts.order == 7
    assert set(ts.triples) == FANO_BLOCKS
    assert ts.is_steiner()


def test_pg2_block_sets_match_oracle():
    for d in (2, 3, 4, 5):
        ts = pg2(d)
        assert ts.order == (1 << (d + 1)) - 1
        assert set(ts.triples) == pg_block_set(d)


def test_pg2_labels_are_binary_coordinates():
    ts = pg2(3)
    for idx in range(15):
        label = ts.tag.label_of(idx)
        value = sum(bit << i for i, bit in enumerate(label))
        assert value == idx + 1


def test_pg2_edge_dimensions():
    line = pg2(1)
    assert line.order == 3 and line.triples == ((0, 1, 2),)
    with pytest.raises(TrivialOrderError):
        pg2(0)
    with pytest.raises(TooLargeError):
        pg2(11)


def test_ag3_block_sets_match_oracle():
    for d in (1, 2, 3):
        ts = ag3(d)
        assert ts.order == 3 ** d
        assert set(ts.triples) == ag_block_set(d)


def _matches_pairwise_loop(ts, want):
    """ts holds the blocks of the pairwise loop, at every pair as the direct
    route fills its table, in rows of 2-byte cells below the diagonal, and
    in triples, in the loop's order."""
    triples, kind, third = scalar_triple_system(ts.order, want, SystemKind.STEINER)
    assert pair_square(ts) == third
    assert [len(r) for r in ts._third] == list(range(ts.order))
    assert all(r.typecode == "h" for r in ts._third)
    assert ts.triples == tuple(want) == triples
    assert ts.kind is kind is SystemKind.STEINER
    assert ts.block_count == len(want)


@pytest.mark.parametrize("d", range(1, 10))
def test_pg2_triples_match_pairwise_loop(d):
    _matches_pairwise_loop(pg2(d), pairwise_pg2_triples(d))


@pytest.mark.parametrize("d", range(1, 7))
def test_ag3_triples_match_pairwise_loop(d):
    _matches_pairwise_loop(ag3(d), pairwise_ag3_triples(d))


def _no_tuples(third):
    raise AssertionError("block tuples built")


def test_constructions_build_no_block_tuples(monkeypatch):
    # the pair table is filled row by row, with no block tuple, and a build
    # allocates little beyond the table it returns
    monkeypatch.setattr(system_module, "_blocks_of", _no_tuples)
    for build, d in ((pg2, 9), (ag3, 6)):
        tracemalloc.start()
        try:
            ts = build(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = sum(map(sys.getsizeof, ts._third))
        assert peak <= 1.25 * table, (build.__name__, peak, table)


def test_ag3_lines_are_affine_spans():
    ts = ag3(2)
    for block in ts.triples:
        assert set(block) == set(f3_affine_span(block[:2], 2))


def test_sts15_free_is_subsystem_free_steiner():
    ts = subsystem_free_sts15(0)
    assert ts.order == 15
    assert len(ts.triples) == 35
    assert ts.is_steiner()
    assert is_spreading_system(ts)


def test_sts15_free_seeds_differ():
    a = subsystem_free_sts15(0)
    b = subsystem_free_sts15(1)
    assert a != b  # astronomically unlikely to collide
    assert subsystem_free_sts15(0) == a  # reproducible


def test_find_triangle_shape():
    ts = subsystem_free_sts15(0)
    vertices, edges = find_triangle(ts)
    v, vp, vpp = vertices
    w, wp, wpp = edges
    assert ts.third_point(v, vp) == w
    assert ts.third_point(vp, vpp) == wp
    assert ts.third_point(v, vpp) == wpp
    assert len({v, vp, vpp, w, wp, wpp}) == 6


def test_find_triangle_absent_in_fano_quotient():
    # a triangle needs three blocks meeting pairwise in single points with
    # all six points distinct; the order-3 system has only one block
    from stspread import build_system

    tiny = build_system(3, ((0, 1, 2),), "steiner")
    with pytest.raises(NoTriangleError):
        find_triangle(tiny)


def test_perturbed_pg_structure():
    ts = perturbed_pg(4, 0)
    assert ts.order == 31
    assert len(ts.triples) == 155
    assert ts.is_steiner()
    # the three aligned blocks survive the replacement
    blocks = set(ts.triples)
    assert (1, 3, 5) in blocks
    assert (3, 7, 11) in blocks
    assert (1, 7, 9) in blocks
    # outside the replaced 15-point set, projective blocks are untouched
    untouched = {b for b in pg_block_set(4) if any(p >= 15 for p in b)}
    assert untouched <= blocks


def test_perturbed_pg_replacement_is_subsystem_free():
    from stspread import induced_subsystem

    ts = perturbed_pg(4, 0)
    sub, kept = induced_subsystem(ts, range(15))
    assert kept == tuple(range(15))
    assert sub.is_steiner()
    assert is_spreading_system(sub)


def test_perturbed_pg_vertex_closure_is_replaced_subspace():
    # perturbed_pg leaves the alignment and the fill of W unchecked
    for d, seed in ((4, 0), (4, 1), (5, 2), (6, 1)):
        ts = perturbed_pg(d, seed)
        assert {(1, 3, 5), (3, 7, 11), (1, 7, 9)} <= set(ts.triples)
        assert closure_points(ts, [1, 3, 7]) == set(range(15))


def test_perturbed_pg_not_spreading_system():
    assert not is_spreading_system(perturbed_pg(4, 0))


def test_perturbed_pg_reproducible():
    assert perturbed_pg(4, 0) == perturbed_pg(4, 0)


def test_section4_partial_shape():
    art = section4_partial(4)
    ts = art.system
    assert ts.kind is SystemKind.PARTIAL
    assert ts.order == 30
    assert len(ts.triples) == 54
    assert art.base_points == (0, 1, 3, 9)
    assert len(art.b_points) == 4 + 7  # b_1..b_{n+7}
    # hyperplane closures hold within the partial system already
    for i, closed in enumerate(art.hyperplane_sets):
        assert closure_points(ts, closed) == set(closed)


def test_section4_pinned_union_has_22_points():
    art = section4_partial(4)
    union = set().union(*art.hyperplane_sets)
    assert len(union) == 22
    assert union_size_by_inclusion_exclusion(art.hyperplane_sets) == 22
    # 4 nine-point planes meeting pairwise in lines of 3 and triple-wise in
    # single points: 4*9 - 6*3 + 4*1 - 0
    assert 4 * 9 - 6 * 3 + 4 * 1 - 0 == 22


def test_section4_added_triples_meet_each_pinned_set_at_most_once():
    # section4_partial leaves this unchecked; 7 is the largest n whose
    # AG(n-1,3) is within the default construction cap
    for n in (4, 5, 6, 7):
        art = section4_partial(n)
        if n == 7:
            assert (art.system.order, len(art.system.triples)) == (697, 49641)
        pinned = [set(x) for x in art.hyperplane_sets]
        inside = {t for t in art.system.triples
                  if any(set(t) <= x for x in pinned)}
        added = set(art.system.triples) - inside
        assert len(added) == 2 * n + 4  # the chain and base triples
        for t in added:
            for x in pinned:
                assert len(set(t) & x) <= 1, (n, t, sorted(x))


def test_section4_base_spreads_with_x_blocks_only():
    art = section4_partial(4)
    assert is_spreading_set(art.system, art.base_points)


def test_section4_b_chain_connects():
    art = section4_partial(4)
    b = art.b_points
    blocks = set(art.system.triples)
    for k in range(len(b) - 3):
        t = tuple(sorted((b[k], b[k + 1], b[k + 3])))
        assert t in blocks


def test_section4_sizes_scale_with_n():
    art = section4_partial(5)
    # 3^(n-1) affine points minus overlaps, plus fresh chain points
    assert art.system.order > 3 ** 4 - 20
    assert len(art.base_points) == 5
    assert art.system.kind is SystemKind.PARTIAL
