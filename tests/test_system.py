"""Triple-system container, validation, and the text format."""

import pytest

from stspread import (
    BadOrderError,
    DuplicatePairError,
    NotSteinerError,
    OutOfRangeError,
    ParseError,
    SamePointError,
    SystemKind,
    TripleSystem,
    build_system,
    induced_subsystem,
    parse,
    parse_labels,
    pg2,
    serialize,
    serialize_labels,
    steiner_admissible,
    with_labels,
)

FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))


def test_admissible_orders():
    admissible = [n for n in range(1, 30) if steiner_admissible(n)]
    assert admissible == [1, 3, 7, 9, 13, 15, 19, 21, 25, 27]


def test_build_fano_is_steiner():
    ts = build_system(7, FANO, "steiner")
    assert ts.kind is SystemKind.STEINER
    assert ts.order == 7
    assert len(ts.triples) == 7
    assert ts.is_steiner()


def test_triples_are_canonicalized():
    ts = build_system(7, [(2, 1, 0), (4, 3, 0), (6, 5, 0), (5, 3, 1),
                          (6, 4, 1), (6, 3, 2), (5, 4, 2)], "steiner")
    assert ts.triples == tuple(sorted(FANO))


def test_partial_upgrades_to_steiner_when_total():
    ts = build_system(7, FANO, "partial")
    assert ts.kind is SystemKind.STEINER


def test_partial_stays_partial_when_pairs_uncovered():
    ts = build_system(7, FANO[:-1], "partial")
    assert ts.kind is SystemKind.PARTIAL
    assert not ts.is_steiner()


def test_third_point_lookup():
    ts = build_system(7, FANO, "steiner")
    assert ts.third_point(0, 1) == 2
    assert ts.third_point(4, 2) == 5
    partial = build_system(7, FANO[:1], "partial")
    assert partial.third_point(3, 4) is None


def test_block_through():
    ts = build_system(7, FANO, "steiner")
    assert ts.block_through(6, 1) == (1, 4, 6)


def test_rejects_bad_order():
    with pytest.raises(BadOrderError):
        build_system(0, (), "partial")
    with pytest.raises(BadOrderError):
        build_system(8, (), "steiner")


def test_rejects_out_of_range_points():
    with pytest.raises(OutOfRangeError):
        build_system(7, ((0, 1, 7),), "partial")
    with pytest.raises(OutOfRangeError):
        build_system(7, ((-1, 1, 2),), "partial")


def test_rejects_repeated_point_in_block():
    with pytest.raises(SamePointError):
        build_system(7, ((1, 1, 2),), "partial")


def test_rejects_pair_in_two_blocks():
    with pytest.raises(DuplicatePairError):
        build_system(7, ((0, 1, 2), (0, 1, 3)), "partial")


def test_rejects_non_steiner_when_declared():
    with pytest.raises(NotSteinerError):
        build_system(7, FANO[:-1], "steiner")


def test_immutability():
    ts = build_system(7, FANO, "steiner")
    with pytest.raises(AttributeError):
        ts.order = 9


def test_equality_and_hash():
    a = build_system(7, FANO, "steiner")
    b = build_system(7, tuple(reversed(FANO)), "steiner")
    assert a == b
    assert hash(a) == hash(b)


def test_induced_subsystem():
    ts = pg2(3)
    sub, kept = induced_subsystem(ts, [0, 1, 2, 3, 4, 5, 6])
    assert sub.order == 7
    assert sub.is_steiner()
    assert kept == (0, 1, 2, 3, 4, 5, 6)
    assert len(sub.triples) == 7


def test_induced_subsystem_relabels():
    ts = pg2(3)
    sub, kept = induced_subsystem(ts, [14, 2, 7])
    assert sub.order == 3
    assert kept == (2, 7, 14)


def test_serialize_parse_round_trip():
    ts = pg2(3)
    text = serialize(ts)
    back = parse(text)
    assert back == ts
    assert back.tag.variant == "pg2"
    assert back.tag.param == 3


def test_serialize_parse_partial_round_trip():
    ts = build_system(9, ((0, 1, 2), (3, 4, 5)), "partial")
    back = parse(serialize(ts))
    assert back == ts
    assert back.kind is SystemKind.PARTIAL


def test_label_sidecar_round_trip():
    ts = pg2(2)
    sidecar = serialize_labels(ts)
    assert sidecar is not None
    labels = parse_labels(sidecar)
    relabeled = with_labels(parse(serialize(ts)), labels)
    assert relabeled.tag.labels == ts.tag.labels
    assert relabeled.tag.label_of(3) == ts.tag.label_of(3)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse("not a header\n")
    with pytest.raises(ParseError):
        parse("v 7 steiner\nb 0 1\n")
    with pytest.raises(ParseError):
        parse("v 7 bogus\n")
    with pytest.raises(ParseError):
        parse("v 7 steiner\nb 0 1 two\n")


def test_parse_reports_line_numbers():
    try:
        parse("v 7 partial\nb 0 1 2\nb 0 x 3\n")
    except ParseError as exc:
        assert "3" in str(exc)
    else:
        raise AssertionError("expected ParseError")


def test_serialize_is_sorted_and_lf_terminated():
    ts = build_system(7, FANO, "steiner")
    text = serialize(ts)
    lines = text.split("\n")
    assert lines[0] == "v 7 steiner"
    body = [ln for ln in lines if ln.startswith("b ")]
    assert body == sorted(body)
    assert text.endswith("\n")
    assert "\r" not in text
