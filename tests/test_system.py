"""Triple-system container, validation, and the text format."""

import gc
import pickle
import random
import tracemalloc
from array import array

import pytest

import stspread.system as system_module
from stspread.lineparse import _parse_lines
from stspread import (
    BadOrderError,
    BudgetExhaustedError,
    DuplicatePairError,
    NotSteinerError,
    OutOfRangeError,
    ParseError,
    SamePointError,
    StsError,
    SystemKind,
    TooLargeError,
    TripleSystem,
    ag3,
    build_system,
    closure_points,
    complete_partial,
    config,
    enumerate_closed_sets,
    enumerate_minimal_spreading_sets,
    greedy_spreading_set,
    induced_subsystem,
    min_saturating_size,
    min_spreading_size,
    parse,
    parse_labels,
    perturbed_pg,
    pg2,
    random_sts,
    section4_partial,
    serialize,
    serialize_labels,
    steiner_admissible,
    with_labels,
)
from stspread.cli import main
from stspread.closure import _coordinates
from stspread.writer import _serialize_pieces

from oracles import (
    block_serialize,
    line_serialize,
    pair_square,
    scalar_parse,
    scalar_triple_system,
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


def test_constructor_verifies_a_kind_given_as_a_string():
    # build_system is the constructor, so a string kind is checked as its
    # SystemKind is
    assert build_system is TripleSystem
    with pytest.raises(NotSteinerError):
        TripleSystem(7, FANO[:6], "steiner")
    with pytest.raises(BadOrderError):
        TripleSystem(8, (), "steiner")
    with pytest.raises(BadOrderError, match="unknown system kind 'affine'"):
        TripleSystem(7, FANO, "affine")
    ts = TripleSystem(7, FANO, "steiner")
    assert ts.kind is SystemKind.STEINER
    assert serialize(ts).startswith("v 7 steiner\n")


def test_kind_is_read_off_the_block_count():
    assert "kind" not in TripleSystem.__slots__
    for order, blocks in ((1, ()), (2, ()), (3, FANO[:1]), (7, FANO), (7, FANO[:6]),
                          (9, ()), (15, pg2(3).triples)):
        ts = TripleSystem(order, blocks)
        steiner = 6 * len(blocks) == order * (order - 1)
        assert ts.kind is (SystemKind.STEINER if steiner else SystemKind.PARTIAL)
        assert ts.is_steiner() is steiner
    with pytest.raises(AttributeError):
        ts.kind = SystemKind.PARTIAL


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
    with pytest.raises(OutOfRangeError, match="at least one point"):
        induced_subsystem(ts, [])


def test_induced_subsystem_keeps_the_blocks_inside():
    rng = random.Random(0)
    for ts in (pg2(4), random_sts(31, 1), section4_partial(4).system):
        for size in (3, 7, 15, ts.order // 2, ts.order):
            points = rng.sample(range(ts.order), size)
            sub, kept = induced_subsystem(ts, points)
            rank = {p: i for i, p in enumerate(kept)}
            want = [tuple(rank[p] for p in t) for t in ts.triples if set(t) <= set(kept)]
            assert sub.triples == tuple(want) and sub.order == len(kept) == size


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


@pytest.mark.parametrize("text, message", [
    ("l 1\n", "line 1: label line must be 'l <index> <vector>'"),
    ("l x 101\n", "line 1: bad label line"),
    ("l 0 11\nl -1 11\n", "line 2: bad label line"),
    ("l +1 11\n", "line 1: bad label line"),
    ("l 0 \u0661\u0660\n", "line 1: bad label line"),  # Arabic-Indic digits 1, 0
    ("l \u0661 10\n", "line 1: bad label line"),
    ("# c\nl 0 1x\n", "line 2: bad label line"),
])
def test_parse_labels_rejects_a_bad_line(text, message):
    with pytest.raises(ParseError, match=message):
        parse_labels(text)


def test_with_labels_refuses_a_point_outside_the_order():
    fano = pg2(2)
    with pytest.raises(OutOfRangeError, match=r"label of point 7 outside \[0, 7\)"):
        with_labels(fano, {0: (1, 0, 0), 7: (1, 1, 1)})
    with pytest.raises(OutOfRangeError, match="label of point 99"):
        with_labels(fano, parse_labels("l 99 101\n"))
    labelled = with_labels(fano, parse_labels("l 6 111\n"))
    assert labelled.tag.labels == (None,) * 6 + ((1, 1, 1),)
    assert labelled == fano


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


def _serialize_cases():
    yield "empty partial", build_system(5, (), "partial")
    yield "tagged fano", pg2(2)
    for v in (7, 9, 13, 15, 19):
        for seed in (0, 1):
            yield "random_sts(%d, %d)" % (v, seed), random_sts(v, seed)
    yield "perturbed_pg(5, 0)", perturbed_pg(5, 0)
    yield "section4_partial(4)", section4_partial(4).system


@pytest.mark.parametrize("chunk", [1, 2, 7, 8, 1 << 14])
def test_serialize_matches_line_join(monkeypatch, chunk):
    # chunk is the characters per chunk that parse reads the text back in
    monkeypatch.setattr(system_module, "_CHUNK", chunk)
    for name, ts in _serialize_cases():
        text = serialize(ts)
        assert text == line_serialize(ts), name
        back = parse(text)
        # the text holds the tag but not its labels, which go to a sidecar file
        assert (back, back.tag[:3]) == (ts, ts.tag[:3]), name


def test_serialize_pg8_gives_one_piece_per_table_row():
    ts = pg2(8)
    head, *rows = _serialize_pieces(ts)
    assert head == "v 511 steiner\n# tag pg2 8\n"
    firsts = sorted({a for a, _, _ in ts.triples})  # the rows that hold a block
    assert len(rows) == len(firsts) == 255
    for a, piece in zip(firsts, rows):
        assert {line.split()[1] for line in piece.splitlines()} == {str(a)}
    assert "".join(rows) == line_serialize(ts)[len(head):]


def _thinned(ts, rng, keep):
    """The partial system of ts's blocks each kept with probability keep,
    with ts's tag."""
    blocks = [t for t in ts.triples if rng.random() < keep]
    return TripleSystem(ts.order, blocks, "partial", ts.tag)


def test_serialize_matches_the_block_oracle():
    rng = random.Random(33)
    systems = [build_system(1, (), "steiner"), build_system(3, [(0, 1, 2)], "steiner"),
               build_system(3, (), "partial"), pg2(2), ag3(2), build_system(7, FANO)]
    for v in (7, 9, 13, 15, 19, 21, 31):
        systems.append(random_sts(v, rng.randrange(100)))
    systems += [perturbed_pg(4, 1), section4_partial(4).system]
    systems.append(complete_partial(pg2(2), 15, seed=0).system)
    for ts in list(systems):
        for keep in (0.0, 0.3, 0.7, 0.95):
            systems.append(_thinned(ts, rng, keep))
    tags = {ts.tag.variant for ts in systems}
    assert {"plain", "pg2", "ag3", "random", "perturbed_pg", "section4", "completed"} <= tags
    for ts in systems:
        assert serialize(ts) == block_serialize(ts), ts


def _no_tuples(third):
    raise AssertionError("block tuples built")


def test_large_paths_never_build_triples(monkeypatch):
    monkeypatch.setattr(system_module, "_blocks_of", _no_tuples)
    ts = pg2(9)
    text = serialize(ts)
    back = parse(text)
    assert back == ts and hash(back) == hash(ts) and back.block_count == 174251
    assert closure_points(back, [0, 1, 3]) == frozenset(range(7))
    assert greedy_spreading_set(back).size == 10
    assert len(set(_coordinates(back))) == 1023
    assert induced_subsystem(back, range(15))[0].is_steiner()
    labelled = with_labels(back, parse_labels(serialize_labels(ts)))
    assert labelled._third is back._third
    assert pickle.loads(pickle.dumps(labelled)) == ts
    assert repr(ts) == "TripleSystem(order=1023, blocks=174251, kind=steiner, tag=pg2)"


def _table_blocks(ts):
    third = pair_square(ts)
    return tuple(sorted({tuple(sorted((x, y, third[x][y])))
                         for x in range(ts.order) for y in range(ts.order)
                         if x != y and third[x][y] != -1}))


def test_searches_read_the_blocks_once_and_keep_none(monkeypatch):
    r15, pg3, fano = random_sts(15, 0), pg2(3), pg2(2)

    def failed_completion():
        with pytest.raises(BudgetExhaustedError):
            complete_partial(fano, 15, seed=0, restarts=3, moves_per_restart=1)

    # (system, search, times it reads the blocks)
    searches = [
        (r15, lambda: min_saturating_size(r15), 0),  # the pair table only
        (r15, lambda: enumerate_minimal_spreading_sets(r15), 1),
        (r15, lambda: min_spreading_size(r15), 1),  # not projective: the lattice walk
        (pg3, lambda: enumerate_closed_sets(pg3, 1), 1),  # fewer than its subspaces: the walk
        (fano, lambda: complete_partial(fano, 15, seed=0), 0),  # a copy of the table
        (fano, failed_completion, 0),
    ]
    reads = []
    blocks_of = system_module._blocks_of
    monkeypatch.setattr(system_module, "_blocks_of",
                        lambda third: reads.append(len(third)) or blocks_of(third))
    for ts, search, times in searches:
        reads.clear()
        search()
        assert reads == [ts.order] * times
        assert not any(isinstance(r, tuple) and len(r) == ts.block_count
                       for r in gc.get_referents(ts))
        assert ts.triples == _table_blocks(ts)
    reads.clear()
    section4_partial(4)
    assert reads == [27]  # the blocks of AG(3,3), once


def test_parse_peak_memory_stays_near_the_text_size():
    text = serialize(pg2(9))
    tracemalloc.start()
    try:
        ts = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.block_count == 174251
    assert peak <= 4 * len(text)


def test_serialize_peak_memory_stays_near_the_text_size():
    ts = pg2(8)
    tracemalloc.start()
    try:
        text = serialize(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


# -- parse: the chunked fast path against the line loop -------------------------

FANO_TEXT = "v 7 steiner\n" + "".join("b %d %d %d\n" % t for t in FANO)
TAGGED = serialize(pg2(2))  # "v 7 steiner", "# tag pg2 2", seven blocks


def _edit(text, lineno, new):
    """text with 1-based line lineno replaced by new (None deletes it)."""
    lines = text.split("\n")
    lines[lineno - 1:lineno] = [] if new is None else [new]
    return "\n".join(lines)


# one file for each ParseError the line loop raises
MALFORMED = [
    "v 7 partial\nv 7 partial\n",
    "v 7\n",
    "v seven partial\n",
    "v 7 bogus\n",
    "b 0 1 2\nv 7 partial\n",
    "v 7 partial\nb 0 1\n",
    "v 7 partial\nb 0 1 two\n",
    "v 7 partial\nb 0 1 1\n",
    "v 7 partial\nb 0 1 7\n",
    "v 7 partial\nb 0 1 -1\n",
    "v 7 partial\nx 0 1 2\n",
    "# no header\n",
    "",
    "v 7 partial\nb 0 1 2\nb 0 1 3\n",
    "v 7 steiner\nb 0 1 2\n",
    "v 8 steiner\n",
    "v 0 partial\n",
    "v %s partial\n" % ("9" * 5000),
    "v 99999999999 partial\nb 0 1 x\n",
]

# inputs at the edge of what the fast path accepts
EDGES = [
    FANO_TEXT,
    TAGGED,
    FANO_TEXT.replace("\n", "\r\n"),
    _edit(FANO_TEXT, 4, "\nb 0 5 6"),
    _edit(FANO_TEXT, 3, "b 0 3 4 "),
    _edit(FANO_TEXT, 4, "# a comment\nb 0 5 6"),
    _edit(TAGGED, 3, "# tag ag3 2\n" + TAGGED.split("\n")[2]),
    _edit(FANO_TEXT, 4, "# tag ag3 2\nb 0 5 6"),
    _edit(TAGGED, 2, "# tag pg2 x"),
    _edit(TAGGED, 2, "# tag pg2 2 seed=\u0663"),
    _edit(FANO_TEXT, 2, "b 0 1 +2"),
    _edit(FANO_TEXT, 2, "b 0 1 002"),
    _edit(FANO_TEXT, 2, "b 0 1 \u0662"),
    _edit(FANO_TEXT, 2, "b 0 1 7"),
    _edit(FANO_TEXT, 2, "b 0 1 1"),
    _edit(FANO_TEXT, 2, "b 2 1 0"),
    _edit(_edit(FANO_TEXT, 2, "b 2 4 5"), 8, "b 0 1 2"),
    _edit(FANO_TEXT, 4, "b 0 3 4\nb 0 5 6"),
    _edit(FANO_TEXT, 4, "b 0 3 5"),
    _edit(FANO_TEXT, 8, None),
    "v 7 steiner\n",
    "v 7 partial\n",
    "v 7 partial\n# tag random - seed=3\n",
    _edit(FANO_TEXT, 2, "b 0 1\x0c2"),
    _edit(FANO_TEXT, 2, "b 0 1\t2"),
    _edit(FANO_TEXT, 2, "b 0 1\x852"),
    _edit(FANO_TEXT, 2, " b 0 1 2"),
    _edit(FANO_TEXT, 2, "b  0 1 2"),
    _edit(FANO_TEXT, 2, "b 0 1 2 b"),
    _edit(FANO_TEXT, 2, "b 0 1 2 b\n3 4 5"),
    _edit(FANO_TEXT, 2, "b 1 1 2"),
    _edit(FANO_TEXT, 2, "b 1 0 2"),
    _edit(FANO_TEXT, 2, "b0 1 2"),
    _edit(FANO_TEXT, 2, "b0 1 2 3"),
    _edit(FANO_TEXT, 2, "b 0 1 2 3"),
    FANO_TEXT.rstrip("\n"),
    FANO_TEXT.replace("v 7", "v  7"),
    FANO_TEXT.replace("v 7", "v 07"),
    "\ufeff" + FANO_TEXT,
]


def _outcome(read, text):
    try:
        ts = read(text)
    except ParseError as exc:
        return "ParseError", str(exc)
    return ts.order, ts.triples, ts.kind, ts.tag


@pytest.mark.parametrize("chunk", [1 << 20, 9, 40])
def test_parse_matches_line_loop(monkeypatch, chunk):
    monkeypatch.setattr(system_module, "_CHUNK", chunk)
    for text in MALFORMED + EDGES:
        assert _outcome(parse, text) == _outcome(scalar_parse, text), repr(text)


def test_parse_errors_name_each_branch():
    messages = [_outcome(parse, text)[1] for text in MALFORMED]
    assert messages[-2].startswith("line 1: bad order")
    assert messages[-1] == "line 2: non-integer point index"
    assert messages[:12] == [
        "line 2: repeated header",
        "line 1: header must be 'v <order> <kind>'",
        "line 1: bad order 'seven'",
        "line 1: kind must be 'steiner' or 'partial', got 'bogus'",
        "line 1: block before header",
        "line 2: block must be 'b <i> <j> <k>'",
        "line 2: non-integer point index",
        "line 2: repeated index in block",
        "line 2: point outside [0, 7)",
        "line 2: point outside [0, 7)",
        "line 2: unknown record 'x'",
        "line 0: missing 'v <order> <kind>' header",
    ]
    assert all(m.startswith("invalid system: ") for m in messages[13:-2])


def _fast(text, cap):
    """What _parse_fast builds from text in the slices that parse feeds it."""
    return system_module._parse_fast(system_module._text_chunks(text), len(text), cap)


def test_parse_fast_path_takes_serialized_systems():
    corpus = [pg2(4), ag3(3), perturbed_pg(4, 0), random_sts(31, 1),
              section4_partial(4).system, build_system(9, (), "partial")]
    for ts in corpus:
        text = serialize(ts)
        assert _fast(text, config.MAX_CONSTRUCTION_ORDER) is not None
        back = parse(text)
        assert _outcome(parse, text) == _outcome(scalar_parse, text)
        assert back == ts and back.tag.variant == ts.tag.variant
        assert back._third == ts._third


def _built_by(build, *args):
    """The system build(*args) returns, as its order, blocks, kind, tag,
    block count and table, or the name and message of the error it raises;
    None when it returns None."""
    try:
        ts = build(*args)
    except StsError as exc:
        return type(exc).__name__, str(exc)
    if ts is None:
        return None
    return ts.order, ts.triples, ts.kind, ts.tag, ts.block_count, [list(r) for r in ts._third]


def _line_built(text):
    return TripleSystem(*_parse_lines(text))


@pytest.mark.parametrize("chunk", [1 << 20, 9, 40])
def test_parse_fast_path_accepts_only_what_the_loop_reads_alike(monkeypatch, chunk):
    monkeypatch.setattr(system_module, "_CHUNK", chunk)
    cap = config.MAX_CONSTRUCTION_ORDER
    for text in MALFORMED + EDGES:
        fast = _built_by(_fast, text, cap)
        if fast is None:
            continue
        assert fast == _built_by(_line_built, text), repr(text)
    # the checks of the table come in the constructor's order
    assert _built_by(_fast, "v 8 steiner\n", cap) == (
        "BadOrderError",
        "no Steiner triple system of order 8 exists (order mod 6 must be 1 or 3)")
    assert _built_by(_fast, "v 7 steiner\nb 0 1 2\n", cap) == (
        "NotSteinerError", "some pair is not covered by any block")
    # indices the loop reads as 2, and lines it splits elsewhere, fall back
    for line in ("b 0 1 +2", "b 0 1 002", "b 0 1 \u0662", "b 0 1\x0c2", "b 0 1\t2"):
        assert _fast(_edit(FANO_TEXT, 2, line), cap) is None
    # so do blocks that share a pair, or repeat, for the loop to name the pair
    for line in ("b 0 3 5", "b 0 3 4"):
        assert _fast(_edit(FANO_TEXT, 4, line), cap) is None
    # an order above the text length builds no index table, one above the
    # cap no pair table
    assert _fast("v 100 partial\nb 0 1 2\n", cap) is None
    assert _fast(FANO_TEXT, 6) is None
    assert _fast(FANO_TEXT, 7) is not None


def _parse_path(path):
    """The system the file reader reads from the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return system_module._parse_file(fh)


def _no_table(order):
    raise AssertionError("pair table of order %d allocated" % order)


def test_parse_refuses_an_order_above_the_cap_before_any_table(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    monkeypatch.setattr(system_module, "_empty_pair_table", _no_table)
    monkeypatch.setattr(system_module, "_CHUNK", 7)
    path = tmp_path / "huge.txt"
    for text in ("v 100000 partial\n", "v 2048 partial\n" + "b 0 1 2\n" * 2048):
        path.write_text(text)
        order = int(text.split()[1])
        for read, source in ((parse, text), (_parse_path, path)):
            with pytest.raises(TooLargeError) as exc:
                read(source)
            assert str(exc.value) == "system of order %d above the cap 2047" % order
    # a malformed line still names its line number first
    with pytest.raises(ParseError, match="line 2: non-integer point index"):
        parse("v 100000 partial\nb 0 1 x\n")
    monkeypatch.setenv("STS_MAX_ORDER", "5")
    with pytest.raises(TooLargeError, match="system of order 7 above the cap 5"):
        parse(FANO_TEXT)

    path.write_text("v 100000 partial\n")
    monkeypatch.delenv("STS_MAX_ORDER")
    assert main(["analyze", "--system", str(path), "closure", "--set", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: system of order 100000 above the cap 2047\n"


def test_malformed_tag_comment_is_an_ordinary_comment():
    ts = parse(_edit(TAGGED, 2, "# tag pg2 x"))
    assert ts.tag.variant == "plain"
    assert ts == parse(FANO_TEXT)


def test_completed_tag_round_trips():
    ts = complete_partial(section4_partial(4).system, 61, seed=0).system
    text = serialize(ts)
    assert text.split("\n")[1] == "# tag completed - seed=0"
    back = parse(text)
    assert back.tag == ts.tag == system_module.GeometryTag("completed", None, 0)
    assert serialize(back) == text


# -- the file reader: parse of a file's text, one piece of it at a time --------


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
def test_file_reader_matches_parse_across_chunk_boundaries(monkeypatch, tmp_path, chunk):
    monkeypatch.setattr(system_module, "_CHUNK", chunk)
    path = tmp_path / "s.txt"
    cases = [serialize(pg2(d)) for d in (2, 3, 4, 5)] + [
        serialize(perturbed_pg(4, 0)),
        serialize(random_sts(31, 1)),
        serialize(section4_partial(4).system),
        _edit(TAGGED, 2, "# tag random 3 seed=7"),
        serialize(pg2(4)).replace("\n", "\r\n"),
    ]
    for text in cases + MALFORMED + EDGES:
        path.write_bytes(text.encode())
        want = _outcome(parse, path.read_text())
        assert _outcome(_parse_path, path) == want, repr(text[:80])
        if want[0] != "ParseError":
            assert _parse_path(path)._third == parse(path.read_text())._third
    # a bad line, a shared pair and a repeated block in the last chunk
    pg4 = serialize(pg2(4))
    last = pg4.count("\n")
    for text, want in (
        (_edit(pg4, last, "b 0 1 x"), ("ParseError", "line %d: non-integer point index" % last)),
        (_edit(pg4, last, "b 0 1 30"),
         ("ParseError", "invalid system: pair (0, 1) lies in two blocks")),
        (pg4 + pg4.split("\n")[2] + "\n", _outcome(parse, pg4)),  # the copy collapses
    ):
        path.write_text(text)
        assert _outcome(_parse_path, path) == want == _outcome(parse, text)


# -- TripleSystem from blocks in any form against the direct route ------------


def _built(order, triples, kind):
    try:
        ts = TripleSystem(order, triples, kind)
    except (DuplicatePairError, NotSteinerError, SamePointError, OutOfRangeError) as exc:
        return type(exc).__name__, str(exc)
    return ts.triples, ts.kind, pair_square(ts)


def _direct(order, triples, kind):
    try:
        return scalar_triple_system(order, triples, kind)
    except (DuplicatePairError, NotSteinerError, SamePointError, OutOfRangeError) as exc:
        return type(exc).__name__, str(exc)


def _shapes(blocks):
    """The same blocks as a list, a tuple, a generator and unsorted."""
    yield list(blocks)
    yield tuple(blocks)
    yield (b for b in blocks)
    yield [tuple(reversed(b)) for b in reversed(blocks)]


@pytest.mark.parametrize("kind", [SystemKind.PARTIAL, SystemKind.STEINER])
def test_triple_system_matches_direct_route(kind):
    sts15 = sorted(pg2(3).triples)
    cases = [
        (7, FANO),
        (7, FANO[:-1]),
        (7, FANO + ((0, 1, 2),)),
        (7, FANO + ((0, 1, 3),)),
        (7, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (1, 4, 5))),
        (7, ((0, 2, 4), (2, 4, 6))),
        (7, ((0, 2, 5), (1, 3, 5), (2, 3, 5))),
        (7, ((0, 4, 5), (3, 4, 5))),
        (7, ((0, 1, 2), (3, 4))),
        (7, ((0, 1, 2, 3),)),
        (15, sts15),
        (15, sts15[:50] + [(3, 9, 14)] + sts15[50:]),
        (15, sts15[:-1] + [(0, 1, 2)]),
        (7, ((0, 1, 7),)),
        (7, ((0, 1, 1),)),
        (3, ((0, 1, 2),)),
        (1, ()),
        (2, ()),
    ]
    for order, blocks in cases:
        for shape, twin in zip(_shapes(list(blocks)), _shapes(list(blocks))):
            assert _built(order, shape, kind) == _direct(order, twin, kind), (order, blocks)


def test_complete_partial_input_upgrades_to_steiner():
    ts = TripleSystem(15, list(pg2(3).triples), SystemKind.PARTIAL)
    assert ts.kind is SystemKind.STEINER
    assert build_system(7, tuple(sorted(FANO)), "partial").is_steiner()


# -- the pair table: array rows, the shared-pair count and its replay -----------


def test_pair_table_rows_are_two_byte_arrays():
    # row x holds the pairs (x, y) with y < x, one cell each
    for ts in (build_system(1, (), "partial"), build_system(7, FANO, "steiner"),
               pg2(8), section4_partial(4).system):
        assert len(ts._third) == ts.order
        assert all(type(r) is array and r.itemsize == 2 and len(r) == x
                   for x, r in enumerate(ts._third))


@pytest.mark.parametrize("d", [7, 8])
def test_late_shared_pair_names_the_pair_of_the_checked_loop(d):
    order, blocks = 2 ** (d + 1) - 1, list(pg2(d).triples)
    a, b, c = blocks[10 ** 4]
    assert c + 1 < order
    clash = (a, b, c + 1)  # sorts right after the block of {a, b}
    canonical = blocks[:10 ** 4 + 1] + [clash] + blocks[10 ** 4 + 1:]
    for kind in (SystemKind.PARTIAL, SystemKind.STEINER):
        for given in (canonical, [tuple(reversed(t)) for t in blocks] + [clash]):
            got = _built(order, given, kind)
            assert got == _direct(order, list(given), kind)
            assert got == ("DuplicatePairError", "pair (%d, %d) lies in two blocks" % (a, b))


def test_partial_system_keeps_minus_one_at_uncovered_pairs():
    blocks = pg2(8).triples
    kept = [t for i, t in enumerate(blocks) if i % 7]
    ts = TripleSystem(511, kept)
    _, kind, third = scalar_triple_system(511, kept, SystemKind.PARTIAL)
    assert ts.kind is kind is SystemKind.PARTIAL
    assert pair_square(ts) == third
    for a, b, c in blocks[::7]:
        assert ts._third[b][a] == ts._third[c][a] == ts._third[c][b] == -1
        assert ts.third_point(a, b) is ts.third_point(b, a) is None


@pytest.mark.parametrize("extra", [(2, 5, 8), (2, 7, 8), (5, 7, 8), (1, 2, 5), (1, 2, 7), (1, 5, 7)])
def test_a_second_block_on_any_cell_is_a_shared_pair(extra):
    # the block (2, 5, 7) has the cells [5][2], [7][2] and [7][5]; extra
    # shares exactly one of them, and sorts after the block or before it
    blocks = [(0, 3, 6), (2, 5, 7), extra]
    message = "pair (%d, %d) lies in two blocks" % tuple(sorted({2, 5, 7} & set(extra)))
    table = system_module._empty_pair_table(9)
    system_module._fill(table, sorted(blocks))
    assert system_module._entries(table) == 3 * len(blocks) - 1
    with pytest.raises(DuplicatePairError, match="^two of the 3 blocks share a pair$"):
        TripleSystem._of_table(9, table, 3, SystemKind.PARTIAL, system_module.PLAIN_TAG)
    assert _built(9, blocks, SystemKind.PARTIAL) == ("DuplicatePairError", message)
    assert _direct(9, blocks, SystemKind.PARTIAL) == ("DuplicatePairError", message)
    text = "v 9 partial\n" + "".join("b %d %d %d\n" % t for t in sorted(blocks))
    assert _fast(text, config.MAX_CONSTRUCTION_ORDER) is None
    assert _outcome(parse, text) == _outcome(scalar_parse, text) == (
        "ParseError", "invalid system: " + message)


def test_pickle_round_trip_keeps_the_table():
    for ts in (pg2(4), section4_partial(4).system):
        back = pickle.loads(pickle.dumps(ts))
        assert back == ts and back._third == ts._third
        assert (back.kind, back.tag, back.block_count) == (ts.kind, ts.tag, ts.block_count)
