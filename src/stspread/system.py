"""Core types for (partial) Steiner triple systems.

A triple system here is a finite point set {0, ..., order-1} together with a
collection of 3-element blocks in which any two blocks share at most one
point (pairwise linearity).  When every pair of points lies in exactly one
block the system is a Steiner triple system; such systems exist precisely for
orders congruent to 1 or 3 mod 6 (orders 1 and 3 are degenerate but legal).

The module also fixes the one-line-per-block text interchange format used by
the command line tools:

    v <order> <steiner|partial>
    # optional comment lines
    b <i> <j> <k>

with 0-based point indices, UTF-8 text and LF line endings.  Serialization is
canonical: each triple is sorted ascending and triples are emitted in
lexicographic order, so equal systems produce byte-identical files.
Coordinate labels attached by the geometric constructions travel in a sidecar
file of "l <index> <vector>" lines rather than in the main format.

This module holds the reader's fast path.  The write path (serialize,
serialize_labels) lives in writer.py and the line-by-line reader in
lineparse.py, which load on first use, so a run that only reads a system in
the form serialize writes compiles neither.
"""

from __future__ import annotations

import enum
import os
import re
from array import array
from operator import itemgetter, lt
from typing import Iterable, NamedTuple, Optional, Sequence

from . import _served, config
from .errors import (
    BadOrderError,
    DuplicatePairError,
    NotSteinerError,
    OutOfRangeError,
    ParseError,
    SamePointError,
    TooLargeError,
)

# A point set is just a frozenset of point indices.
PointSet = frozenset


class SystemKind(enum.Enum):
    PARTIAL = "partial"
    STEINER = "steiner"


class GeometryTag(NamedTuple):
    """Construction provenance carried by a TripleSystem.

    variant is one of "plain", "pg2", "ag3", "perturbed_pg", "section4",
    "random" or "completed" (a hill-climbing completion, complete_partial);
    param holds the dimension d (pg2, ag3, perturbed_pg) or the
    parameter n (section4); seed records the RNG seed for randomized
    constructions.  labels, when present, maps each point index to its
    coordinate vector (a tuple of small ints), with None entries for points
    that have no geometric meaning.
    """

    variant: str = "plain"
    param: Optional[int] = None
    seed: Optional[int] = None
    labels: Optional[tuple] = None

    def label_of(self, point: int):
        if self.labels is None:
            return None
        return self.labels[point]


PLAIN_TAG = GeometryTag()


def steiner_admissible(order: int) -> bool:
    """True when a Steiner triple system of this order exists."""
    if order < 1:
        return False
    if order <= 3:
        return order in (1, 3)
    return order % 6 in (1, 3)


def _canonical_triples(triples: Iterable[Sequence[int]], order: int):
    """The distinct blocks as sorted 3-tuples in lexicographic order.  The
    list keeps them in the order given, so sorting blocks that came sorted
    is one linear pass (a sorted set of them took 3x as long on PG(10,2))."""
    seen = set()
    out = []
    for t in triples:
        if len(t) != 3:
            raise SamePointError("block %r does not have three distinct points" % (t,))
        a, b, c = sorted(t)
        if a == b or b == c:
            raise SamePointError("block %r repeats a point" % (t,))
        if a < 0 or c >= order:
            raise OutOfRangeError("block %r is outside [0, %d)" % (t, order))
        key = (a, b, c)
        if key in seen:
            continue
        seen.add(key)
        out.append(key)
    out.sort()
    return tuple(out)


def _typecode(order):
    """The array typecode of a pair table row: 2-byte ints below order 2^15,
    machine longs above."""
    return "h" if order < 1 << 15 else "l"


def _empty_pair_table(order):
    """The pair table with no block: row x is an array of x entries -1, one
    for each y < x."""
    row = array(_typecode(order), [-1]) * order
    return [row[:x] for x in range(order)]


def _blocks_of(third):
    """The blocks (a, b, c) of a pair table, a < b < c = third[b][a], in
    lexicographic order: those with least point a come from column a."""
    return [(a, b, c) for a in range(len(third))
            for b, c in enumerate(map(itemgetter(a), third[a + 1:]), a + 1) if c > b]


def _fill(third, triples):
    """Store the three entries of each block a < b < c, one per pair, with no
    test per pair."""
    for a, b, c in triples:
        tc = third[c]
        third[b][a] = c
        tc[a] = b
        tc[b] = a


def _entries(third):
    """The number of entries other than -1 in a pair table."""
    # -1 is the only entry whose most significant byte is 0xff, so each run
    # of 0xff bytes is whole -1 entries plus fewer than itemsize bytes of a
    # neighbour, and its itemsize-byte pieces count its -1 entries
    empty = b"\xff" * third[0].itemsize
    n = len(third)
    return n * (n - 1) // 2 - sum(r.tobytes().count(empty) for r in third)


def _shared_pair(order, triples):
    """The DuplicatePairError of canonical triples that share a pair: the
    pairs (a,b), (a,c), (b,c) of each block are checked in turn, so the
    error names the first shared pair."""
    third = _empty_pair_table(order)
    for a, b, c in triples:
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if third[y][x] != -1:
                return DuplicatePairError("pair (%d, %d) lies in two blocks" % (x, y))
            third[y][x] = z
    raise AssertionError("unreachable: the count found a shared pair")


def _check_order(order, kind):
    """The kind as a SystemKind, given as one or as "partial" / "steiner",
    once the order is a positive integer that admits it."""
    try:
        kind = SystemKind(kind)
    except ValueError:
        raise BadOrderError("unknown system kind %r" % (kind,)) from None
    if not isinstance(order, int) or order < 1:
        raise BadOrderError("order must be a positive integer, got %r" % (order,))
    # order 2 is left to the coverage check, which raises NotSteinerError
    if kind is SystemKind.STEINER and order > 3 and not steiner_admissible(order):
        raise BadOrderError(
            "no Steiner triple system of order %d exists (order mod 6 must be 1 or 3)"
            % order
        )
    return kind


class TripleSystem:
    """An immutable, validated (partial) Steiner triple system.

    TripleSystem(order, triples, kind, tag), also named build_system, builds
    one from blocks in any order and form; kind is a SystemKind or the
    string "partial" or "steiner", verified, never trusted.  Duplicate
    triples collapse silently.  The kind a system reports is read off its
    block count: Steiner exactly when every pair is covered.  Attributes
    must not be mutated after construction.

    The pair table _third is the only store of the blocks, kept below the
    diagonal: for y < x, third[x][y] = z when {x,y,z} is a block, else -1.
    Row x is an array of x entries, 2 bytes each below order 2^15, so each
    pair has one cell (4.2 MB at PG(10,2)); third_point reads either order.
    The state of a system is the table plus order, tag and block_count, the
    number of blocks.

    Every table goes through the same checks, in this order: the kind and
    the order (BadOrderError), then one count of the entries other than -1,
    which is 3 * block_count exactly when no cell was written twice
    (DuplicatePairError), then full coverage when the kind is Steiner
    (NotSteinerError).  Once no pair lies in two blocks, b blocks cover
    exactly 3b pairs, so coverage is total when 6b = order(order-1).
    Builders that fill a table themselves (pg2, ag3, perturbed_pg, the
    STS(15) backtracker, parse's fast path, and with_labels, the hill climb
    and induced_subsystem from their source's table) hand it to _of_table.
    The constructor takes blocks from outside (parse's line loop, library
    callers) and section4_partial's: it deduplicates and sorts them, and
    when the count finds a shared pair the blocks are checked again one
    pair at a time (_shared_pair), so DuplicatePairError names the same
    pair whatever form they came in.
    """

    __slots__ = ("order", "tag", "block_count", "_third")

    def __init__(self, order, triples, kind=SystemKind.PARTIAL, tag=PLAIN_TAG):
        kind = _check_order(order, kind)
        triples = _canonical_triples(triples, order)
        third = _empty_pair_table(order)
        _fill(third, triples)
        self._settle(order, third, len(triples), kind, tag, triples)

    @classmethod
    def _of_table(cls, order, third, size, kind, tag):
        """The system of a filled pair table, third, of size blocks.

        The table is taken over, not copied.  A shared pair raises
        DuplicatePairError without naming the pair; a reader that must
        name it builds from its blocks through the constructor instead.
        """
        kind = _check_order(order, kind)
        self = cls.__new__(cls)
        self._settle(order, third, size, kind, tag)
        return self

    def _settle(self, order, third, size, kind, tag, blocks=None):
        """The checks that follow the order's, then the attributes."""
        if _entries(third) != 3 * size:
            if blocks is None:
                raise DuplicatePairError("two of the %d blocks share a pair" % size)
            raise _shared_pair(order, blocks)
        # no pair lies in two blocks, so the blocks cover 3 * size distinct pairs
        if kind is SystemKind.STEINER and 6 * size != order * (order - 1):
            raise NotSteinerError("some pair is not covered by any block")

        self.order = order
        self.tag = tag if tag is not None else PLAIN_TAG
        self.block_count = size
        self._third = third

    @property
    def kind(self):
        """STEINER exactly when the blocks cover every pair, which forces an
        order that admits a Steiner system; PARTIAL otherwise."""
        if 6 * self.block_count == self.order * (self.order - 1):
            return SystemKind.STEINER
        return SystemKind.PARTIAL

    @property
    def triples(self):
        """The blocks as sorted 3-tuples in lexicographic order, read from
        the pair table on each access and not kept: a caller that needs
        them twice keeps them."""
        return tuple(_blocks_of(self._third))

    def __setattr__(self, name, value):
        if hasattr(self, "_third"):
            raise AttributeError("TripleSystem is immutable")
        super().__setattr__(name, value)

    # -- basic queries ---------------------------------------------------

    @property
    def points(self):
        return range(self.order)

    def is_steiner(self) -> bool:
        return self.kind is SystemKind.STEINER

    def check_point(self, x: int) -> None:
        if not isinstance(x, int) or x < 0 or x >= self.order:
            raise OutOfRangeError("point %r outside [0, %d)" % (x, self.order))

    def third_point(self, x: int, y: int):
        """The unique z with {x,y,z} a block, or None when the pair is uncovered."""
        self.check_point(x)
        self.check_point(y)
        if x == y:
            raise SamePointError("third_point needs two distinct points, got %d twice" % x)
        z = self._third[x][y] if y < x else self._third[y][x]
        return None if z == -1 else z

    def block_through(self, x: int, y: int):
        """The block containing the pair {x,y}, or None."""
        z = self.third_point(x, y)
        if z is None:
            return None
        return tuple(sorted((x, y, z)))

    def __reduce__(self):
        # rechecking the table on unpickle is cheap and keeps the slots+guard scheme
        return (TripleSystem._of_table,
                (self.order, self._third, self.block_count, self.kind, self.tag))

    def __eq__(self, other):
        if not isinstance(other, TripleSystem):
            return NotImplemented
        # the kind is read off the table, so equal tables have equal kinds
        return self.order == other.order and self._third == other._third

    def __hash__(self):
        return hash((self.order, tuple(map(hash, map(bytes, self._third)))))

    def __repr__(self):
        return "TripleSystem(order=%d, blocks=%d, kind=%s, tag=%s)" % (
            self.order,
            self.block_count,
            self.kind.value,
            self.tag.variant,
        )


build_system = TripleSystem


def induced_subsystem(ts: TripleSystem, points: Iterable[int]):
    """Restrict ts to a point subset.

    Returns (sub, kept) where kept is the sorted tuple of original indices;
    point kept[i] of ts becomes point i of sub.  sub contains exactly the
    blocks of ts lying fully inside the subset.  Closed subsets of Steiner
    systems therefore induce full Steiner systems and are tagged as such.
    The table of sub is read out of that of ts, listing no block: kept is
    sorted, so row i of sub takes row kept[i] of ts at kept[:i].
    """
    kept = sorted(set(points))
    for p in kept:
        ts.check_point(p)
    if not kept:
        raise OutOfRangeError("induced subsystem needs at least one point")
    rank = {p: i for i, p in enumerate(kept)}
    code = _typecode(len(kept))
    # row i: the rank of third[kept[i]][kept[j]] at j < i, or -1 when it is not kept
    third = [array(code, [rank.get(c, -1) for c in map(row.__getitem__, kept[:i])])
             for i, row in enumerate(map(ts._third.__getitem__, kept))]
    sub = TripleSystem._of_table(len(kept), third, _entries(third) // 3,
                                 SystemKind.PARTIAL, PLAIN_TAG)
    return sub, tuple(kept)


# -- text format ---------------------------------------------------------


def _fmt_set(points) -> str:
    """A point set as its sorted indices, comma-separated: "0,1,3"."""
    return ",".join(str(p) for p in sorted(points))


def render(record) -> str:
    """A (name, ok, detail) check record as one report line: a fact's
    detail when ok is None, else PASS or FAIL, the name and the detail."""
    name, ok, detail = record
    if ok is None:
        return detail
    return " ".join(filter(None, ("PASS" if ok else "FAIL", name, detail)))


def _parse_tag_comment(text: str):
    parts = text.split()
    # expected: tag <variant> <param|-> [seed=<int>]
    if len(parts) < 3 or parts[0] != "tag":
        return None
    variant = parts[1]
    if variant not in ("plain", "pg2", "ag3", "perturbed_pg", "section4", "random",
                       "completed"):
        return None
    try:
        param = None if parts[2] == "-" else int(parts[2])
        seed = None
        for extra in parts[3:]:
            if extra.startswith("seed="):
                seed = int(extra[5:])
    except ValueError:
        return None  # not a tag after all: an ordinary comment
    return GeometryTag(variant, param, seed, None)


_HEADER = re.compile(r"v ([1-9][0-9]{0,17}) (steiner|partial)\n")
_BODY_BYTES = b"b0123456789 \n"
# Characters per chunk of a text that parse reads at once, at the least.  The
# tokens of a chunk take about 17 bytes a character while they are checked,
# so a small chunk keeps the peak of a file read near its pair table.
_CHUNK = 1 << 11


def _text_chunks(text):
    """text in line-aligned slices of at least _CHUNK characters, but for
    the last."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK)
        end = len(text) if end < 0 else end + 1
        yield text[pos:end]
        pos = end


def _file_chunks(fh):
    """A text file in line-aligned chunks: read(_CHUNK), then the rest of
    the line it ends in."""
    for chunk in iter(lambda: fh.read(_CHUNK), ""):
        yield chunk if chunk.endswith("\n") else chunk + fh.readline()


def _fill_chunk(table, chunk, index):
    """Store the blocks of the lines of a chunk in the pair table and
    return their number, or return None, storing nothing, when a line is not
    "b i j k" with i < j < k, each the key of its int in index.  The tokens
    of the chunk are freed on return."""
    if not chunk.isascii():
        return None
    data = chunk.encode("ascii")
    lines = data.count(b"\n")
    if (
        data.translate(None, _BODY_BYTES)
        or data[-1:] != b"\n"
        or data[:1] != b"b"
        or data.count(b"\nb") != lines - 1
    ):
        return None
    tokens = data.split()
    if len(tokens) != 4 * lines or tokens[::4].count(b"b") != lines:
        return None
    del tokens[::4]
    try:
        values = list(map(index.__getitem__, tokens))
    except KeyError:
        return None
    del tokens
    first, second, third = values[0::3], values[1::3], values[2::3]
    if not (all(map(lt, first, second)) and all(map(lt, second, third))):
        return None
    _fill(table, zip(first, second, third))
    return lines


def _parse_fast(chunks, size, cap):
    """The system of a text in the form serialize writes, given as an
    iterable of line-aligned chunks and size, a bound on its length, or
    None when any line might be read differently by lineparse._parse_lines,
    when two lines share a pair (so that the error can name it) or when the
    order is above cap.

    Accepts the header "v <order> <kind>", an optional comment on line 2 and
    then only lines "b <i> <j> <k>" with i < j < k in [0, order).  A chunk
    passes (_fill_chunk) only when it holds nothing but the characters b,
    0-9, space and LF, every line starts with b, it splits into four tokens
    per line with "b" at every fourth, and every other token is the decimal
    form of an int below order, looked up in a table that rejects signs,
    leading zeros and non-ASCII digits.  Digit tokens
    hold no b, so the n line starts fall on the n "b" tokens and each line
    is "b i j k".  With i < j < k, whatever passes is exactly what
    _parse_lines accepts, with the same triples in the same order.  Each
    chunk's blocks go straight into the pair table, and the table then
    takes the checks of TripleSystem in the same order (_of_table).
    """
    chunks = iter(chunks)
    chunk = next(chunks, "")
    head = _HEADER.match(chunk)
    if head is None:
        return None
    order = int(head.group(1))
    kind = SystemKind(head.group(2))
    tag = PLAIN_TAG
    # line 2 starts the rest of the first chunk, or else the next chunk
    chunk = chunk[head.end():] or next(chunks, "")
    if chunk.startswith("#"):
        nl = chunk.find("\n")
        line = chunk[:nl]
        if nl < 0 or not (line.isascii() and line.isprintable()):
            return None
        maybe = _parse_tag_comment(line[1:].strip())
        if maybe is not None:
            tag = maybe
        chunk = chunk[nl + 1:] or next(chunks, "")
    if order > size or order > cap:
        return None  # the index table stays within the text, the pair table within the cap
    index = {b"%d" % i: i for i in range(order)}
    table, blocks = _empty_pair_table(order), 0
    while chunk:
        lines = _fill_chunk(table, chunk, index)
        if lines is None:
            return None
        blocks += lines
        chunk = next(chunks, "")
    try:
        return TripleSystem._of_table(order, table, blocks, kind, tag)
    except DuplicatePairError:
        return None


def _read(chunks, size, whole):
    """The system _parse_fast builds from chunks, or else the one that the
    line loop reads from whole(), which returns the whole text; the errors
    are those of parse."""
    cap = config.order_cap()
    try:
        ts = _parse_fast(chunks, size, cap)
        if ts is not None:
            return ts
        from .lineparse import _parse_lines

        order, triples, kind, tag = _parse_lines(whole())
        if order > cap:
            raise TooLargeError("system of order %d above the cap %d" % (order, cap))
        return TripleSystem(order, triples, kind, tag)
    except (DuplicatePairError, NotSteinerError, BadOrderError) as exc:
        raise ParseError("invalid system: %s" % exc) from exc


def parse(text: str) -> TripleSystem:
    """Parse the text interchange format back into a validated system.

    Raises ParseError with a 1-based line number on any malformed line.  The
    construction tag (variant, parameter, seed) is restored when the writer
    recorded it; coordinate labels live in the sidecar and are re-attached
    with parse_labels / with_labels.

    Files in the form serialize writes take a fast path (_parse_fast) that
    tokenises the block lines in line-aligned slices of about _CHUNK
    characters.  On any doubt about a slice, and when two blocks share a
    pair, it gives up and the whole text is read again line by line from the
    start (lineparse._parse_lines), so every input yields the same system,
    or the same ParseError message and line number, on either path.  Besides
    the text and the pair table, the fast path holds the tokens of one slice
    at a time.  _parse_file reads a file the same way without holding its
    text.

    A header order above the construction cap raises TooLargeError once
    the lines are read, before any table is allocated: a file of a few
    bytes could otherwise ask for order^2 entries.
    """
    return _read(_text_chunks(text), len(text), lambda: text)


def _parse_file(fh) -> TripleSystem:
    """parse of the text of fh, a file just opened for reading text.

    The fast path reads the file in line-aligned chunks (_file_chunks), so
    the pair table and one chunk are all it holds, never the whole text;
    the file's size bounds the index table where parse uses the text's
    length.  When the fast path gives up, the whole file is read again for
    the line loop.  A file that cannot seek, such as a pipe, is read whole
    first, since it cannot be read twice.
    """
    if not fh.seekable():
        return parse(fh.read())

    def whole():
        fh.seek(0)
        return fh.read()

    return _read(_file_chunks(fh), os.fstat(fh.fileno()).st_size, whole)


def parse_labels(text: str) -> dict:
    """Parse a label sidecar into {point index: coordinate tuple}.

    Each line is "l <index> <vector>", both in ASCII decimal digits, as
    serialize_labels writes them; any other line raises ParseError with its
    line number.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3 or fields[0] != "l":
            raise ParseError("line %d: label line must be 'l <index> <vector>'" % lineno)
        # str.isdigit alone takes any Unicode digit, and int() a sign
        if not all(f.isascii() and f.isdigit() for f in fields[1:]):
            raise ParseError("line %d: bad label line" % lineno)
        out[int(fields[1])] = tuple(map(int, fields[2]))
    return out


def with_labels(ts: TripleSystem, labels: dict) -> TripleSystem:
    """Return ts with a tag that carries the given point labels; the two
    systems share one pair table.  A label of a point outside [0, order)
    raises OutOfRangeError."""
    outside = [i for i in labels if not 0 <= i < ts.order]
    if outside:
        raise OutOfRangeError("label of point %r outside [0, %d)" % (min(outside), ts.order))
    full = tuple(labels.get(i) for i in range(ts.order))
    tag = GeometryTag(ts.tag.variant, ts.tag.param, ts.tag.seed, full)
    return TripleSystem._of_table(ts.order, ts._third, ts.block_count, ts.kind, tag)


def __getattr__(name):
    """serialize and serialize_labels, served from writer.py on first use
    through the package's table.  Only bench/layers.py reads them here; this
    forwarder goes with ROADMAP direction 3."""
    return _served(globals(), name, ("writer",))
