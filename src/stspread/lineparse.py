"""The line-by-line reader of the text format of system.py.

parse takes its fast path (system._parse_fast) on every text in the form
serialize writes; _parse_lines reads any other text, one line at a time,
and names the first malformed line.  Only a text the fast path gives up on
needs it, so it loads on first use.
"""

from __future__ import annotations

from .errors import ParseError
from .system import PLAIN_TAG, SystemKind, _parse_tag_comment


def _parse_lines(text: str):
    """(order, triples, kind, tag) read line by line; raises ParseError with
    the line number of the first malformed line."""
    order = None
    kind = None
    tag = PLAIN_TAG
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if order is not None and tag is PLAIN_TAG:
                maybe = _parse_tag_comment(line[1:].strip())
                if maybe is not None:
                    tag = maybe
            continue
        fields = line.split()
        if fields[0] == "v":
            if order is not None:
                raise ParseError("line %d: repeated header" % lineno)
            if len(fields) != 3:
                raise ParseError("line %d: header must be 'v <order> <kind>'" % lineno)
            try:
                order = int(fields[1])
            except ValueError:
                raise ParseError("line %d: bad order %r" % (lineno, fields[1])) from None
            if fields[2] not in ("steiner", "partial"):
                raise ParseError(
                    "line %d: kind must be 'steiner' or 'partial', got %r"
                    % (lineno, fields[2])
                )
            kind = SystemKind(fields[2])
        elif fields[0] == "b":
            if order is None:
                raise ParseError("line %d: block before header" % lineno)
            if len(fields) != 4:
                raise ParseError("line %d: block must be 'b <i> <j> <k>'" % lineno)
            try:
                t = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise ParseError("line %d: non-integer point index" % lineno) from None
            if len(set(t)) != 3:
                raise ParseError("line %d: repeated index in block" % lineno)
            if min(t) < 0 or max(t) >= order:
                raise ParseError("line %d: point outside [0, %d)" % (lineno, order))
            triples.append(t)
        else:
            raise ParseError("line %d: unknown record %r" % (lineno, fields[0]))
    if order is None:
        raise ParseError("line 0: missing 'v <order> <kind>' header")
    return order, triples, kind, tag
