"""The write path of the text format of system.py.

serialize gives the canonical text of a system, built from its pair table
one column at a time (_serialize_pieces, encoded by _encoded_pieces), and
serialize_labels the sidecar of its coordinate labels.  Only a run that
writes a system needs them, so they live apart from the reader:
stspread.system serves both names on first use.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, lt

from .system import TripleSystem


def _serialize_pieces(ts: TripleSystem):
    """The canonical text of serialize, piece by piece: the header lines,
    then the block lines of each point that is the least of a block, one
    piece per point.

    Point a gives the lines of the blocks (a, b, c) with a < b < c =
    third[b][a], in order of b, so the blocks come in lexicographic order
    straight from column a of the pair table and triples is never built.
    The column is gathered, and its b and c picked by compress, at C level,
    and one % over the flat tuple of its (b, c) pairs formats the piece, so
    no string per block is built.  A writer that takes the pieces one at a
    time holds one piece's text at a time, never the whole text.
    """
    tag = ts.tag
    head = "v %d %s\n" % (ts.order, ts.kind.value)
    if tag.variant != "plain":
        extra = "" if tag.seed is None else " seed=%d" % tag.seed
        param = "-" if tag.param is None else str(tag.param)
        head += "# tag %s %s%s\n" % (tag.variant, param, extra)
    yield head
    # slices of one list of the points, so that the scan makes no int per b
    points = list(range(ts.order))
    third = ts._third
    for a in points:
        later = points[a + 1:]
        column = list(map(itemgetter(a), third[a + 1:]))
        least = list(map(lt, later, column))
        bs = list(compress(later, least))
        if bs:
            flat = bs + bs
            flat[::2] = bs
            flat[1::2] = compress(column, least)
            yield ("b %d %%d %%d\n" % a) * len(bs) % tuple(flat)


def _encoded_pieces(ts):
    """The serialized text of ts as UTF-8 pieces, encoded one at a time as
    they are taken, so neither the text nor its bytes are ever held
    whole."""
    return map(str.encode, _serialize_pieces(ts))


def serialize(ts: TripleSystem) -> str:
    """Canonical text form of a system (sorted triples, LF line endings).

    The join of _serialize_pieces, so the peak is about twice the text: the
    pieces plus the result.
    """
    return "".join(_serialize_pieces(ts))


def serialize_labels(ts: TripleSystem) -> str:
    """Sidecar text mapping point indices to coordinate vectors.

    Empty string when the system carries no labels.  Vector coordinates are
    the digits of the label tuple, e.g. (1,0,1) -> "101".
    """
    labels = ts.tag.labels
    if not labels:
        return ""
    lines = []
    for i, vec in enumerate(labels):
        if vec is None:
            continue
        lines.append("l %d %s" % (i, "".join(str(d) for d in vec)))
    return "\n".join(lines) + "\n" if lines else ""
