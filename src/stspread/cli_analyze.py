"""analyze: closure and spreading-set analysis of a stored system
(stspread.cli)."""

from __future__ import annotations

from itertools import chain, groupby, islice

from .cli import (
    EXIT_OK,
    _csv_ints,
    _format_opt,
    _int_at_least,
    _load_system,
    _point_pair,
    _Report,
)
from .closure import DEFAULT_CLOSED_SET_BUDGET, closure, enumerate_closed_sets
from .system import _fmt_set


def arguments(parser):
    parser.add_argument("--system", required=True)
    what = parser.add_subparsers(dest="what", required=True)
    p = what.add_parser("closure")
    p.add_argument("--set", type=_csv_ints, required=True)
    p.add_argument("--trace", action="store_true")
    modes = what.add_parser("spread").add_subparsers(dest="mode", required=True)
    p = modes.add_parser("greedy")
    p.add_argument("--seed-pair", type=_point_pair, default=None)
    modes.add_parser("min")
    p = modes.add_parser("enumerate")
    p.add_argument("--max-size", type=_int_at_least(1), default=None)
    _format_opt(p)
    p = what.add_parser("subsystems")
    p.add_argument("--max-count", type=_int_at_least(1), default=DEFAULT_CLOSED_SET_BUDGET)
    _format_opt(p)
    what.add_parser("projective")


# Rows of a set listing (spread enumerate, subsystems) are formatted and
# written at most _ROW_CHUNK rows at a time, from a row template with {0}
# the size and {1} the points of a set.
_ROW_CHUNK = 1 << 12


def _tuple_rows(row, sets):
    """The rows of sets, point tuples ordered by size: one % per chunk of
    rows of one size, over all their points."""
    for k, level in groupby(sets, len):
        fmt = row.format(k, ",".join(["%d"] * k)) + "\n"
        while points := tuple(chain.from_iterable(islice(level, _ROW_CHUNK))):
            yield fmt * (len(points) // k) % points


def _packed_rows(row, levels, order):
    """The rows of the packed levels of the spread scan, popped off the end
    of each level (enumeration._minimal_spreading_levels).

    The sets of a piece side by side share their least point, and it is
    the only place where that point occurs.  So str.translate writes a
    chunk's rows in one pass: each point p becomes ",p", except the least
    point, which ends the row before it and starts its own.
    """
    table = [",%d" % p for p in range(order)]
    for k, found in levels:
        head, tail = row.format(k, "\0").split("\0")
        step = _ROW_CHUNK * k
        while found:
            piece = found.pop()
            if not piece:
                continue
            least = ord(piece[0])
            table[least] = "%s\n%s%d" % (tail, head, least)
            for i in range(0, len(piece), step):
                yield piece[i:i + step].translate(table)[len(tail) + 1:] + tail + "\n"
            table[least] = ",%d" % least


def run(args):
    rep = _Report()
    # each branch imports what it calls before it loads the system
    if args.what == "closure":
        ts = _load_system(args.system)
        trace = closure(ts, args.set)
        if args.trace:
            rep.say(trace.report())
        else:
            rep.say("set=%s" % _fmt_set(set(args.set)))
            rep.say("closure=%s" % _fmt_set(trace.points))
            rep.say("size=%d steps=%d" % (len(trace.points), len(trace.steps) - 1))
        rep.say("spreading=%s" % str(len(trace.points) == ts.order).lower())
        return EXIT_OK, rep, {}
    if args.what == "projective":
        from .spreading import check_projective

        rep.say("projective=%s" % str(check_projective(_load_system(args.system))).lower())
        return EXIT_OK, rep, {}
    if args.what == "spread" and args.mode == "greedy":
        from .greedy import greedy_spreading_set

        res = greedy_spreading_set(_load_system(args.system), args.seed_pair)
        rep.say("method=greedy")
        rep.say("size=%d" % res.size)
        rep.say("witness=%s" % _fmt_set(res.witness))
        rep.say("closure_sizes=%s" % ",".join(str(s) for s in res.closure_sizes))
        return EXIT_OK, rep, {}
    if args.what == "spread" and args.mode == "min":
        from .spreading import min_spreading_size

        size, witness = min_spreading_size(_load_system(args.system))
        rep.say("size=%d" % size)
        rep.say("witness=%s" % _fmt_set(witness))
        return EXIT_OK, rep, {}
    # a set listing: the subsystems, or the minimal spreading sets
    if args.what == "subsystems":
        ts = _load_system(args.system)
        enum = enumerate_closed_sets(ts, args.max_count)
        head = "count=%d truncated=%s" % (len(enum.points), str(enum.truncated).lower())
        row = "size={0} points={1}"
    else:
        # the scan's packed levels: no set's tuple is ever built
        from .enumeration import _minimal_spreading_levels

        ts = _load_system(args.system)
        count, levels, max_size, truncated = _minimal_spreading_levels(ts, args.max_size)
        head = ("count=%d truncated=%s max_size=%d"
                % (count, str(truncated).lower(), max_size))
        row = "{1}"
    if args.format == "csv":
        head, row = "size,points", '{0},"{1}"'
    rep.say(head)
    rep.extend(_tuple_rows(row, enum.points) if args.what == "subsystems"
               else _packed_rows(row, levels, ts.order))
    return EXIT_OK, rep, {}
