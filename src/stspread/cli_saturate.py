"""saturate: saturating sets and the hyperplane bounds (stspread.cli)."""

from __future__ import annotations

from .cli import (
    EXIT_OK,
    EXIT_VIOLATION,
    _csv_ints,
    _format_opt,
    _int_at_least,
    _load_system,
    _Report,
)
from .errors import BudgetExhaustedError
from .saturation import (
    _check_pg_dim,
    deviating_hyperplane,
    intersection_extremes,
    lunelli_sce_min,
    min_saturating_size,
    variance_identity,
)
from .system import _fmt_set


def arguments(parser):
    what = parser.add_subparsers(dest="what", required=True)
    p = what.add_parser("min")
    p.add_argument("--system", required=True)
    p = what.add_parser("bounds")
    p.add_argument("--max-n", type=_int_at_least(1), default=10)
    p.add_argument("--exact", action="store_true")
    _format_opt(p)
    p = what.add_parser("variance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", type=_csv_ints, required=True)
    p = what.add_parser("extremes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    _format_opt(p)


def run(args):
    rep = _Report()
    if args.what == "min":
        ts = _load_system(args.system)
        size, witness = min_saturating_size(ts)
        rep.say("size=%d" % size)
        rep.say("witness=%s" % _fmt_set(witness))
        return EXIT_OK, rep, {}
    if args.what == "bounds":
        rows = []
        scan = args.exact
        for n in range(1, args.max_n + 1):
            # PG(n,2) stays within the construction cap; lunelli_sce_min alone
            # would loop about 2^(n/2+1) times on a large n
            _check_pg_dim(n)
            # the exact minimum is a subset scan of PG(n,2) within the work
            # budget; a larger space's first level costs more, so the column
            # stops at the first space the budget refuses
            exact = None
            if scan:
                from .constructions import pg2
                try:
                    exact, _ = min_saturating_size(pg2(n))
                except BudgetExhaustedError:
                    scan = False
            rows.append((n, lunelli_sce_min(n, 2), lunelli_sce_min(n, 3), exact))
        if args.format == "csv":
            rep.say("n,lunelli_q2,lunelli_q3,exact_q2")
            for n, l2, l3, ex in rows:
                rep.say("%d,%d,%d,%s" % (n, l2, l3, "" if ex is None else ex))
        else:
            rep.say("%3s %11s %11s %9s" % ("n", "lunelli_q2", "lunelli_q3", "exact_q2"))
            for n, l2, l3, ex in rows:
                rep.say("%3d %11d %11d %9s" % (n, l2, l3, "-" if ex is None else ex))
        return EXIT_OK, rep, {}
    if args.what == "variance":
        lhs, rhs = variance_identity(args.n, args.set)
        dev = deviating_hyperplane(args.n, args.set)
        rep.say("n=%d m=%d" % (args.n, len(set(args.set))))
        rep.say("lhs=%s" % lhs)
        rep.say("rhs=%s" % rhs)
        identity_ok = rep.check(lhs == rhs, "identity", "lhs == rhs")
        rep.say("deviation=%s functional=%d" % (dev.deviation, dev.functional))
        rep.say("bound_squared=%s" % dev.bound_squared)
        if dev.degenerate:
            rep.say("strict=skipped (empty set)")
            strict_ok = True
        else:
            strict_ok = rep.check(dev.strict, "deviation_strict",
                                  "deviation^2 > bound^2")
        code = EXIT_OK if (identity_ok and strict_ok) else EXIT_VIOLATION
        return code, rep, {}
    # extremes
    ex = intersection_extremes(args.n, args.m)
    if args.format == "csv":
        rep.say("n,m,max_min,max_min_witness,min_max,min_max_witness")
        rep.say('%d,%d,%d,"%s",%d,"%s"'
                % (ex.n, ex.m, ex.max_min, _fmt_set(ex.max_min_witness),
                   ex.min_max, _fmt_set(ex.min_max_witness)))
    else:
        rep.say("n=%d m=%d" % (ex.n, ex.m))
        rep.say("max_min=%d witness=%s" % (ex.max_min, _fmt_set(ex.max_min_witness)))
        rep.say("min_max=%d witness=%s" % (ex.min_max, _fmt_set(ex.min_max_witness)))
    return EXIT_OK, rep, {}
