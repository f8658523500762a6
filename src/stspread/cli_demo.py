"""demo: replicate a named result of the paper, one PASS/FAIL line per
record of the matching stspread.claims function (stspread.cli)."""

from __future__ import annotations

from . import claims
from .cli import EXIT_BUDGET, EXIT_OK, EXIT_VIOLATION, _int_at_least, _orders, _Report
from .errors import BudgetExhaustedError


def arguments(parser):
    which = parser.add_subparsers(dest="which", required=True)
    p = which.add_parser("maxofmin")
    p.add_argument("--orders", type=_orders, default=(7, 9, 13, 15))
    p = which.add_parser("unicity")
    p.add_argument("--trials", type=_int_at_least(1), default=500)
    which.add_parser("almostmax")
    p = which.add_parser("two-sizes")
    p.add_argument("--n", type=int, default=4)
    p = which.add_parser("szoras")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p = which.add_parser("bounds")
    p.add_argument("--max-n", type=_int_at_least(1), default=10)
    for name, prs in which.choices.items():
        if name != "bounds":  # the only demo that draws nothing at random
            prs.add_argument("--seed", type=int, default=0)


def run(args):
    rep = _Report()
    records = {
        "maxofmin": lambda: claims.maxofmin(args.orders, args.seed),
        "unicity": lambda: claims.unicity(args.trials, args.seed),
        "almostmax": lambda: claims.almostmax(args.seed),
        "two-sizes": lambda: claims.two_sizes(args.n, args.seed),
        "szoras": lambda: claims.szoras(args.n, args.trials, args.seed),
        "bounds": lambda: claims.bounds(args.max_n),
    }[args.which]()
    try:
        for name, okay, detail in records:
            if okay is None:
                rep.say(detail)
            else:
                rep.check(okay, name, detail)
    except BudgetExhaustedError as exc:
        rep.say("budget exhausted: %s" % exc)
        return EXIT_BUDGET, rep, {}
    rep.say("result=%s" % ("ok" if rep.failures == 0 else "failed"))
    return (EXIT_OK if rep.failures == 0 else EXIT_VIOLATION), rep, {}
