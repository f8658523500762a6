"""embed: complete a stored partial system by hill climbing (stspread.cli)."""

from __future__ import annotations

from . import config
from .cli import EXIT_BUDGET, EXIT_OK, _int_at_least, _load_system, _Report
from .completion import complete_partial
from .errors import BudgetExhaustedError


def arguments(parser):
    parser.add_argument("--system", required=True)
    parser.add_argument("--target", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--restarts", type=_int_at_least(1), default=config.DEFAULT_RESTARTS)
    parser.add_argument("--moves", type=_int_at_least(1), default=None)


def run(args):
    if args.out:
        # before the system loads, so the compile does not add to the memory
        # peak that the pair table sets
        from .writer import _encoded_pieces
    rep = _Report()
    ts = _load_system(args.system)
    try:
        report = complete_partial(
            ts, args.target, seed=args.seed,
            restarts=args.restarts, moves_per_restart=args.moves,
        )
    except BudgetExhaustedError as exc:
        if exc.partial is not None:
            rep.say(exc.partial.to_kv().rstrip("\n"))
        rep.say("budget exhausted: %s" % exc)
        return EXIT_BUDGET, rep, {}
    rep.say(report.to_kv().rstrip("\n"))
    files = {}
    if args.out:
        files[args.out] = _encoded_pieces(report.system)
        rep.say("wrote %s" % args.out)
    return EXIT_OK, rep, files
