"""construct: build a system of a named family and store it (stspread.cli)."""

from __future__ import annotations

from .cli import EXIT_OK, _Report
from .system import _fmt_set
from .writer import _encoded_pieces, serialize_labels


def arguments(parser):
    families = parser.add_subparsers(dest="family", required=True)
    p = families.add_parser("pg2")
    p.add_argument("--dim", type=int, required=True)
    p = families.add_parser("ag3")
    p.add_argument("--dim", type=int, required=True)
    p = families.add_parser("sts15-free")
    p.add_argument("--seed", type=int, default=0)
    p = families.add_parser("perturbed-pg")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p = families.add_parser("section4")
    p.add_argument("--n", type=int, default=4)
    p = families.add_parser("random")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    for fam in families.choices.values():
        fam.add_argument("--out", required=True)


def run(args):
    rep = _Report()
    extra = []
    if args.family == "pg2":
        from .constructions import pg2
        ts = pg2(args.dim)
    elif args.family == "ag3":
        from .constructions import ag3
        ts = ag3(args.dim)
    elif args.family == "sts15-free":
        from .constructions import subsystem_free_sts15
        ts = subsystem_free_sts15(args.seed)
    elif args.family == "perturbed-pg":
        from .constructions import perturbed_pg
        ts = perturbed_pg(args.dim, args.seed)
    elif args.family == "section4":
        from .constructions import section4_partial
        art = section4_partial(args.n)
        ts = art.system
        extra.append("base=%s" % _fmt_set(art.base_points))
        extra.append("b_points=%s" % ",".join(str(p) for p in art.b_points))
    else:
        from .completion import random_sts
        ts = random_sts(args.order, args.seed)

    files = {args.out: _encoded_pieces(ts)}
    sidecar = serialize_labels(ts)
    if sidecar:
        files[args.out + ".labels"] = [sidecar.encode()]
    rep.say("wrote %s order=%d blocks=%d kind=%s"
            % (args.out, ts.order, ts.block_count, ts.kind.value))
    if sidecar:
        rep.say("wrote %s.labels" % args.out)
    for line in extra:
        rep.say(line)
    return EXIT_OK, rep, files
