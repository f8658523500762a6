"""Command line front end.

Commands:

* construct pg2|ag3|sts15-free|perturbed-pg|section4|random ... --out FILE
  writes a system in the text format, a label sidecar when the construction
  carries coordinates, and a JSON run manifest next to the output.
* analyze --system FILE closure|spread|subsystems|projective ...
  closure and spreading-set analysis of a stored system.
* saturate min|bounds|variance|extremes ...  saturation-side computations.
* embed --system FILE --target V  hill-climbing completion.
* demo maxofmin|unicity|almostmax|two-sizes|szoras|bounds
  end-to-end replications printing one PASS/FAIL line per record of the
  matching stspread.claims function.

Exit codes: 0 success, 1 usage, 2 invalid input, 3 budget exhausted,
4 verified property violated.  All stdout is a pure function of the
arguments (timings live only in the manifest), so identical invocations
produce byte-identical reports.  Every command runs in one process:
--jobs N is validated and recorded in the manifest, and otherwise ignored.

At import, this module loads only what the package loads anyway (errors,
system, closure) and config.  Each command imports the other library
modules it calls when it runs, and the manifest's modules load only when a
manifest is written, so a short run pays start-up only for what it uses.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, config
from .closure import DEFAULT_CLOSED_SET_BUDGET, closure, enumerate_closed_sets
from .errors import (
    BudgetExhaustedError,
    ParseError,
    SearchExhaustedError,
    StsError,
)
from .system import _fmt_set, _parse_file, _serialize_pieces, render, serialize_labels

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _csv_ints(text):
    try:
        return tuple(int(f) for f in text.split(",") if f != "")
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from None


def _orders(text):
    orders = _csv_ints(text)
    if not orders:
        raise argparse.ArgumentTypeError("expected at least one order")
    return orders


def _int_at_least(low):
    """An argparse type: an integer no smaller than low."""
    def convert(text):
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected an integer >= %d" % low)
    return convert


def _point_pair(text):
    pair = _csv_ints(text)
    if len(pair) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated points")
    return pair


def _load_system(path):
    """The system stored in the file at path (system._parse_file): the
    pair table and one line-aligned piece of the text are all it holds at
    once, never the whole text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_file(fh)
    except UnicodeDecodeError:
        raise ParseError("%s is not UTF-8 text" % path) from None


class _Report:
    """Collects output lines and PASS/FAIL bookkeeping."""

    def __init__(self):
        self.lines = []
        self.failures = 0

    def say(self, text=""):
        self.lines.append(text)

    def check(self, okay, label, detail=""):
        self.lines.append(render((label, okay, detail)))
        if not okay:
            self.failures += 1
        return okay

    def text(self):
        return "\n".join(self.lines) + "\n" if self.lines else ""


# -- construct -------------------------------------------------------------


def _cmd_construct(args):
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


# -- analyze ---------------------------------------------------------------


# Rows of a spreading set listing formatted into one string at a time.
_ROW_CHUNK = 1 << 14


def _text_row(points):
    return ",".join(map(str, points))


def _csv_row(points):
    return '%d,"%s"' % (len(points), ",".join(map(str, points)))


def _cmd_analyze(args):
    rep = _Report()
    ts = _load_system(args.system)
    if args.what == "closure":
        trace = closure(ts, args.set)
        if args.trace:
            rep.say(trace.report())
        else:
            rep.say("set=%s" % _fmt_set(args.set))
            rep.say("closure=%s" % _fmt_set(trace.points))
            rep.say("size=%d steps=%d" % (len(trace.points), len(trace.steps) - 1))
        rep.say("spreading=%s" % str(len(trace.points) == ts.order).lower())
        return EXIT_OK, rep, {}
    if args.what == "spread":
        if args.mode == "greedy":
            from .spreading import greedy_spreading_set
            res = greedy_spreading_set(ts, args.seed_pair)
            rep.say("method=greedy")
            rep.say("size=%d" % res.size)
            rep.say("witness=%s" % _fmt_set(res.witness))
            rep.say("closure_sizes=%s" % ",".join(str(s) for s in res.closure_sizes))
        elif args.mode == "min":
            from .spreading import min_spreading_size
            size, witness = min_spreading_size(ts)
            rep.say("size=%d" % size)
            rep.say("witness=%s" % _fmt_set(witness))
        else:
            from .spreading import enumerate_minimal_spreading_sets
            enum = enumerate_minimal_spreading_sets(ts, args.max_size)
            points = enum.points
            if args.format == "csv":
                rep.say("size,points")
                row = _csv_row
            else:
                rep.say("count=%d truncated=%s max_size=%d"
                        % (len(points), str(enum.truncated).lower(), enum.max_size))
                row = _text_row
            # one report line per chunk, so no list of one string per set
            for i in range(0, len(points), _ROW_CHUNK):
                rep.say("\n".join(map(row, points[i:i + _ROW_CHUNK])))
        return EXIT_OK, rep, {}
    if args.what == "subsystems":
        enum = enumerate_closed_sets(ts, args.max_count)
        if args.format == "csv":
            rep.say("size,points")
            for s in enum.sets:
                rep.say('%d,"%s"' % (len(s), _fmt_set(s)))
        else:
            rep.say("count=%d truncated=%s" % (len(enum.sets), str(enum.truncated).lower()))
            for s in enum.sets:
                rep.say("size=%d points=%s" % (len(s), _fmt_set(s)))
        return EXIT_OK, rep, {}
    # projective
    from .spreading import check_projective
    rep.say("projective=%s" % str(check_projective(ts)).lower())
    return EXIT_OK, rep, {}


# -- saturate --------------------------------------------------------------


def _cmd_saturate(args):
    from .saturation import (
        _check_pg_dim,
        deviating_hyperplane,
        intersection_extremes,
        lunelli_sce_min,
        min_saturating_size,
        variance_identity,
    )

    rep = _Report()
    if args.what == "min":
        ts = _load_system(args.system)
        size, witness = min_saturating_size(ts)
        rep.say("size=%d" % size)
        rep.say("witness=%s" % _fmt_set(witness))
        return EXIT_OK, rep, {}
    if args.what == "bounds":
        rows = []
        for n in range(1, args.max_n + 1):
            # PG(n,2) stays within the hyperplane cap; lunelli_sce_min alone
            # would loop about 2^(n/2+1) times on a large n
            _check_pg_dim(n)
            # the exact minimum is a subset scan of PG(n,2), which has
            # 2^(n+1)-1 points; the column stops at the enumeration cap
            exact = None
            if args.exact and (1 << (n + 1)) - 1 <= config.order_cap(
                    config.MAX_ENUMERATION_ORDER):
                from .constructions import pg2
                exact, _ = min_saturating_size(pg2(n))
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


# -- embed -----------------------------------------------------------------


def _cmd_embed(args):
    from .completion import complete_partial

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


# -- demo ------------------------------------------------------------------


def _cmd_demo(args):
    from . import claims

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


# -- wiring ----------------------------------------------------------------


def _build_parser():
    root = _Parser(prog="stspread", description=__doc__.split("\n\n")[0])
    root.add_argument("--jobs", type=_int_at_least(1), default=1,
                      help="accepted for compatibility and recorded in the "
                           "manifest; every command runs in one process "
                           "(default 1)")
    root.add_argument("--manifest", default=None,
                      help="write a JSON run manifest to this path")
    sub = root.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build and store a system")
    csub = con.add_subparsers(dest="family", required=True)
    p = csub.add_parser("pg2")
    p.add_argument("--dim", type=int, required=True)
    p = csub.add_parser("ag3")
    p.add_argument("--dim", type=int, required=True)
    p = csub.add_parser("sts15-free")
    p.add_argument("--seed", type=int, default=0)
    p = csub.add_parser("perturbed-pg")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p = csub.add_parser("section4")
    p.add_argument("--n", type=int, default=4)
    p = csub.add_parser("random")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    for fam in csub.choices.values():
        fam.add_argument("--out", required=True)

    def _format_opt(prs):
        prs.add_argument("--format", choices=("text", "csv"), default="text")

    ana = sub.add_parser("analyze", help="inspect a stored system")
    ana.add_argument("--system", required=True)
    asub = ana.add_subparsers(dest="what", required=True)
    p = asub.add_parser("closure")
    p.add_argument("--set", type=_csv_ints, required=True)
    p.add_argument("--trace", action="store_true")
    msub = asub.add_parser("spread").add_subparsers(dest="mode", required=True)
    p = msub.add_parser("greedy")
    p.add_argument("--seed-pair", type=_point_pair, default=None)
    msub.add_parser("min")
    p = msub.add_parser("enumerate")
    p.add_argument("--max-size", type=_int_at_least(1), default=None)
    _format_opt(p)
    p = asub.add_parser("subsystems")
    p.add_argument("--max-count", type=_int_at_least(1), default=DEFAULT_CLOSED_SET_BUDGET)
    _format_opt(p)
    asub.add_parser("projective")

    sat = sub.add_parser("saturate", help="saturating-set computations")
    ssub = sat.add_subparsers(dest="what", required=True)
    p = ssub.add_parser("min")
    p.add_argument("--system", required=True)
    p = ssub.add_parser("bounds")
    p.add_argument("--max-n", type=_int_at_least(1), default=10)
    p.add_argument("--exact", action="store_true")
    _format_opt(p)
    p = ssub.add_parser("variance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", type=_csv_ints, required=True)
    p = ssub.add_parser("extremes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    _format_opt(p)

    emb = sub.add_parser("embed", help="complete a partial system")
    emb.add_argument("--system", required=True)
    emb.add_argument("--target", type=int, required=True)
    emb.add_argument("--seed", type=int, default=0)
    emb.add_argument("--out", default=None)
    emb.add_argument("--restarts", type=_int_at_least(1), default=config.DEFAULT_RESTARTS)
    emb.add_argument("--moves", type=_int_at_least(1), default=config.DEFAULT_MOVES)

    dem = sub.add_parser("demo", help="replicate a named result")
    dsub = dem.add_subparsers(dest="which", required=True)
    p = dsub.add_parser("maxofmin")
    p.add_argument("--orders", type=_orders, default=(7, 9, 13, 15))
    p = dsub.add_parser("unicity")
    p.add_argument("--trials", type=_int_at_least(1), default=500)
    dsub.add_parser("almostmax")
    p = dsub.add_parser("two-sizes")
    p.add_argument("--n", type=int, default=4)
    p = dsub.add_parser("szoras")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p = dsub.add_parser("bounds")
    p.add_argument("--max-n", type=_int_at_least(1), default=10)
    for name, prs in dsub.choices.items():
        if name != "bounds":  # the only demo that draws nothing at random
            prs.add_argument("--seed", type=int, default=0)
    return root


_DISPATCH = {
    "construct": _cmd_construct,
    "analyze": _cmd_analyze,
    "saturate": _cmd_saturate,
    "embed": _cmd_embed,
    "demo": _cmd_demo,
}


def _encoded_pieces(ts):
    """The serialized text of ts as UTF-8 pieces, encoded one at a time as
    they are taken, so neither the text nor its bytes are ever held
    whole."""
    return map(str.encode, _serialize_pieces(ts))


def _hashed(pieces, digest):
    """pieces, each added to digest as it is taken."""
    for piece in pieces:
        digest.update(piece)
        yield piece


def _write_atomic(path, pieces):
    """Write an iterable of byte pieces to path through a new temp file next
    to it and os.replace, one piece at a time as they are taken.

    A failed write leaves an existing target as it was and removes the temp
    file; its OSError names path, as a direct open(path, "wb") would.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _write_manifest(path, argv, args, code, rep, result, elapsed):
    """Write the run manifest; result is the sha256 of the files written,
    in order of their paths, or None when the run wrote none, and then the
    digest is that of stdout."""
    import hashlib
    import json
    import platform
    import stat

    inputs = {}
    system_path = getattr(args, "system", None)
    if system_path:
        # only a regular file is hashed: the load consumed a FIFO's text,
        # and opening it again would wait for a writer that never comes
        digest = None
        try:
            if stat.S_ISREG(os.stat(system_path).st_mode):
                h = hashlib.sha256()
                with open(system_path, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        h.update(block)
                digest = h.hexdigest()
        except OSError:
            pass
        inputs[system_path] = digest
    if result is None:
        result = hashlib.sha256(rep.text().encode())
    manifest = {
        "argv": argv,
        "command": args.command,
        "version": __version__,
        "python": platform.python_version(),
        "seed": getattr(args, "seed", None),
        "jobs": getattr(args, "jobs", 1),
        "inputs": inputs,
        "result_digest": result.hexdigest(),
        "exit_code": code,
        "elapsed_seconds": round(elapsed, 3),
    }
    _write_atomic(path, [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    start = time.perf_counter()
    try:
        code, rep, files = _DISPATCH[args.command](args)
        manifest_path = args.manifest
        if manifest_path is None and args.command == "construct":
            manifest_path = args.out + ".manifest.json"
        result = None
        if manifest_path and files:
            import hashlib
            result = hashlib.sha256()
        # each file's pieces go to its temp file, and to the one digest of
        # all of them in order of path, as they are made
        for path in sorted(files):
            pieces = files[path]
            _write_atomic(path, pieces if result is None else _hashed(pieces, result))
        if manifest_path:
            _write_manifest(manifest_path, argv, args, code, rep, result,
                            time.perf_counter() - start)
    except (BudgetExhaustedError, SearchExhaustedError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_BUDGET
    except (StsError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INVALID

    text = rep.text()
    if text:
        sys.stdout.write(text)
    return code

if __name__ == "__main__":
    sys.exit(main())
