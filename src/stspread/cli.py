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

A run compiles and builds only what its command runs.  This module holds
what every command uses: the exit codes, the argument types, the parser,
main, the report and the system loader.  Each command lives in a module of
its own, cli_<command>, which adds the command's arguments to its parser
(arguments) and runs it (run).  The parser registers the five command
names with their help and has a command's module add its sub-parsers and
arguments only when a command line names it (_Commands); each command
module imports the library modules it calls before it loads or builds a
system.  Output files and the manifest go through cli_files, which loads
only when a run writes one.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import import_module
from itertools import chain

from .errors import BudgetExhaustedError, ParseError, SearchExhaustedError, StsError
from .system import _parse_file, render

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4

# The commands, in the order the help lists them, with their help.
_COMMANDS = {
    "construct": "build and store a system",
    "analyze": "inspect a stored system",
    "saturate": "saturating-set computations",
    "embed": "complete a partial system",
    "demo": "replicate a named result",
}


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


def _format_opt(prs):
    prs.add_argument("--format", choices=("text", "csv"), default="text")


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
    """Collects output and PASS/FAIL bookkeeping.

    The output is a list of parts, each an iterable of pieces that end in
    a newline: a line is a part of one piece, and a listing's rows are a
    part formatted only as the report is written, so the whole report is
    never one string.
    """

    def __init__(self):
        self.parts = []
        self.failures = 0

    def say(self, text=""):
        self.parts.append((text + "\n",))

    def extend(self, pieces):
        self.parts.append(pieces)

    def check(self, okay, label, detail=""):
        self.say(render((label, okay, detail)))
        if not okay:
            self.failures += 1
        return okay

    def pieces(self):
        return chain.from_iterable(self.parts)


# -- wiring ----------------------------------------------------------------


def _command(name):
    """The module of command name: cli_construct, cli_analyze, ..."""
    return import_module(".cli_" + name, __package__)


class _Commands(argparse._SubParsersAction):
    """The command sub-parsers, registered with their help alone.

    A command's module adds the sub-parsers and arguments of its parser
    (fill) when the command line reaches it, so a run builds the parser of
    its own command only.  argparse formats the root parser's help from
    the names and help strings, so it reads the same either way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.filled = set()

    def fill(self, name):
        """The parser of command name, with its arguments added once."""
        parser = self.choices[name]
        if name not in self.filled:
            self.filled.add(name)
            _command(name).arguments(parser)
        return parser

    def __call__(self, parser, namespace, values, option_string=None):
        self.fill(values[0])
        super().__call__(parser, namespace, values, option_string)


def _build_parser():
    root = _Parser(prog="stspread", description=__doc__.split("\n\n")[0])
    root.add_argument("--jobs", type=_int_at_least(1), default=1,
                      help="accepted for compatibility and recorded in the "
                           "manifest; every command runs in one process "
                           "(default 1)")
    root.add_argument("--manifest", default=None,
                      help="write a JSON run manifest to this path")
    commands = root.add_subparsers(dest="command", required=True, action=_Commands)
    for name, text in _COMMANDS.items():
        commands.add_parser(name, help=text)
    return root


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    start = time.perf_counter()
    manifest_path = args.manifest
    if manifest_path is None and args.command == "construct":
        manifest_path = args.out + ".manifest.json"
    try:
        command = _command(args.command)
        # the paths a run writes are in its arguments, so the write path
        # loads before the command allocates anything
        write = None
        if manifest_path or getattr(args, "out", None):
            from .cli_files import write_outputs as write
        code, rep, files = command.run(args)
        out = rep.pieces()
        if write:
            out = write(files, manifest_path, argv, args, code, out, start)
    except (BudgetExhaustedError, SearchExhaustedError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_BUDGET
    except (StsError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INVALID

    sys.stdout.writelines(out)
    return code


if __name__ == "__main__":
    # The command modules import this one by name.  Run as python -m
    # stspread.cli, it is __main__, and that import would compile and run it
    # a second time, so it is entered under its own name first.
    sys.modules[__spec__.name] = sys.modules[__name__]
    sys.exit(main())
