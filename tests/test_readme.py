"""The examples of README.md: every command line parses, and the Quick
start code prints the results its comments give."""

import re
import shlex
from pathlib import Path

from stspread.cli import _build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, fence):
    """The first fenced block of the given language under a heading."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return re.search(r"```%s\n(.*?)```" % fence, section, re.S).group(1)


def test_command_line_examples_parse():
    lines = _block("Command line", "sh").splitlines()
    assert len(lines) == 8
    parser = _build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "stspread", line
        assert parser.parse_args(argv[1:]).command == argv[1], line


def test_quick_start_prints_its_commented_results():
    code = _block("Quick start", "python")
    printed = []
    exec(code, {"print": lambda value: printed.append(str(value))})
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    # the comments that give a value, not a description, must match it
    checked = [(c, p) for c, p in zip(comments, printed) if c.startswith("(")]
    assert [c for c, _ in checked] == ["(4, frozenset({0, 1, 3, 7}))",
                                       "(5, frozenset({2, 3, 5, 7, 8}))"]
    assert all(c == p for c, p in checked)
