"""Command line interface: wiring, formats, manifests, exit codes."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import platform
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import stspread.cli as cli_module
import stspread.config as config
import stspread.system as system_module
import stspread.writer as writer
from stspread import complete_partial, parse, pg2, random_sts, serialize
from stspread.cli import _load_system, main

from oracles import f2_rank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(*args, **kwargs):
    """Run the interpreter on args, output captured as text, with the
    checkout's src first on PYTHONPATH so that stspread need not be installed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path), **kwargs)


def test_construct_pg2_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "fano.txt"
    code, stdout, _ = run(capsys, "construct", "pg2", "--dim", "2", "--out", str(out))
    assert code == 0
    assert "order=7 blocks=7" in stdout
    ts = parse(out.read_text())
    assert ts.order == 7
    assert ts.tag.variant == "pg2"
    assert (tmp_path / "fano.txt.labels").exists()


def test_construct_manifest_digest_matches_files(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code, _, _ = run(capsys, "construct", "ag3", "--dim", "2", "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "s.txt.manifest.json").read_text())
    blob = out.read_bytes() + (tmp_path / "s.txt.labels").read_bytes()
    assert manifest["result_digest"] == hashlib.sha256(blob).hexdigest()
    assert manifest["command"] == "construct"
    assert manifest["exit_code"] == 0
    assert "elapsed_seconds" in manifest


def test_manifest_records_the_python_version(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    code, _, _ = run(capsys, "--manifest", str(manifest), "saturate", "variance",
                     "--n", "2", "--set", "0,1")
    assert code == 0
    assert json.loads(manifest.read_text())["python"] == platform.python_version()


@pytest.mark.parametrize("chunk", [7, 1 << 14])
def test_streamed_outputs_are_the_serialized_text(tmp_path, capsys, monkeypatch, chunk):
    # chunk is the characters per chunk that embed reads its --system file in
    monkeypatch.setattr(system_module, "_CHUNK", chunk)
    pieces = []
    serialize_pieces = writer._serialize_pieces

    def kept(ts):
        for piece in serialize_pieces(ts):
            pieces.append(piece)
            yield piece

    out, fano, full = tmp_path / "pg4.txt", tmp_path / "fano.txt", tmp_path / "full.txt"
    manifest = tmp_path / "embed.json"
    # only the runs go through kept: serialize below calls _serialize_pieces too
    with monkeypatch.context() as patched:
        patched.setattr(writer, "_serialize_pieces", kept)
        assert run(capsys, "construct", "pg2", "--dim", "4", "--out", str(out))[0] == 0
        run(capsys, "construct", "pg2", "--dim", "2", "--out", str(fano))
        code, _, _ = run(capsys, "--manifest", str(manifest), "embed", "--system", str(fano),
                         "--target", "15", "--out", str(full))
    text = out.read_bytes()
    assert text == serialize(pg2(4)).encode()
    digest = json.loads((tmp_path / "pg4.txt.manifest.json").read_text())["result_digest"]
    labels = (tmp_path / "pg4.txt.labels").read_bytes()
    assert digest == hashlib.sha256(text + labels).hexdigest()
    assert code == 0
    text = full.read_bytes()
    report = complete_partial(parse(fano.read_text()), 15, seed=0,
                              restarts=50, moves_per_restart=10 ** 6)
    assert text == serialize(report.system).encode()
    digest = json.loads(manifest.read_text())["result_digest"]
    assert digest == hashlib.sha256(text).hexdigest()
    # no piece holds the lines of more than one least point
    assert sum(p.startswith("v ") for p in pieces) == 3  # the headers of three files
    rows = [p for p in pieces if not p.startswith("v ")]
    assert all(len({line.split()[1] for line in p.splitlines()}) == 1 for p in rows)


def test_construct_all_families(tmp_path, capsys):
    cases = [
        ("pg2", ["--dim", "3"], 15),
        ("ag3", ["--dim", "2"], 9),
        ("sts15-free", ["--seed", "1"], 15),
        ("perturbed-pg", ["--dim", "4"], 31),
        ("section4", ["--n", "4"], 30),
        ("random", ["--order", "13", "--seed", "5"], 13),
    ]
    for family, extra, order in cases:
        out = tmp_path / (family + ".txt")
        code, stdout, _ = run(capsys, "construct", family, *extra, "--out", str(out))
        assert code == 0, family
        assert parse(out.read_text()).order == order


def test_analyze_closure_and_trace(tmp_path, capsys):
    out = tmp_path / "fano.txt"
    run(capsys, "construct", "pg2", "--dim", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", "--system", str(out),
                          "closure", "--set", "0,1")
    assert code == 0
    assert "closure=0,1,2" in stdout
    assert "spreading=false" in stdout
    # a repeated point is one point of the set, as in the trace
    code, stdout, _ = run(capsys, "analyze", "--system", str(out),
                          "closure", "--set", "0,0,1")
    assert (code, stdout) == (0, "set=0,1\nclosure=0,1,2\nsize=3 steps=1\n"
                                 "spreading=false\n")
    code, stdout, _ = run(capsys, "analyze", "--system", str(out),
                          "closure", "--set", "0,0,1", "--trace")
    assert code == 0 and stdout.startswith("step 0: start {0,1}\n")
    code, stdout, _ = run(capsys, "analyze", "--system", str(out),
                          "closure", "--set", "0,1,3", "--trace")
    assert code == 0
    assert stdout.startswith("step 0: start")
    assert "spreading=true" in stdout


def test_analyze_spread_modes(tmp_path, capsys):
    out = tmp_path / "fano.txt"
    run(capsys, "construct", "pg2", "--dim", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", "--system", str(out), "spread", "greedy")
    assert code == 0 and "method=greedy" in stdout and "size=3" in stdout
    code, stdout, _ = run(capsys, "analyze", "--system", str(out), "spread", "greedy",
                          "--seed-pair", "2,5")
    assert code == 0 and "size=3\nwitness=0,2,5\n" in stdout
    code, stdout, _ = run(capsys, "analyze", "--system", str(out), "spread", "min")
    assert code == 0 and stdout.splitlines()[0] == "size=3"
    code, stdout, _ = run(capsys, "analyze", "--system", str(out),
                          "spread", "enumerate")
    assert code == 0
    head, *sets = stdout.splitlines()
    assert head == "count=28 truncated=false max_size=3"
    assert sets[0] == "0,1,3"
    code, stdout, _ = run(capsys, "analyze", "--system", str(out),
                          "spread", "enumerate", "--format", "csv")
    assert stdout.splitlines() == ["size,points"] + ['3,"%s"' % s for s in sets]


def test_analyze_spread_on_order_one(tmp_path, capsys):
    point = tmp_path / "point.txt"
    point.write_text("v 1 steiner\n")
    spread = ["analyze", "--system", str(point), "spread"]
    code, stdout, _ = run(capsys, *spread, "min")
    assert (code, stdout) == (0, "size=1\nwitness=0\n")
    code, stdout, _ = run(capsys, *spread, "enumerate")
    assert (code, stdout) == (0, "count=1 truncated=false max_size=1\n0\n")
    code, stdout, _ = run(capsys, *spread, "enumerate", "--format", "csv")
    assert (code, stdout) == (0, 'size,points\n1,"0"\n')


def test_analyze_subsystems_and_projective(tmp_path, capsys):
    out = tmp_path / "p3.txt"
    run(capsys, "construct", "pg2", "--dim", "3", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", "--system", str(out), "subsystems")
    assert code == 0
    assert stdout.splitlines()[0] == "count=15 truncated=false"
    code, stdout, _ = run(capsys, "analyze", "--system", str(out), "projective")
    assert code == 0 and stdout.strip() == "projective=true"


def test_spread_min_witnesses_at_order_63(tmp_path, capsys):
    for family, extra, witness in (("pg2", [], "0,1,3,7,15,31"),
                                   ("perturbed-pg", ["--seed", "0"], "0,1,15,31")):
        out = tmp_path / (family + ".txt")
        run(capsys, "construct", family, "--dim", "5", *extra, "--out", str(out))
        code, stdout, _ = run(capsys, "analyze", "--system", str(out), "spread", "min")
        assert code == 0
        assert stdout == "size=%d\nwitness=%s\n" % (witness.count(",") + 1, witness)


def test_spread_min_answers_certified_orders_above_the_walk_cap(tmp_path, capsys):
    # PG(6,2) is answered from its labels, and an uncertified system of the
    # same order by the walk, which only the work budget bounds
    for family, code, stdout, err in (
            ("pg2", 0, "size=7\nwitness=0,1,3,7,15,31,63\n", ""),
            ("perturbed-pg", 0, "size=5\nwitness=0,1,15,31,63\n", "")):
        out = tmp_path / (family + ".txt")
        run(capsys, "construct", family, "--dim", "6", "--out", str(out))
        assert run(capsys, "analyze", "--system", str(out), "spread", "min") == (
            code, stdout, err)


def test_spread_min_walks_random_systems_above_order_63(tmp_path, capsys):
    out = tmp_path / "r127.txt"
    run(capsys, "construct", "random", "--order", "127", "--seed", "1", "--out", str(out))
    assert run(capsys, "analyze", "--system", str(out), "spread", "min") == (
        0, "size=3\nwitness=0,1,2\n", "")


@pytest.mark.parametrize("construct,search,steps,stdout,err", [
    pytest.param(("perturbed-pg", "--dim", "5", "--seed", "0"),
                 ("analyze", "--system", None, "spread", "min"),
                 34681122, "size=4\nwitness=0,1,15,31\n",
                 "error: lattice walk of 34681122 candidate steps exceeds budget 34681121\n",
                 id="walk-pp5"),
    pytest.param(("random", "--order", "31", "--seed", "1"),
                 ("saturate", "min", "--system", None),
                 1467302850, "size=8\nwitness=2,3,4,6,10,12,13,18\n",
                 "error: saturating-set scan of 1467302850 candidate steps through level 8"
                 " exceeds budget 1467302849\n", id="scan-r31"),
])
def test_searches_stop_at_the_work_budget(construct, search, steps, stdout, err, tmp_path,
                                          capsys, monkeypatch):
    # the walk adds slots times (points + blocks) per chunk, the scan
    # C(n, k) times (points + blocks) per level: steps is their exact total,
    # and None in search stands for the system file
    out = tmp_path / "s.txt"
    run(capsys, "construct", *construct, "--out", str(out))
    argv = [str(out) if arg is None else arg for arg in search]
    monkeypatch.setattr(config, "DEFAULT_WORK_BUDGET", steps - 1)
    assert run(capsys, *argv) == (3, "", err)
    monkeypatch.setattr(config, "DEFAULT_WORK_BUDGET", steps)
    assert run(capsys, *argv) == (0, stdout, "")


def test_saturate_min_refuses_order_63_at_once_under_any_hash_seed(tmp_path, capsys,
                                                                   monkeypatch):
    out = tmp_path / "pg5.txt"
    run(capsys, "construct", "pg2", "--dim", "5", "--out", str(out))
    errs = set()
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = _python("-m", "stspread.cli", "saturate", "min", "--system", str(out))
        assert (proc.returncode, proc.stdout) == (3, "")
        errs.add(proc.stderr)
    assert errs == {"error: saturating-set scan of 439674243371622 candidate steps"
                    " through level 11 exceeds budget 20000000000\n"}


def test_packed_rows_write_points_above_255():
    # the spread scan holds each point as chr(p); its rows must read as "%d"
    # would write them, at every order
    from stspread.cli_analyze import _packed_rows

    sets = [(0, 256, 299), (0, 257, 280), (255, 256, 298), (256, 257, 258), (256, 290, 299)]
    by_least = {}
    for s in sets:
        by_least[s[0]] = by_least.get(s[0], "") + "".join(map(chr, s))
    for row, line in (("{1}", "%d,%d,%d\n"), ('{0},"{1}"', '3,"%d,%d,%d"\n')):
        # the pieces of the greatest least point first, as the scan leaves them
        levels = [(3, [by_least[p] for p in sorted(by_least, reverse=True)])]
        assert "".join(_packed_rows(row, levels, 300)) == "".join(line % s for s in sets)


def test_saturate_min_and_bounds(tmp_path, capsys):
    out = tmp_path / "fano.txt"
    run(capsys, "construct", "pg2", "--dim", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "saturate", "min", "--system", str(out))
    assert code == 0 and "size=4" in stdout
    code, stdout, _ = run(capsys, "saturate", "bounds", "--max-n", "5",
                          "--exact", "--format", "csv")
    assert code == 0
    rows = stdout.splitlines()
    assert rows[0] == "n,lunelli_q2,lunelli_q3,exact_q2"
    assert rows[2] == "2,4,4,4"
    assert rows[3] == "3,5,7,5"
    assert rows[4] == "4,8,11,9"
    # PG(5,2) has 63 points, past the subset-scan cap: no exact value
    assert rows[5].endswith(",")


def test_bounds_outputs_are_pinned(capsys):
    code, stdout, _ = run(capsys, "saturate", "bounds", "--max-n", "4", "--exact")
    assert code == 0
    assert stdout == ("  n  lunelli_q2  lunelli_q3  exact_q2\n"
                      "  1           2           2         2\n"
                      "  2           4           4         4\n"
                      "  3           5           7         5\n"
                      "  4           8          11         9\n")
    code, stdout, _ = run(capsys, "demo", "bounds", "--max-n", "4")
    assert code == 0
    assert stdout == ("PASS lunelli_q2_closed_form least s with s^2+s >= 2^(n+2)-2, n <= 4\n"
                      "PASS lunelli_q3_closed_form least s with s^2 >= (3^(n+1)-1)/2\n"
                      "PASS exact_pg2(2) size=4 witness=0,1,2,3\n"
                      "PASS exact_pg2(3) size=5 witness=2,3,5,7,8\n"
                      "result=ok\n")


def test_saturate_variance_and_extremes(capsys):
    code, stdout, _ = run(capsys, "saturate", "variance", "--n", "2",
                          "--set", "0,1,2")
    assert code == 0
    assert "lhs=15/4" in stdout and "rhs=15/4" in stdout
    assert "PASS identity" in stdout
    assert "PASS deviation_strict" in stdout
    code, stdout, _ = run(capsys, "saturate", "variance", "--n", "2", "--set", ",")
    assert code == 0
    assert "n=2 m=0\n" in stdout and "strict=skipped (empty set)\n" in stdout
    code, stdout, _ = run(capsys, "saturate", "extremes", "--n", "2", "--m", "3")
    assert code == 0
    assert "max_min=1" in stdout and "min_max=2" in stdout
    code, stdout, _ = run(capsys, "saturate", "extremes", "--n", "2", "--m", "0")
    assert (code, stdout) == (0, "n=2 m=0\nmax_min=0 witness=\nmin_max=0 witness=\n")
    assert run(capsys, "saturate", "extremes", "--n", "2", "--m", "8") == (
        2, "", "error: m = 8 exceeds the 7 points\n")


def test_embed_and_output_file(tmp_path, capsys):
    src = tmp_path / "fano.txt"
    dst = tmp_path / "full.txt"
    run(capsys, "construct", "pg2", "--dim", "2", "--out", str(src))
    code, stdout, _ = run(capsys, "embed", "--system", str(src),
                          "--target", "15", "--out", str(dst))
    assert code == 0
    assert "success=true" in stdout
    assert "check.contains_source=pass" in stdout
    full = parse(dst.read_text())
    assert full.order == 15 and full.is_steiner()


def test_embed_budget_exit_code(tmp_path, capsys):
    src = tmp_path / "part.txt"
    run(capsys, "construct", "section4", "--n", "4", "--out", str(src))
    code, stdout, _ = run(capsys, "embed", "--system", str(src), "--target", "61",
                          "--restarts", "1", "--moves", "40")
    assert code == 3
    assert "success=false" in stdout
    assert "budget exhausted" in stdout


def test_embed_refuses_a_target_below_twice_a_steiner_source(tmp_path):
    # a proper subsystem of an STS(v) has at most (v-1)/2 points, so no
    # STS(9) holds the Fano plane and no restart is tried
    src = tmp_path / "fano.txt"
    src.write_text(serialize(pg2(2)))
    proc = _python("-m", "stspread.cli", "embed", "--system", str(src), "--target", "9",
                   timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: no Steiner system of order 9 contains one of order 7:"
                           " a proper subsystem has at most (v-1)/2 points\n")


def test_demo_commands_pass(capsys):
    for argv in (
        ["demo", "almostmax"],
        ["demo", "szoras", "--n", "2", "--trials", "25"],
        ["demo", "bounds", "--max-n", "6"],
        ["demo", "maxofmin", "--orders", "7,9"],
        ["demo", "unicity", "--trials", "20"],
        ["demo", "two-sizes"],
    ):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0, argv
        assert "FAIL" not in stdout
        assert stdout.rstrip().endswith("result=ok")


def test_exit_codes_usage_and_invalid(tmp_path, capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--system",
                       str(tmp_path / "missing.txt"), "projective")
    assert code == 2
    code, _, err = run(capsys, "construct", "random", "--order", "8",
                       "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "order" in err


def test_construct_budget_exit_code(tmp_path, capsys, monkeypatch):
    import stspread.constructions as constructions

    monkeypatch.setattr(constructions, "STS15_NODE_BUDGET", 5)
    monkeypatch.setattr(constructions, "STS15_MAX_RESTARTS", 3)
    out = tmp_path / "free.txt"
    assert run(capsys, "construct", "sts15-free", "--out", str(out)) == (
        3, "", "error: no subsystem-free STS(15) found in 3 restarts\n")
    assert list(tmp_path.iterdir()) == []


def _bad_invocations(tmp_path, capsys):
    """(exit code, argv) of command lines that fail, each with one error
    line: usage errors, and invalid input or output paths."""
    system = tmp_path / "p3.txt"
    run(capsys, "construct", "pg2", "--dim", "3", "--out", str(system))
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00 not text")
    spread = ["analyze", "--system", str(system), "spread"]
    return [
        (1, spread + ["greedy", "--seed-pair", "1"]),
        (1, spread + ["greedy", "--seed-pair", "1,2,3"]),
        (1, spread + ["enumerate", "--max-size", "-3"]),
        (1, spread + ["min", "--format", "csv"]),
        (1, spread + ["greedy", "--max-size", "3"]),
        (1, ["analyze", "--system", str(system), "subsystems", "--max-count", "-1"]),
        (1, ["saturate", "extremes", "--n", "3", "--m", "-1"]),
        (1, ["saturate", "bounds", "--max-n", "0"]),
        (1, ["demo", "bounds", "--max-n", "0"]),
        (1, ["demo", "bounds", "--seed", "1"]),
        (1, ["demo", "maxofmin", "--orders", ""]),
        (1, ["demo", "unicity", "--trials", "-1"]),
        (1, ["demo", "szoras", "--trials", "-1"]),
        (1, ["embed", "--system", str(system), "--target", "15", "--moves", "-1"]),
        (1, ["embed", "--system", str(system), "--target", "15", "--restarts", "0"]),
        (1, ["--jobs", "0"] + spread + ["min"]),
        (2, ["demo", "szoras", "--n", "99"]),
        (2, ["demo", "szoras", "--n", "-5"]),
        (2, ["saturate", "extremes", "--n", "2", "--m", "8"]),
        (2, ["analyze", "--system", str(binary), "projective"]),
        (2, ["construct", "pg2", "--dim", "2", "--out", str(tmp_path / "no" / "x.txt")]),
        (2, ["--manifest", str(tmp_path / "no" / "m.json"), "saturate", "bounds"]),
        (2, ["--manifest", str(tmp_path / "no" / "m.json")] + spread + ["enumerate"]),
    ]


def test_bad_invocations_exit_with_one_error_line(tmp_path, capsys):
    for expected, argv in _bad_invocations(tmp_path, capsys):
        code, stdout, err = run(capsys, *argv)
        assert code == expected, argv
        assert stdout == "", argv
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors == err.splitlines()[-1:], argv


def _parser_paths(parser, path=()):
    """(path, parser) for parser and every sub-parser below it, path the
    command names that lead to it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_paths(sub, path + (name,))


def _filled_parser(build=cli_module._build_parser):
    """The command line parser with every command's arguments added up front."""
    parser = build()
    commands = next(a for a in parser._actions if isinstance(a, cli_module._Commands))
    for name in commands.choices:
        commands.fill(name)
    return parser


def test_the_lazy_parser_reads_as_one_filled_up_front(tmp_path, capsys, monkeypatch):
    filled = {path: (p.format_help(), p.format_usage())
              for path, p in _parser_paths(_filled_parser())}
    assert len(filled) == 29  # the root and 28 sub-parsers
    lazy = cli_module._build_parser()
    assert list(dict(_parser_paths(lazy))) == [()] + [(name,) for name in cli_module._COMMANDS]
    assert (lazy.format_help(), lazy.format_usage()) == filled[()]
    for name in cli_module._COMMANDS:
        lazy = cli_module._build_parser()
        with pytest.raises(SystemExit) as exc:
            lazy.parse_args([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == filled[(name,)][0]
        # the command's parsers are filled in, and no other command's
        paths = dict(_parser_paths(lazy))
        got = {path: (p.format_help(), p.format_usage())
               for path, p in paths.items() if path[:1] == (name,)}
        assert got == {path: f for path, f in filled.items() if path[:1] == (name,)}, name
        others = [p for path, p in paths.items() if path[:1] != (name,)]
        assert [len(p._actions) for p in others] == [4] + [1] * 4  # the root; -h alone
    # every usage error reads the same
    cases = _bad_invocations(tmp_path, capsys)
    lazy = [run(capsys, *argv) for _, argv in cases]
    monkeypatch.setattr(cli_module, "_build_parser", _filled_parser)
    assert [run(capsys, *argv) for _, argv in cases] == lazy


def test_manifest_records_input_digest(tmp_path, capsys):
    src = tmp_path / "fano.txt"
    run(capsys, "construct", "pg2", "--dim", "2", "--out", str(src))
    mpath = tmp_path / "run.json"
    # a run that writes no file digests its stdout, a listing too
    for argv in (["spread", "min"], ["spread", "enumerate", "--max-size", "3"]):
        code, stdout, _ = run(capsys, "--manifest", str(mpath), "analyze",
                              "--system", str(src), *argv)
        assert code == 0
        manifest = json.loads(mpath.read_text())
        assert manifest["inputs"][str(src)] == hashlib.sha256(src.read_bytes()).hexdigest()
        assert manifest["result_digest"] == hashlib.sha256(stdout.encode()).hexdigest()


def test_manifest_digests_an_input_above_one_block(tmp_path, capsys):
    src = tmp_path / "big.txt"
    comment = "# " + "x" * (5 << 19) + "\n"  # 2.5 MB: two full 1 MB blocks and a part
    src.write_text("v 7 steiner\n" + comment + "".join(serialize(pg2(2)).splitlines(True)[2:]))
    mpath = tmp_path / "run.json"
    code, _, _ = run(capsys, "--manifest", str(mpath), "analyze", "--system", str(src),
                     "closure", "--set", "0,1")
    assert code == 0
    manifest = json.loads(mpath.read_text())
    assert manifest["inputs"][str(src)] == hashlib.sha256(src.read_bytes()).hexdigest()


def test_system_from_a_fifo_reads_as_from_a_file(tmp_path, capsys):
    path, fifo = tmp_path / "s.txt", tmp_path / "fifo"
    good = serialize(pg2(4)).encode()
    outcomes = []
    for data in (good, good + b"b 0 1 x\n", good.replace(b"\n", b"\r\n")):
        path.write_bytes(data)
        want = run(capsys, "analyze", "--system", str(path), "closure", "--set", "0,1,3")
        outcomes.append(want)
        os.mkfifo(fifo)
        # a pipe cannot be read twice, so the reader takes it whole
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        got = run(capsys, "analyze", "--system", str(fifo), "closure", "--set", "0,1,3")
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert got == want
        fifo.unlink()
    assert outcomes[0] == outcomes[2] and outcomes[0][0] == 0
    assert outcomes[1] == (2, "", "error: line %d: non-integer point index\n"
                           % (good.count(b"\n") + 1))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_manifest_of_a_fifo_input_records_no_digest(tmp_path):
    # the manifest must not open the FIFO again: no writer would come
    fifo, mpath = tmp_path / "fifo", tmp_path / "m.json"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(serialize(pg2(2)),),
                              daemon=True)
    writer.start()
    proc = _python("-m", "stspread.cli", "--manifest", str(mpath),
                   "analyze", "--system", str(fifo), "projective", timeout=30)
    writer.join(timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "projective=true\n"
    assert json.loads(mpath.read_text())["inputs"] == {str(fifo): None}


def test_a_bad_byte_after_the_first_chunk_is_not_utf8(tmp_path, capsys):
    text = serialize(pg2(5))
    assert len(text) > 2 * system_module._CHUNK
    path = tmp_path / "s.txt"
    for head in (text, text.replace("b 0 1 2", "b 0 1 x")):  # the fast path, and its fallback
        path.write_bytes(head.encode()[:-2] + b"\xff\n")
        code, stdout, err = run(capsys, "analyze", "--system", str(path), "projective")
        assert (code, stdout, err) == (2, "", "error: %s is not UTF-8 text\n" % path)


def _traced_peak(call, *args):
    """call(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_a_system_never_holds_its_text(tmp_path):
    path = tmp_path / "pg9.txt"
    path.write_text(serialize(pg2(9)))
    ts, peak = _traced_peak(_load_system, str(path))
    assert ts.block_count == 174251
    # the pair table alone takes 0.91 of the file's 2.4 MB
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_loading_a_system_stays_within_its_pair_table(tmp_path):
    path = tmp_path / "pg9.txt"
    path.write_text(serialize(pg2(9)))
    ts, peak = _traced_peak(_load_system, str(path))
    table = sum(map(sys.getsizeof, ts._third))
    # the bound of the construct test below: a chunk and the index table besides
    assert peak <= 1.25 * table, (peak, table)


def test_construct_never_holds_the_text_beside_the_table(tmp_path, capsys):
    out = tmp_path / "pg9.txt"
    table = sum(map(sys.getsizeof, pg2(9)._third))
    code, peak = _traced_peak(main, ["construct", "pg2", "--dim", "9", "--out", str(out)])
    assert code == 0
    # the text is written a table column at a time, so the peak stays near the table
    assert peak < 1.25 * table, (peak, table)


def test_construct_and_embed_never_load_openssl(tmp_path):
    fano, full = tmp_path / "fano.txt", tmp_path / "full.txt"
    script = ("import sys\n"
              "from stspread.cli import main\n"
              "codes = [main(['construct', 'pg2', '--dim', '3', '--out', sys.argv[1]]),\n"
              "         main(['--manifest', sys.argv[3], 'embed', '--system', sys.argv[1],\n"
              "               '--target', '31', '--out', sys.argv[2]])]\n"
              "print(codes, '_hashlib' in sys.modules)\n")
    manifest = tmp_path / "embed.json"
    done = _python("-c", script, str(fano), str(full), str(manifest))
    assert done.stdout.splitlines()[-1] == "[0, 0] False", done.stderr
    blob = fano.read_bytes() + (tmp_path / "fano.txt.labels").read_bytes()
    digest = json.loads((tmp_path / "fano.txt.manifest.json").read_text())["result_digest"]
    assert digest == hashlib.sha256(blob).hexdigest()
    embed = json.loads(manifest.read_text())
    assert embed["result_digest"] == hashlib.sha256(full.read_bytes()).hexdigest()
    assert embed["inputs"][str(fano)] == hashlib.sha256(fano.read_bytes()).hexdigest()


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def test_construct_replaces_an_existing_target(tmp_path, capsys):
    out = tmp_path / "s.txt"
    out.write_text("stale\n")
    code, stdout, err = run(capsys, "construct", "pg2", "--dim", "2", "--out", str(out))
    assert (code, err) == (0, "")
    assert stdout == "wrote %s order=7 blocks=7 kind=steiner\nwrote %s.labels\n" % (out, out)
    assert out.read_text() == serialize(pg2(2))
    assert _names(tmp_path) == ["s.txt", "s.txt.labels", "s.txt.manifest.json"]


def test_failed_write_keeps_the_target_and_leaves_no_temp_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()
    (taken / "inside.txt").write_text("kept\n")
    with pytest.raises(OSError) as direct:
        open(taken, "wb")
    code, stdout, err = run(capsys, "construct", "pg2", "--dim", "2", "--out", str(taken))
    assert (code, stdout) == (2, "")
    assert err == "error: %s\n" % direct.value
    assert (taken / "inside.txt").read_text() == "kept\n"
    assert _names(tmp_path) == ["taken"]


def test_failed_replace_keeps_an_existing_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "s.txt"
    out.write_text("old\n")

    def refuse(src, dst):
        raise OSError(errno.EIO, "Input/output error", src, None, dst)

    monkeypatch.setattr(os, "replace", refuse)
    code, stdout, err = run(capsys, "construct", "pg2", "--dim", "2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: [Errno 5] Input/output error: %r\n" % str(out)
    assert out.read_text() == "old\n"
    assert _names(tmp_path) == ["s.txt"]


def test_write_never_goes_through_a_taken_temp_name(tmp_path, capsys):
    other = tmp_path / "other"
    other.write_text("other\n")
    taken = tmp_path / ("s.txt.%d.tmp" % os.getpid())
    taken.symlink_to(other)
    code, stdout, _ = run(capsys, "construct", "pg2", "--dim", "2", "--out", str(tmp_path / "s.txt"))
    assert (code, stdout) == (2, "")
    assert other.read_text() == "other\n"
    assert taken.is_symlink()
    assert _names(tmp_path) == sorted(["other", taken.name])


def test_new_files_get_the_mode_of_a_plain_open(tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        code, _, _ = run(capsys, "construct", "pg2", "--dim", "2", "--out", str(tmp_path / "s.txt"))
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(umask)
    assert code == 0
    want = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert want == 0o640
    for name in ("s.txt", "s.txt.labels", "s.txt.manifest.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want, name


def test_stdout_deterministic_across_repeats_and_jobs(tmp_path, capsys):
    src = tmp_path / "p3.txt"
    run(capsys, "construct", "pg2", "--dim", "3", "--out", str(src))
    outputs = []
    for jobs in ("1", "1", "4"):
        code, stdout, _ = run(capsys, "--jobs", jobs, "analyze", "--system",
                              str(src), "spread", "enumerate", "--max-size", "4")
        assert code == 0
        outputs.append(stdout)
    assert outputs[0] == outputs[1] == outputs[2]


_HASH_SEED_RUNS = (
    ("construct", "random", "--order", "31", "--seed", "1", "--out", "r31.txt"),
    ("construct", "perturbed-pg", "--dim", "4", "--out", "pp4.txt"),
    ("construct", "section4", "--n", "4", "--out", "s4.txt"),
    ("construct", "sts15-free", "--out", "s15.txt"),
    ("analyze", "--system", "pp4.txt", "spread", "min"),
    ("analyze", "--system", "pp4.txt", "spread", "enumerate"),
    ("analyze", "--system", "r31.txt", "subsystems", "--format", "csv"),
    ("analyze", "--system", "s4.txt", "subsystems"),
    ("embed", "--system", "s4.txt", "--target", "61", "--out", "emb.txt"),
    ("saturate", "min", "--system", "r31.txt"),
    ("demo", "almostmax"),
)


def _outputs_under_hash_seed(directory, seed, monkeypatch):
    """The stdout of each of _HASH_SEED_RUNS, run in turn in directory under
    PYTHONHASHSEED=seed, and the files they wrote, manifests without their
    elapsed_seconds."""
    directory.mkdir()
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    stdout = []
    for argv in _HASH_SEED_RUNS:
        proc = _python("-m", "stspread.cli", *argv, cwd=directory)
        assert proc.returncode == 0, (argv, proc.stderr)
        stdout.append(proc.stdout)
    files = {}
    for path in sorted(directory.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["elapsed_seconds"]
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return stdout, files


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    # block lists are deduplicated through a set of tuples, and tuple and
    # str hashes follow the hash seed: no output may
    first = _outputs_under_hash_seed(tmp_path / "seed0", "0", monkeypatch)
    second = _outputs_under_hash_seed(tmp_path / "seed1", "1", monkeypatch)
    assert len(first[1]) == 11  # 4 systems and their manifests, 2 label files, emb.txt
    assert first == second


def test_demo_bounds_records_no_seed(tmp_path, capsys):
    mpath = tmp_path / "run.json"
    code, _, _ = run(capsys, "--manifest", str(mpath), "demo", "bounds", "--max-n", "3")
    assert code == 0
    assert json.loads(mpath.read_text())["seed"] is None


@pytest.fixture(scope="module")
def pg4_bases(tmp_path_factory):
    """stdout and tracemalloc peak of the in-process run of
    analyze spread enumerate --max-size 5 on PG(4,2)."""
    src = tmp_path_factory.mktemp("pg4") / "pg4.txt"
    src.write_text(serialize(pg2(4)))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--system", str(src), "spread", "enumerate",
                         "--max-size", "5"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return out.getvalue(), peak


def test_pg4_minimal_spreading_sets_are_the_bases(pg4_bases):
    # in PG(4,2) (point p has label p + 1) a set spreads when its labels span
    # F2^5, so the minimal spreading 5-sets are the bases: |GL(5,2)|/5!
    stdout, _ = pg4_bases
    head, *lines = stdout.splitlines()
    assert head == "count=83328 truncated=false max_size=5"
    assert len(lines) == 83328
    assert lines[0] == "0,1,3,7,15"
    assert lines[-1] == "22,26,28,29,30"
    sets = [tuple(map(int, line.split(","))) for line in lines]
    assert all(len(s) == 5 and f2_rank(p + 1 for p in s) == 5 for s in sets)
    assert all(a < b for a, b in zip(sets, sets[1:]))


def test_pg4_enumeration_memory_stays_near_its_output(pg4_bases):
    stdout, peak = pg4_bases
    assert peak < 2 * len(stdout), (peak, len(stdout))


def test_module_invocation_subprocess(tmp_path):
    out = tmp_path / "s.txt"
    proc = _python("-m", "stspread.cli", "construct", "pg2", "--dim", "2", "--out", str(out))
    assert proc.returncode == 0
    assert "order=7" in proc.stdout


_LOADED = ("import sys\n"
           "from stspread.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print()\n"
           "print(' '.join(sorted(sys.modules)))\n"
           "sys.exit(code)\n")

# Module groups for the absent lists below.
_COMMAND_MODULES = ("cli_construct", "cli_analyze", "cli_saturate", "cli_embed", "cli_demo")
_WRITE = ("cli_files", "writer")
_SCANS = ("colex", "enumeration")


def _others(own):
    """The command modules other than own."""
    return tuple(m for m in _COMMAND_MODULES if m != own)


_ANALYZE = _others("cli_analyze") + _WRITE + (
    "saturation", "completion", "constructions", "claims")
_SATURATE = _others("cli_saturate") + _WRITE + (
    "spreading", "greedy", "enumeration", "completion", "constructions", "claims")
_CONSTRUCT = _others("cli_construct") + _SCANS + (
    "saturation", "spreading", "greedy", "claims")


# Every command of the benchmark's workloads and of their set-up, on inputs
# of a few points: the modules a run loads follow from its command line,
# not from the size of its input.
@pytest.mark.parametrize("argv, absent", [
    (["analyze", "--system", "{pg3}", "projective"], _ANALYZE + ("greedy",) + _SCANS),
    (["analyze", "--system", "{pg3}", "spread", "min"], _ANALYZE + ("greedy",) + _SCANS),
    (["saturate", "variance", "--n", "3", "--set", "0,1,2,6"], _SATURATE + ("colex",)),
    (["construct", "pg2", "--dim", "3", "--out", "{out}"], _CONSTRUCT + ("completion",)),
    (["--jobs", "2", "saturate", "min", "--system", "{r15}"], _SATURATE),
    (["--jobs", "2", "analyze", "--system", "{pg3}", "spread", "enumerate",
      "--max-size", "3"],
     _ANALYZE + ("spreading", "greedy")),
    (["demo", "bounds", "--max-n", "2"],
     _others("cli_demo") + _WRITE + ("enumeration", "completion", "spreading", "greedy")),
    (["construct", "random", "--order", "15", "--seed", "1", "--out", "{out}"],
     _CONSTRUCT + ("constructions",)),
    (["construct", "perturbed-pg", "--dim", "4", "--out", "{out}"],
     _CONSTRUCT + ("completion",)),
    (["construct", "ag3", "--dim", "2", "--out", "{out}"], _CONSTRUCT + ("completion",)),
    (["construct", "section4", "--n", "4", "--out", "{out}"], _CONSTRUCT + ("completion",)),
    (["analyze", "--system", "{pg3}", "spread", "enumerate", "--max-size", "3"],
     _ANALYZE + ("spreading", "greedy")),
    (["analyze", "--system", "{r15}", "spread", "enumerate"], _ANALYZE + ("spreading", "greedy")),
    (["analyze", "--system", "{r15}", "spread", "min"], _ANALYZE + ("greedy",) + _SCANS),
    (["analyze", "--system", "{pg3}", "subsystems"], _ANALYZE + ("spreading", "greedy") + _SCANS),
    (["analyze", "--system", "{r15}", "subsystems"], _ANALYZE + ("spreading", "greedy") + _SCANS),
    (["analyze", "--system", "{r15}", "projective"], _ANALYZE + ("greedy",) + _SCANS),
    (["analyze", "--system", "{pg3}", "closure", "--set", "0,1,3"],
     _ANALYZE + ("spreading", "greedy") + _SCANS),
    (["analyze", "--system", "{pg3}", "spread", "greedy"], _ANALYZE + ("spreading",) + _SCANS),
    (["saturate", "min", "--system", "{r15}"], _SATURATE),
    (["embed", "--system", "{fano}", "--target", "15", "--seed", "0", "--out", "{out}"],
     _others("cli_embed") + _SCANS + ("saturation", "spreading", "greedy", "claims",
                                      "constructions")),
    (["embed", "--system", "{fano}", "--target", "15", "--seed", "0"],
     _others("cli_embed") + _WRITE + _SCANS + ("saturation", "spreading", "greedy", "claims",
                                               "constructions")),
    (["demo", "two-sizes", "--n", "4"],
     _others("cli_demo") + _WRITE + _SCANS + ("saturation", "spreading", "greedy")),
    (["demo", "szoras", "--n", "3", "--trials", "5", "--seed", "0"],
     _others("cli_demo") + _WRITE + _SCANS + ("completion", "constructions", "spreading",
                                              "greedy")),
    # a manifest loads the manifest writer, and never the text writer
    (["--manifest", "{man}", "analyze", "--system", "{pg3}", "projective"],
     _others("cli_analyze") + _SCANS + ("writer", "saturation", "completion", "constructions",
                                        "claims", "greedy")),
    (["--manifest", "{man}", "saturate", "min", "--system", "{r15}"],
     _others("cli_saturate") + ("writer", "spreading", "greedy", "enumeration", "completion",
                                "constructions", "claims")),
    (["--manifest", "{man}", "demo", "bounds", "--max-n", "2"],
     _others("cli_demo") + ("writer", "enumeration", "completion", "spreading", "greedy")),
])
def test_commands_load_only_the_modules_they_use(tmp_path, argv, absent):
    systems = {"pg3": pg2(3), "r15": random_sts(15, 1), "fano": pg2(2)}
    paths = {"out": tmp_path / "out.txt", "man": tmp_path / "m.json"}
    for name, ts in systems.items():
        paths[name] = tmp_path / (name + ".txt")
        paths[name].write_text(serialize(ts))
    argv = [a.format(**paths) for a in argv]
    proc = _python("-c", _LOADED, *argv, check=True)
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "stspread.cli" in loaded
    # nothing loads the line-by-line reader or the fork pool, and only the
    # variance identity and the deviation report need fractions
    unwanted = ({"stspread." + name for name in absent + ("lineparse", "parallel")}
                | {"multiprocessing", "dataclasses", "inspect", "_hashlib", "platform"})
    if not {"variance", "szoras"} & set(argv):
        unwanted |= {"fractions", "decimal"}
    assert not unwanted & loaded, sorted(unwanted & loaded)
    command = next(a for a in argv if "cli_" + a in _COMMAND_MODULES)
    assert {m for m in _COMMAND_MODULES if "stspread." + m in loaded} == {"cli_" + command}


@pytest.mark.parametrize("argv", [
    ["construct", "pg2", "--dim", "2", "--out", "{out}"],
    ["analyze", "--system", "{fano}", "projective"],
    ["saturate", "variance", "--n", "3", "--set", "0,1,2,6"],
    ["embed", "--system", "{fano}", "--target", "15"],
    ["demo", "bounds", "--max-n", "2"],
], ids=lambda argv: argv[0])
def test_a_module_run_compiles_the_cli_once(tmp_path, argv):
    # run as python -m stspread.cli, the cli is __main__; the command modules
    # import it by name, which must find __main__ and not load it again
    fano = tmp_path / "fano.txt"
    fano.write_text(serialize(pg2(2)))
    argv = [a.format(fano=fano, out=tmp_path / "out.txt") for a in argv]
    proc = _python("-X", "importtime", "-m", "stspread.cli", *argv, check=True)
    loaded = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")]
    assert "stspread" in loaded
    assert "stspread.cli" not in loaded


def test_console_script_installed():
    path = shutil.which("stspread")
    assert path is not None
    proc = subprocess.run([path, "saturate", "bounds", "--max-n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lunelli_q2" in proc.stdout
