"""Command line interface: wiring, formats, manifests, exit codes."""

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

import stspread.system as system_module
from stspread import complete_partial, parse, pg2, serialize
from stspread.cli import _load_system, main

from oracles import f2_rank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("chunk", [7, 1 << 14])
def test_streamed_outputs_are_the_serialized_text(tmp_path, capsys, monkeypatch, chunk):
    monkeypatch.setattr(system_module, "_SERIALIZE_CHUNK", chunk)
    out, fano, full = tmp_path / "pg4.txt", tmp_path / "fano.txt", tmp_path / "full.txt"
    manifest = tmp_path / "embed.json"
    assert run(capsys, "construct", "pg2", "--dim", "4", "--out", str(out))[0] == 0
    text = out.read_bytes()
    assert text == serialize(pg2(4)).encode()
    digest = json.loads((tmp_path / "pg4.txt.manifest.json").read_text())["result_digest"]
    labels = (tmp_path / "pg4.txt.labels").read_bytes()
    assert digest == hashlib.sha256(text + labels).hexdigest()
    run(capsys, "construct", "pg2", "--dim", "2", "--out", str(fano))
    code, _, _ = run(capsys, "--manifest", str(manifest), "embed", "--system", str(fano),
                     "--target", "15", "--out", str(full))
    assert code == 0
    text = full.read_bytes()
    report = complete_partial(parse(fano.read_text()), 15, seed=0,
                              restarts=50, moves_per_restart=10 ** 6)
    assert text == serialize(report.system).encode()
    digest = json.loads(manifest.read_text())["result_digest"]
    assert digest == hashlib.sha256(text).hexdigest()


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
    code, stdout, _ = run(capsys, "saturate", "extremes", "--n", "2", "--m", "3")
    assert code == 0
    assert "max_min=1" in stdout and "min_max=2" in stdout


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


def test_bad_invocations_exit_with_one_error_line(tmp_path, capsys):
    system = tmp_path / "p3.txt"
    run(capsys, "construct", "pg2", "--dim", "3", "--out", str(system))
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00 not text")
    spread = ["analyze", "--system", str(system), "spread"]
    cases = [
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
        (2, ["analyze", "--system", str(binary), "projective"]),
        (2, ["construct", "pg2", "--dim", "2", "--out", str(tmp_path / "no" / "x.txt")]),
        (2, ["--manifest", str(tmp_path / "no" / "m.json"), "saturate", "bounds"]),
    ]
    for expected, argv in cases:
        code, stdout, err = run(capsys, *argv)
        assert code == expected, argv
        assert stdout == "", argv
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors == err.splitlines()[-1:], argv


def test_manifest_records_input_digest(tmp_path, capsys):
    src = tmp_path / "fano.txt"
    run(capsys, "construct", "pg2", "--dim", "2", "--out", str(src))
    mpath = tmp_path / "run.json"
    code, stdout, _ = run(capsys, "--manifest", str(mpath), "analyze",
                          "--system", str(src), "spread", "min")
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
    proc = subprocess.run(
        [sys.executable, "-m", "stspread.cli", "--manifest", str(mpath),
         "analyze", "--system", str(fifo), "projective"],
        capture_output=True, text=True, timeout=30,
    )
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


def test_construct_never_holds_the_text_beside_the_table(tmp_path, capsys):
    out = tmp_path / "pg9.txt"
    table = sum(map(sys.getsizeof, pg2(9)._third))
    code, peak = _traced_peak(main, ["construct", "pg2", "--dim", "9", "--out", str(out)])
    assert code == 0
    assert peak < table + out.stat().st_size, (peak, table, out.stat().st_size)


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
    assert peak < 12 * len(stdout), (peak, len(stdout))


def test_module_invocation_subprocess(tmp_path):
    out = tmp_path / "s.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "stspread.cli", "construct", "pg2",
         "--dim", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "order=7" in proc.stdout


_LOADED = ("import sys\n"
           "from stspread.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print()\n"
           "print(' '.join(sorted(sys.modules)))\n"
           "sys.exit(code)\n")


@pytest.mark.parametrize("argv, absent", [
    (["analyze", "--system", "{system}", "projective"],
     ("saturation", "completion", "constructions", "claims")),
    (["analyze", "--system", "{system}", "spread", "min"],
     ("saturation", "completion", "constructions", "claims")),
    (["saturate", "variance", "--n", "3", "--set", "0,1,2,6"],
     ("completion", "constructions", "claims")),
    (["construct", "pg2", "--dim", "3", "--out", "{out}"], ("saturation", "claims")),
    (["--jobs", "2", "saturate", "min", "--system", "{system}"],
     ("parallel", "completion", "claims")),
    (["--jobs", "2", "analyze", "--system", "{system}", "spread", "enumerate",
      "--max-size", "3"],
     ("parallel", "saturation", "completion", "constructions", "claims")),
])
def test_commands_load_only_the_modules_they_use(tmp_path, argv, absent):
    system = tmp_path / "pg3.txt"
    system.write_text(serialize(pg2(3)))
    argv = [a.format(system=system, out=tmp_path / "out.txt") for a in argv]
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "stspread.cli" in loaded
    unwanted = {"stspread." + name for name in absent} | {"multiprocessing"}
    assert not unwanted & loaded, sorted(unwanted & loaded)


def test_console_script_installed():
    path = shutil.which("stspread")
    assert path is not None
    proc = subprocess.run([path, "saturate", "bounds", "--max-n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lunelli_q2" in proc.stdout
