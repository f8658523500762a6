"""Compare what the CLI prints and writes at a parent commit and in the working tree.

    python3 tools/same_output.py [--parent REV]

Exports REV (default HEAD) and the working tree as tools/record_bench.py
does: the working tree as a commit made by `git stash create` when tracked
files differ from HEAD, else HEAD itself, so files git does not track are
left out.  Each group of commands below runs, on each side, in a fresh
temporary directory, one command after another, as

    python3 -m stspread.cli ARGS

with that side's src alone on PYTHONPATH.  The groups are the three
workloads of bench/workloads.py at seed 0, each its set-up commands and then
its commands (read from the module, which is left unchanged), the start-up
probe, and the commands of LISTED.

After each command the two sides must agree on the exit code, stdout,
stderr and the files the command wrote or changed, byte for byte; a run
manifest (a file ending in .manifest.json) is compared as JSON without
elapsed_seconds, the one field that holds a time.  One line is printed per
mismatch, and the exit code is 1 if there is any, else 0.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from record_bench import ROOT, export, git

LISTED = (
    ("construct", "section4", "--n", "4", "--out", "s4n4.txt"),
    ("construct", "section4", "--n", "5", "--out", "s4.txt"),
    ("construct", "random", "--order", "31", "--seed", "1", "--out", "r31.txt"),
    ("construct", "random", "--order", "255", "--seed", "1", "--out", "r255.txt"),
    ("construct", "pg2", "--dim", "4", "--out", "pg4.txt"),
    ("construct", "ag3", "--dim", "3", "--out", "ag3.txt"),
    *(("construct", "sts15-free", "--seed", str(s), "--out", "free%d.txt" % s)
      for s in range(4)),
    *(("construct", "perturbed-pg", "--dim", str(d), "--seed", str(s),
       "--out", "pp%d_%d.txt" % (d, s)) for d in (4, 5, 6) for s in (0, 1)),
    ("embed", "--system", "s4.txt", "--target", "159", "--out", "emb159.txt"),
    ("embed", "--system", "s4n4.txt", "--target", "61", "--out", "emb61.txt"),
    ("demo", "two-sizes", "--n", "4"),
    ("demo", "two-sizes", "--n", "5"),
    ("demo", "almostmax"),
    ("demo", "unicity", "--trials", "50"),
    ("saturate", "min", "--system", "r31.txt"),
    ("saturate", "min", "--system", "pg4.txt"),
    ("saturate", "min", "--system", "ag3.txt"),
    ("saturate", "bounds", "--max-n", "4", "--exact"),
    ("analyze", "--system", "pp5_0.txt", "spread", "min"),
    ("analyze", "--system", "pp5_0.txt", "projective"),
)


def groups():
    """(name, commands) of each group, commands as argv tuples."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    found = [("probe", (workloads.PROBE.argv,))]
    for name, w in workloads.build(0).items():
        found.append((name, tuple(c.argv for c in (*w.setup, *w.commands))))
    found.append(("listed", LISTED))
    return found


def files(directory):
    """{relative path: bytes} of every file under directory."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def run_group(tree, commands, work):
    """Run commands in the empty directory work with tree's src: per
    command, (exit code, stdout, stderr, {path: bytes or None if removed})."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    results = []
    before = files(work)
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "stspread.cli", *argv], cwd=work,
                              env=env, capture_output=True)
        after = files(work)
        changed = {p: b for p, b in after.items() if before.get(p) != b}
        changed.update((p, None) for p in before.keys() - after.keys())
        results.append((done.returncode, done.stdout, done.stderr, changed))
        before = after
    return results


def comparable(path, data):
    """A manifest as parsed JSON without elapsed_seconds, other files as they are."""
    if data is None or not path.endswith(".manifest.json"):
        return data
    manifest = json.loads(data)
    manifest.pop("elapsed_seconds", None)
    return manifest


def mismatches(argv, parent, tree):
    """One line per way the two results of argv differ."""
    lines = []
    command = " ".join(argv)
    for what, p, t in zip(("exit code", "stdout", "stderr"), parent[:3], tree[:3]):
        if p != t:
            lines.append("%s: %s differs" % (command, what))
    for path in sorted(parent[3].keys() | tree[3].keys()):
        if path not in parent[3] or path not in tree[3]:
            lines.append("%s: only one side wrote %s" % (command, path))
        elif comparable(path, parent[3][path]) != comparable(path, tree[3][path]):
            lines.append("%s: %s differs" % (command, path))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)

    head = git("rev-parse", "HEAD").decode().strip()
    shas = {"parent": git("rev-parse", args.parent + "^{commit}").decode().strip(),
            "tree": git("stash", "create").decode().strip() or head}
    bad = []
    count = 0
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in shas}
        for side, sha in shas.items():
            export(sha, trees[side])
        for name, commands in groups():
            results = {}
            for side in shas:
                work = os.path.join(tmp, "%s-%s" % (name, side))
                os.mkdir(work)
                results[side] = run_group(trees[side], commands, work)
            for argv, p, t in zip(commands, results["parent"], results["tree"]):
                bad += ["%s: %s" % (name, line) for line in mismatches(argv, p, t)]
            count += len(commands)
    print("\n".join(bad) if bad else
          "%d commands, same output at %s and %s" % (count, shas["parent"][:12],
                                                     shas["tree"][:12]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
