"""Record alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/record_bench.py --label L [--parent REV] [--pairs N] [--seconds S]

Exports REV (default HEAD) with `git archive` into one temporary directory
and the working tree into another: a commit made by `git stash create`
when tracked files differ from HEAD, else HEAD itself, so files git does
not track are left out.  Both sides thus run from the same kind of place.
Then, for each of N pairs and each of the three workloads, it runs the unchanged

    python3 bench/run.py --workload W --trace 0 --seconds S --seed 0

once in each export, the parent first in even pairs and the working tree
first in odd ones, so that neither side always meets the machine in the
same state.  Every run is a fresh process with PYTHONPATH cleared;
bench/run.py puts its own tree's src first.

It writes BENCH_<L>.json at the root of the working tree.  Per workload it
holds, for the parent and the tree, the median and quartiles of each gated
end-to-end metric of BENCHMARK.json and of startup_s (the interpreter
start-up probe that bench/run.py prints but leaves out of its last line),
the per-command medians, whether every run was correct and how many
operations failed in all; per gated metric it counts the pairs the tree won
(a tie is no win); the raw values of every run are kept too.  The header
names the parent commit, the working tree's HEAD and the commit it was
exported from (HEAD itself when the tree is clean), the Python version,
os.cpu_count(), the seed and --seconds, and whether PYTHONDONTWRITEBYTECODE
was set: the runs inherit it, and with it set every CLI process compiles
the package from source, so start-up numbers depend on it.  With --parent
HEAD and a clean tree it is an A/A run, which shows the noise.

Quartiles are statistics.quantiles(values, n=4, method="inclusive").  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan31", "lattice63", "large")
SEED = 0
COMMAND_LINE = re.compile(r"^  cmd\.(\S+)\s+(\S+) s$")
STARTUP_LINE = re.compile(r"^startup_s\s+(\S+) s$")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev, into):
    """Unpack the files of commit rev into the directory into."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into)


def run_bench(tree, workload, seconds):
    """One run of bench/run.py in tree: (correct, failed, metrics, per-command
    seconds, startup seconds)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0",
            "--seconds", str(seconds), "--seed", str(SEED)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit("bench/run.py failed in %s (exit %d): %s"
                         % (tree, done.returncode, done.stderr.strip()[-500:]))
    last = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    per_command = {m[1]: float(m[2]) for m in map(COMMAND_LINE.match, lines) if m}
    startup = next(float(m[1]) for m in map(STARTUP_LINE.match, lines) if m)
    return last["correct"], last["failed"], metrics, per_command, startup


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs, gated):
    """The record of one workload from its runs {"parent": [...], "tree": [...]}."""
    metrics = {}
    for name, better in gated.items():
        values = {side: [r[2][name] for r in runs[side]] for side in runs}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * t < sign * p for p, t in zip(values["parent"], values["tree"]))
        metrics[name] = {"better": better, "tree_wins": wins,
                         **{side: spread(v) for side, v in values.items()}}
    commands = {side: {key: statistics.median(r[3][key] for r in rs) for key in rs[0][3]}
                for side, rs in runs.items()}
    return {
        "metrics": metrics,
        "startup_s": {side: spread([r[4] for r in rs]) for side, rs in runs.items()},
        "per_command_median_s": commands,
        "correct": {side: all(r[0] for r in rs) for side, rs in runs.items()},
        "failed": {side: sum(r[1] for r in rs) for side, rs in runs.items()},
        "runs": {side: [r[2] for r in rs] for side, rs in runs.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    gated = {m["name"]: m["better"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    head = git("rev-parse", "HEAD").decode().strip()
    shas = {"parent": git("rev-parse", args.parent + "^{commit}").decode().strip(),
            "tree": git("stash", "create").decode().strip() or head}
    record = {
        "label": args.label,
        "command": "python3 bench/run.py --workload W --trace 0 --seconds %s --seed %d"
                   % (args.seconds, SEED),
        "parent": {"rev": args.parent, "sha": shas["parent"]},
        "tree": {"head": head, "sha": shas["tree"], "dirty": shas["tree"] != head},
        "python": platform.python_version(),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": {},
    }
    runs = {w: {"parent": [], "tree": []} for w in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in shas}
        for side, sha in shas.items():
            export(sha, trees[side])
        for i in range(args.pairs):
            order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
            for w in WORKLOADS:
                for side in order:
                    runs[w][side].append(run_bench(trees[side], w, args.seconds))
                    print("pair %d/%d %s %s: %s" % (i + 1, args.pairs, w, side,
                                                   runs[w][side][-1][2]), file=sys.stderr)
    for w in WORKLOADS:
        record["workloads"][w] = summary(runs[w], gated)
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
