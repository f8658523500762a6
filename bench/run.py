"""Benchmark of the stspread command line: closed-loop workloads, checked outputs.

    python3 bench/run.py [--workload scan31|lattice63|large|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Each workload is one client: every command starts after the previous one
ends.  A run builds the workload's input files (several times, for
`setup_s`), then repeats passes over its commands until `--seconds` have
gone by, and checks every output against a computation made apart from the
program (checks.py).  Commands run as `python -m stspread.cli` with `src` on
PYTHONPATH and are timed with tracing off.  With `--trace 1` the run also
times the same commands as root spans and calls each module's public
functions in-process on the same inputs (layers.py); those spans give the
per-layer metrics.

Lines before the last one name every metric with its unit; the last line is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from importlib import metadata

from proc import OUT, ROOT, SRC, Spawner

SETUP_REPEATS = 5
PROBES_PER_COMMAND = 3

# The end-to-end metrics of BENCHMARK.json, which every workload reports and
# the last line carries with --trace 0.  startup_s and the per-command
# figures are printed too but not gated: startup_s moved by up to 11% between
# runs on a shared 2-core machine, and each per-command figure belongs to
# one workload only.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_geomean_s": "s",
    "peak_rss_mb": "MB",
}


class Session:
    """Runs commands through a spawner, counts operations and checks outputs.

    The first output of a command is checked in full; every later run of the
    same command must repeat its stdout and output files byte for byte.
    """

    def __init__(self, ctx, spawner):
        self.ctx = ctx
        self.spawner = spawner
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"op": name, "problems": problems[:5]})

    def check(self, cmd, done):
        if done.code != 0:
            tail = done.stderr.strip().splitlines()[-1:] or [""]
            self.record(cmd.key, ["exit code %d: %s" % (done.code, tail[0])])
            return
        digest = hashlib.sha256(done.stdout.encode())
        for name in cmd.files:
            digest.update((OUT / name).read_bytes())
        digest = digest.hexdigest()
        first = self.digests.setdefault(cmd.key, digest)
        if cmd.key not in self.ctx.stdout:
            self.ctx.stdout[cmd.key] = done.stdout
            problems = run_check(cmd.check, done.stdout, self.ctx)
        elif digest != first:
            problems = ["stdout or output files differ from the first run"]
        else:
            problems = []
        self.record(cmd.key, problems)


    @staticmethod
    def clear_outputs(cmds):
        """Remove the output files of earlier runs, so that every command
        writes fresh files (see Spawner.run)."""
        for cmd in cmds:
            for name in cmd.files:
                for old in OUT.glob(name + "*"):
                    old.unlink()

    def run(self, cmds):
        """Run cmds back to back, then check them; returns (wall seconds, results)."""
        self.clear_outputs(cmds)
        start = time.perf_counter()
        done = [self.spawner.run(c.argv, c.key) for c in cmds]
        wall = time.perf_counter() - start
        for cmd, d in zip(cmds, done):
            self.check(cmd, d)
        return wall, done


def run_check(check, out, ctx):
    try:
        return check(out, ctx)
    except Exception as exc:  # a malformed output must fail its check, not the run
        return ["check raised %s: %s" % (type(exc).__name__, exc)]


def setup(session, workload, repeats):
    return [session.run(workload.setup)[0] for _ in range(repeats)]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure(session, workload, seconds, probe):
    """Passes until `seconds` have gone by; returns per-pass records.

    Startup probes run before each command rather than in one block, so that
    a passing disturbance of the machine reaches few of them.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        probes, cmds = [], {}
        for cmd in workload.commands:
            probes += session.run([probe] * PROBES_PER_COMMAND)[1]
            cmds[cmd.key] = session.run([cmd])[1][0]
        passes.append({"probes": [d.seconds for d in probes], "cmds": cmds})
    return passes


def end_to_end(workload, setup_times, passes):
    """Every end-to-end figure of the run: the gated ones and the per-command ones."""
    med = lambda f: statistics.median(f(p) for p in passes)
    figures = {
        "setup_s": statistics.median(setup_times),
        "wall_s": med(lambda p: sum(d.seconds for d in p["cmds"].values())),
        "cmd_geomean_s": med(lambda p: geomean([d.seconds for d in p["cmds"].values()])),
        "startup_s": statistics.median(t for p in passes for t in p["probes"]),
        "peak_rss_mb": max(d.rss_mb for p in passes for d in p["cmds"].values()),
    }
    for cmd in workload.commands:
        if cmd.metric and cmd.metric not in figures:
            figures[cmd.metric] = med(lambda p, m=cmd.metric: sum(
                p["cmds"][c.key].seconds for c in workload.commands if c.metric == m))
    per_command = {c.key: med(lambda p, k=c.key: p["cmds"][k].seconds) for c in workload.commands}
    return figures, per_command


def git_sha():
    """HEAD's commit, read from .git without running git; "unknown" outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy,
            "cpu_count": os.cpu_count(), "seed": seed}


def run_workload(spawner, name, all_workloads, seed, seconds, trace):
    """One run of one workload; returns its result record."""
    import layers
    from workloads import PROBE, Context

    workload = all_workloads[name]
    session = Session(Context(OUT, seed), spawner)
    setup_times = setup(session, workload, SETUP_REPEATS)
    passes = measure(session, workload, seconds, PROBE)
    figures, per_command = end_to_end(workload, setup_times, passes)
    record = {"workload": name, "environment": environment(seed), "passes": len(passes),
              "end_to_end": figures, "per_command_s": per_command}
    if trace:
        for other in all_workloads.values():
            if other is not workload:
                setup(session, other, 1)
        tracer = layers.Tracer()
        layer_figures = layers.traced_run(tracer, all_workloads, workload, session, per_command,
                                          figures["startup_s"])
        record["per_layer"] = layer_figures
        tracer.write(OUT / ("spans-%s-seed%d.json" % (name, seed)))
    record["attempted"] = session.attempted
    record["failures"] = session.failures
    (OUT / ("result-%s-seed%d-trace%d.json" % (name, seed, trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(record, trace):
    """Print every figure of a record; return the metrics the last line carries."""
    env = record["environment"]
    print("# workload=%s passes=%d seed=%s git=%s python=%s numpy=%s cpus=%s"
          % (record["workload"], record["passes"], env["seed"], env["git_sha"][:12],
             env["python"], env["numpy"], env["cpu_count"]))
    for key, value in record["end_to_end"].items():
        print("%-28s %12.4f %s" % (key, value, END_TO_END.get(key, "s")))
    for key, value in record["per_command_s"].items():
        print("  cmd.%-24s %10.4f s" % (key, value))
    for failure in record["failures"]:
        print("FAILED %s: %s" % (failure["op"], "; ".join(failure["problems"])))
    if not trace:
        return {k: {"value": record["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    for key, (value, unit) in record["per_layer"].items():
        print("%-44s %14.6g %s" % (key, value, unit))
    return {k: {"value": v, "unit": u} for k, (v, u) in record["per_layer"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("scan31", "lattice63", "large", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "stspread" / "cli.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        sys.stderr.write("error: the program is not next to the benchmark; missing %s\n"
                         % ", ".join(str(p.relative_to(ROOT)) for p in missing))
        return 2
    OUT.mkdir(exist_ok=True)
    # imported only now: checks.py, under workloads and layers, needs tests/oracles.py
    from workloads import build

    all_workloads = build(args.seed)
    names = list(all_workloads) if args.workload == "all" else [args.workload]
    metrics = {}
    attempted = failed = 0
    with Spawner() as spawner:
        for name in names:
            record = run_workload(spawner, name, all_workloads, args.seed, args.seconds,
                                  args.trace)
            shown = report(record, args.trace)
            attempted += record["attempted"]
            failed += len(record["failures"])
            if len(names) == 1:
                metrics = shown
            else:
                metrics.update({"%s.%s" % (name, k): v for k, v in shown.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
