"""The traced run: spans around the CLI commands and around in-process calls
of each module's public functions, on the inputs the workloads use.

Spans are kept in memory and written out when the run ends.  A span has a
name (`<layer>.<function>`), start and end (perf_counter seconds), its own
identifier, its parent's, and a trace identifier shared by the spans of one
workload pass.  The layer calls of a workload nest under one `pass.<name>`
span; CLI commands are root spans.  A layer's self time is the time its spans
cover minus the time their children cover; `bench.self_s` is the time the
pass spans spend outside layer calls, on the benchmark's own checks.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import math
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from types import SimpleNamespace

import checks as C
from proc import SRC, env

LAYERS = ("cli", "system", "constructions", "closure", "spreading", "saturation",
          "completion", "parallel")
IMPORT_PROBES = 5
CLOSURE_SAMPLES = 200
VARIANCE_CALLS = 20


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace_id = None
        self._stack = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1]["span_id"] if self._stack else None
        rec = {"name": name, "trace_id": self.trace_id, "span_id": next(self._ids),
               "parent_id": parent}
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; returns (value, seconds)."""
        with self.span(name) as rec:
            value = fn(*args, **kwargs)
        return value, rec["end"] - rec["start"]

    def self_times(self):
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent_id"] is not None:
                covered[s["parent_id"]] += s["end"] - s["start"]
        totals = defaultdict(float)
        for s in self.spans:
            layer = s["name"].split(".")[0]
            totals["bench" if layer == "pass" else layer] += (
                s["end"] - s["start"] - covered[s["span_id"]])
        return totals

    def write(self, path):
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


def _lib():
    """The program's modules, imported from the checkout's src.

    A namespace, because the package re-exports functions under some module
    names (stspread.closure is the closure function).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{name: importlib.import_module("stspread." + name)
                              for name in LAYERS if name != "cli"})


def _parse(tr, lib, ctx, name):
    ts, _ = tr.call("system.parse", lib.system.parse, (ctx.work / name).read_text())
    return ts


def _scan31(tr, lib, ctx, record):
    m = {}
    pg4, r31 = _parse(tr, lib, ctx, "pg4.txt"), _parse(tr, lib, ctx, "r31.txt")
    # the fork pool's own cost, reported as parallel.self_s
    got, _ = tr.call("parallel.run_jobs", lib.parallel.run_jobs, abs, [-1, -2], 2)
    record("parallel.run_jobs", [] if got == [1, 2] else ["run_jobs returned %r" % got])

    (size, witness), t = tr.call("saturation.min_saturating_size",
                                 lib.saturation.min_saturating_size, r31)
    m["saturation.min_saturating_size.r31_s"] = t
    # candidates up to and including the colex-first witness
    scanned = sum(math.comb(31, j) for j in range(size)) + C.colex_rank(witness) + 1
    m["saturation.subsets_per_s"] = scanned / t
    record("saturation.min_saturating_size",
           C.check_saturating_witness(ctx.closure("r31.txt"), size, set(witness))
           + ([] if size == C.counting_bound(31) else ["size %d" % size]))

    enum = lib.spreading.enumerate_minimal_spreading_sets
    pg4_sets, t_pg4 = tr.call("spreading.enumerate_minimal_spreading_sets", enum, pg4, 5)
    m["spreading.enumerate.pg4_s"] = t_pg4
    record("spreading.enumerate.pg4", C.check_bases(list(pg4_sets.sets), 4))
    jobs2, m["spreading.enumerate.pg4_jobs2_s"] = tr.call(
        "spreading.enumerate_minimal_spreading_sets", enum, pg4, 5, jobs=2)
    record("spreading.enumerate.pg4_jobs2",
           [] if jobs2.sets == pg4_sets.sets else ["jobs=2 sets differ from jobs=1"])
    r31_sets, t_r31 = tr.call("spreading.enumerate_minimal_spreading_sets", enum, r31)
    m["spreading.enumerate.r31_s"] = t_r31
    record("spreading.enumerate.r31",
           C.check_minimal_spreading(ctx.closure("r31.txt"), list(r31_sets.sets)))
    m["spreading.minimal_sets_per_s"] = (
        (len(pg4_sets.sets) + len(r31_sets.sets)) / (t_pg4 + t_r31))
    return m


def _lattice63(tr, lib, ctx, record):
    m = {}
    pg5, pp5, r63 = (_parse(tr, lib, ctx, n) for n in ("pg5.txt", "pp5.txt", "r63.txt"))
    _, _, blocks = ctx.system("r63.txt")
    clo = ctx.closure("r63.txt")
    block_set = {tuple(b) for b in blocks}
    rng = random.Random(ctx.seed)
    triples = []
    while len(triples) < CLOSURE_SAMPLES:
        t = tuple(sorted(rng.sample(range(63), 3)))
        if t not in block_set:
            triples.append(t)
    times, wrong = [], 0
    for t in triples:
        got, dt = tr.call("closure.closure_points", lib.closure.closure_points, r63, t)
        times.append(dt)
        wrong += got != clo.points(t)
    m["closure.closure_points_us"] = statistics.median(times) * 1e6
    record("closure.closure_points", ["%d closures differ" % wrong] if wrong else [])

    spreading, m["closure.is_spreading_system_s"] = tr.call(
        "closure.is_spreading_system", lib.closure.is_spreading_system, r63)
    closed = lib.closure.enumerate_closed_sets
    pg5_sets, m["closure.enumerate_closed_sets.pg5_s"] = tr.call(
        "closure.enumerate_closed_sets", closed, pg5)
    want = C.n_projective_subspaces(6, (3, 4, 5))
    record("closure.enumerate_closed_sets.pg5",
           ([] if len(pg5_sets.sets) == want else ["%d sets" % len(pg5_sets.sets)])
           + C.check_xor_closed(pg5_sets.sets))
    r63_sets, m["closure.enumerate_closed_sets.r63_s"] = tr.call(
        "closure.enumerate_closed_sets", closed, r63)
    sets = list(r63_sets.sets)
    record("closure.enumerate_closed_sets.r63",
           C.check_closed_sets(clo, sets, blocks)
           + C.check_sampled_triples(clo, sets, blocks, triples))
    record("closure.is_spreading_system",
           [] if spreading == (not sets) else ["disagrees with the closed-set enumeration"])

    (size, witness), m["spreading.min_spreading_size.pg5_s"] = tr.call(
        "spreading.min_spreading_size", lib.spreading.min_spreading_size, pg5)
    record("spreading.min_spreading_size.pg5",
           [] if size == 6 and len(C.f2_span_indices(witness, 5)) == 63 else ["size %d" % size])
    (size, witness), m["spreading.min_spreading_size.pp5_s"] = tr.call(
        "spreading.min_spreading_size", lib.spreading.min_spreading_size, pp5)
    record("spreading.min_spreading_size.pp5",
           [] if size < 6 and ctx.closure("pp5.txt").spreads(witness) else ["size %d" % size])
    proj, m["spreading.check_projective.pg5_s"] = tr.call(
        "spreading.check_projective", lib.spreading.check_projective, pg5)
    record("spreading.check_projective.pg5", [] if proj else ["PG(5,2) not projective"])
    return m


def _large(tr, lib, ctx, record):
    m = {}
    ts, m["constructions.pg2_s"] = tr.call("constructions.pg2", lib.constructions.pg2, 10)
    text, m["system.serialize_s"] = tr.call("system.serialize", lib.system.serialize, ts)
    record("system.serialize", C.pg_rule(10, C.read_system(text)[2]))
    again, t = tr.call("system.parse", lib.system.parse, text)
    m["system.parse_s"] = t
    m["system.parse_mb_per_s"] = len(text) / 1e6 / t
    record("system.parse", [] if again == ts else ["parse(serialize(pg2(10))) differs"])
    del again
    again, m["system.build_s"] = tr.call("system.build_system", lib.system.build_system,
                                         ts.order, ts.triples, "steiner")
    record("system.build_system", [] if again == ts else ["rebuilt system differs"])
    del again, text
    greedy, m["spreading.greedy_spreading_set.pg10_s"] = tr.call(
        "spreading.greedy_spreading_set", lib.spreading.greedy_spreading_set, ts)
    powers = tuple((1 << k) - 1 for k in range(2, 12))
    record("spreading.greedy_spreading_set",
           [] if greedy.size == 11 and greedy.closure_sizes == powers else ["size %d" % greedy.size])
    del ts

    ag, m["constructions.ag3_s"] = tr.call("constructions.ag3", lib.constructions.ag3, 6)
    record("constructions.ag3", C.ag_rule(6, list(ag.triples)))

    complete = lib.completion.complete_partial
    # random_sts is complete_partial from the empty system; calling that
    # directly keeps the report and its move count
    empty = lib.system.build_system(255, ())
    rep, t = tr.call("completion.complete_partial", complete, empty, 255, seed=1)
    m["completion.random_sts_s"] = t
    m["completion.moves"] = rep.iterations
    m["completion.moves_per_s"] = rep.iterations / t
    record("completion.random_sts", C.pair_counts(255, rep.system.triples))
    s4 = _parse(tr, lib, ctx, "s4.txt")
    rep, m["completion.complete_partial_s"] = tr.call(
        "completion.complete_partial", complete, s4, 159, seed=0)
    record("completion.complete_partial",
           C.pair_counts(159, rep.system.triples)
           + ([] if set(s4.triples) <= set(rep.system.triples) else ["source block lost"]))
    (ts, base, btri), m["completion.two_minimal_sizes_sts_s"] = tr.call(
        "completion.two_minimal_sizes_sts", lib.completion.two_minimal_sizes_sts, 5, 0)
    clo = C.PairClosure(ts.order, ts.triples)
    ok = (clo.spreads(btri) and clo.spreads(base)
          and not any(clo.spreads(btri - {p}) for p in btri)
          and not any(clo.spreads(base - {p}) for p in base))
    record("completion.two_minimal_sizes_sts",
           C.pair_counts(ts.order, ts.triples) + ([] if ok else ["witnesses are not minimal"]))

    sat = lib.saturation
    sat.hyperplanes_pg2.cache_clear()
    fam, m["saturation.hyperplanes_pg2_s"] = tr.call(
        "saturation.hyperplanes_pg2", sat.hyperplanes_pg2, 10)
    rng = random.Random(ctx.seed)
    subset = rng.sample(range(2047), 1 + rng.randrange(2047))
    dev, m["saturation.deviating_hyperplane_s"] = tr.call(
        "saturation.deviating_hyperplane", sat.deviating_hyperplane, 10, subset)
    on_h = set(C.hyperplane_point_indices(10, dev.functional))
    record("saturation.deviating_hyperplane",
           [] if len(fam) == 2047 and dev.strict and dev.hyperplane == on_h
           and 2 * dev.deviation == abs(2 * len(on_h & set(subset)) - len(subset))
           else ["deviation does not match its hyperplane"])
    times = []
    for _ in range(VARIANCE_CALLS):
        (lhs, rhs), dt = tr.call("saturation.variance_identity", sat.variance_identity,
                                 10, subset)
        times.append(dt)
    m["saturation.variance_identity_us"] = statistics.median(times) * 1e6
    size = len(subset)
    closed_form = Fraction(size * (1 << 9)) - Fraction(size * size, 4)
    record("saturation.variance_identity",
           [] if lhs == rhs == closed_form else ["identity fails"])
    return m


PASSES = {"scan31": _scan31, "lattice63": _lattice63, "large": _large}


def traced_run(tracer, all_workloads, workload, session, untraced, startup_s):
    """Trace the workload's CLI commands and every workload's layer calls;
    returns {metric: (value, unit)}."""
    def traced_cli(cmd):
        session.clear_outputs([cmd])
        with tracer.span("cli." + cmd.key) as rec:
            done = session.spawner.run(cmd.argv, cmd.key)
        session.check(cmd, done)
        return rec["end"] - rec["start"]

    tracer.trace_id = workload.name
    traced = {cmd.key: traced_cli(cmd) for cmd in workload.commands}
    base = sum(untraced.values())
    overhead = sum(traced.values()) - base
    if "enumerate_pg4" not in traced:
        tracer.trace_id = "scan31"
        traced["enumerate_pg4"] = traced_cli(
            next(c for c in all_workloads["scan31"].commands if c.key == "enumerate_pg4"))

    figures = {}
    lib = _lib()
    for name, body in PASSES.items():
        tracer.trace_id = name
        with tracer.span("pass." + name):
            figures.update(body(tracer, lib, session.ctx, session.record))

    tracer.trace_id = "cli"
    imports = []
    code = ("import time; t = time.perf_counter(); import stspread.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(IMPORT_PROBES):
        with tracer.span("cli.import"):
            got = subprocess.run([sys.executable, "-c", code], env=env(),
                                 capture_output=True, text=True, check=False)
        session.record("cli.import", [] if got.returncode == 0 else [got.stderr[-200:]])
        if got.returncode == 0:
            imports.append(float(got.stdout))
    figures["cli.import_s"] = statistics.median(imports or [0.0])
    figures["cli.render_s"] = (traced["enumerate_pg4"] - startup_s
                               - figures["spreading.enumerate.pg4_s"])
    figures["trace.overhead_s"] = overhead
    figures["trace.overhead_pct"] = 100 * overhead / base

    selfs = tracer.self_times()
    for layer in LAYERS + ("bench",):
        figures[layer + ".self_s"] = selfs.get(layer, 0.0)
    return {k: (v, unit_of(k)) for k, v in sorted(figures.items())}


def unit_of(name):
    for suffix, unit in (("_us", "us"), ("_mb_per_s", "MB/s"), ("_per_s", "1/s"),
                         ("_pct", "%"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"
