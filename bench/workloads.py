"""The three CLI workloads and the check applied to each command's output.

A workload is a list of set-up commands that write its input files and a list
of commands that make one pass.  The systems are pinned to the seeds of the
reference figures (random systems seed 1, perturbed space seed 0, embedding
and two-sizes seed 0), so that a pass does the same work whatever the
benchmark seed; the benchmark seed picks the point set given to
`analyze closure`, the trials of `demo szoras` and the triples sampled by the
checks.  Every check compares the output with a separate computation or a
property the method must have, never with a stored copy of an output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks as C

@dataclass(frozen=True)
class Cmd:
    """One CLI invocation: key names it within its workload, metric is the
    end-to-end metric its time adds to, files are the outputs it writes."""

    key: str
    argv: tuple
    check: Callable
    metric: Optional[str] = None
    files: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple
    commands: tuple


# -- parsing CLI output ----------------------------------------------------


def kv(out):
    """key=value fields of every line."""
    fields = {}
    for line in out.splitlines():
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep:
                fields[key] = value
    return fields


def pts(text):
    return frozenset(int(x) for x in text.split(",") if x)


def listed_sets(out):
    """Sets printed one per line after the count line, either as bare point
    lists or as `size=K points=...`."""
    return [pts(line.rpartition("=")[2]) for line in out.splitlines()[1:]]


def _count_line(out, want_count):
    head = kv(out.splitlines()[0]) if out else {}
    bad = []
    if head.get("truncated") != "false":
        bad.append("result is truncated or has no count line")
    if head.get("count") != str(want_count):
        bad.append("count=%s, expected %d" % (head.get("count"), want_count))
    return bad


class Context:
    """What the checks of one run share: the seed, the first stdout of each
    command, and systems read from the work directory."""

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed
        self.stdout = {}
        self._systems = {}
        self._closures = {}

    def system(self, name):
        if name not in self._systems:
            self._systems[name] = C.read_system((self.work / name).read_text())
        return self._systems[name]

    def closure(self, name):
        if name not in self._closures:
            order, _, blocks = self.system(name)
            self._closures[name] = C.PairClosure(order, blocks)
        return self._closures[name]


# -- checks ----------------------------------------------------------------


def constructed(name, order, kind, rule):
    """`construct ... --out name` reported and wrote a system passing rule."""

    def check(out, ctx):
        got_order, got_kind, blocks = ctx.system(name)
        bad = []
        if (got_order, got_kind) != (order, kind):
            bad.append("%s header is %s %s" % (name, got_order, got_kind))
        fields = kv(out.splitlines()[0])
        if fields.get("order") != str(order) or fields.get("blocks") != str(len(blocks)):
            bad.append("report line %r disagrees with the file" % out.splitlines()[0])
        return bad + rule(blocks)

    return check


def probe_check(out, ctx):
    want = str(C.variance_sum_by_enumeration(3, [0, 1, 2, 6]))
    fields = kv(out)
    if fields.get("lhs") != want or fields.get("rhs") != want:
        return ["variance identity printed %s / %s, expected %s"
                % (fields.get("lhs"), fields.get("rhs"), want)]
    return []


# the startup probe: a CLI start that does almost no work
PROBE = Cmd("probe", ("saturate", "variance", "--n", "3", "--set", "0,1,2,6"), probe_check)


def same_as(key):
    def check(out, ctx):
        return [] if out == ctx.stdout[key] else ["stdout differs from %s" % key]
    return check


def demo_ok(out, ctx):
    lines = out.splitlines()
    if not lines or lines[-1] != "result=ok" or any(l.startswith("FAIL") for l in lines):
        return ["demo did not print result=ok"]
    return []


def saturate_min_r31(out, ctx):
    fields = kv(out)
    size, witness = int(fields["size"]), pts(fields["witness"])
    bad = C.check_saturating_witness(ctx.closure("r31.txt"), size, witness)
    bound = C.counting_bound(31)
    if size != bound:
        bad.append("size %d, the counting bound %d is attained at seed 1" % (size, bound))
    return bad


def enumerate_pg4(out, ctx):
    sets = listed_sets(out)
    return _count_line(out, len(sets)) + C.check_bases(sets, 4)


def enumerate_r31(out, ctx):
    sets = listed_sets(out)
    return _count_line(out, len(sets)) + C.check_minimal_spreading(ctx.closure("r31.txt"), sets)


def spread_min_pg5(out, ctx):
    fields = kv(out)
    size, witness = int(fields["size"]), pts(fields["witness"])
    # k points span at most 2^k - 1 points, so 6 is also a lower bound
    if size != 6 or len(witness) != 6 or len(C.f2_span_indices(witness, 5)) != 63:
        return ["size %d witness %s does not span F2^6" % (size, sorted(witness))]
    return []


def spread_min_pp5(out, ctx):
    fields = kv(out)
    size, witness = int(fields["size"]), pts(fields["witness"])
    if len(witness) != size or not size < 6 or not ctx.closure("pp5.txt").spreads(witness):
        return ["size %d witness %s is not a spreading set below 6" % (size, sorted(witness))]
    return []


def subsystems_pg5(out, ctx):
    sets = listed_sets(out)
    want = C.n_projective_subspaces(6, (3, 4, 5))
    bad = _count_line(out, want)
    if len(sets) != want or len(set(sets)) != len(sets):
        bad.append("%d distinct sets listed, PG(5,2) has %d subspaces" % (len(set(sets)), want))
    if any(len(s) not in (7, 15, 31) for s in sets):
        bad.append("a set is not of subspace size")
    return bad + C.check_xor_closed(sets)


def subsystems_r63(out, ctx):
    sets = listed_sets(out)
    _, _, blocks = ctx.system("r63.txt")
    clo = ctx.closure("r63.txt")
    return (_count_line(out, len(sets)) + C.check_closed_sets(clo, sets, blocks)
            + C.check_sampled_triples(clo, sets, blocks, sample_triples(63, ctx.seed)))


def projective(expected):
    def check(out, ctx):
        if out != "projective=%s\n" % str(expected).lower():
            return ["printed %r" % out]
        if not expected and len(ctx.closure("pp5.txt").points((1, 3, 7))) != 15:
            return ["{1,3,7} does not close to 15 points"]
        return []
    return check


def closure_pg10(points):
    def check(out, ctx):
        fields = kv(out)
        span = C.f2_span_indices(points, 10)
        if pts(fields["closure"]) != span or fields["size"] != str(len(span)):
            return ["closure of %s is not its F2 span" % sorted(points)]
        if fields["spreading"] != "false":
            return ["a 3-point set reported spreading"]
        return []
    return check


def greedy_pg10(out, ctx):
    fields = kv(out)
    witness = pts(fields["witness"])
    sizes = fields["closure_sizes"]
    want = ",".join(str((1 << k) - 1) for k in range(2, 12))
    if fields["size"] != "11" or len(witness) != 11 or sizes != want or not C.f2_independent(witness):
        return ["greedy gave size %s closure sizes %s" % (fields["size"], sizes)]
    return []


def embedded(out, ctx):
    fields = kv(out)
    order, _, blocks = ctx.system("emb.txt")
    _, _, source = ctx.system("s4.txt")
    bad = C.pair_counts(order, blocks)
    if fields.get("success") != "true" or order != 159:
        bad.append("embedding did not succeed at order 159")
    if not set(source) <= set(blocks):
        bad.append("the embedding lost a source block")
    return bad


# -- inputs picked by the benchmark seed -----------------------------------


def closure_set(seed):
    """The set given to `analyze closure` on PG(10,2); {0,1,3} at seed 0."""
    if seed == 0:
        return (0, 1, 3)
    return tuple(sorted(random.Random(seed).sample(range(2047), 3)))


def sample_triples(order, seed, count=2000):
    rng = random.Random(seed)
    return [tuple(rng.sample(range(order), 3)) for _ in range(count)]


# -- the workloads ---------------------------------------------------------


def _construct(key, args, name, order, kind, rule, metric=None):
    return Cmd(key, ("construct",) + args + ("--out", name),
               constructed(name, order, kind, rule), metric, (name,))


def _analyze(name, *args):
    return ("analyze", "--system", name) + args


def _steiner(order):
    return lambda blocks: C.pair_counts(order, blocks)


def build(seed):
    """The workloads, keyed by name, with inputs made from seed."""
    pg = lambda dim: (lambda blocks: C.pg_rule(dim, blocks))
    cset = closure_set(seed)
    scan31 = Workload(
        "scan31",
        setup=(
            _construct("pg4", ("pg2", "--dim", "4"), "pg4.txt", 31, "steiner", pg(4)),
            _construct("r31", ("random", "--order", "31", "--seed", "1"), "r31.txt", 31,
                       "steiner", _steiner(31)),
        ),
        commands=(
            Cmd("saturate_min", ("saturate", "min", "--system", "r31.txt"), saturate_min_r31,
                "saturate_min_s"),
            Cmd("enumerate_pg4", _analyze("pg4.txt", "spread", "enumerate", "--max-size", "5"),
                enumerate_pg4, "spread_enumerate_s"),
            Cmd("enumerate_pg4_jobs2",
                ("--jobs", "2") + _analyze("pg4.txt", "spread", "enumerate", "--max-size", "5"),
                same_as("enumerate_pg4"), "spread_enumerate_jobs2_s"),
            Cmd("enumerate_r31", _analyze("r31.txt", "spread", "enumerate"), enumerate_r31,
                "spread_enumerate_s"),
        ),
    )
    lattice63 = Workload(
        "lattice63",
        setup=(
            _construct("pg5", ("pg2", "--dim", "5"), "pg5.txt", 63, "steiner", pg(5)),
            _construct("pp5", ("perturbed-pg", "--dim", "5", "--seed", "0"), "pp5.txt", 63,
                       "steiner", _steiner(63)),
            _construct("r63", ("random", "--order", "63", "--seed", "1"), "r63.txt", 63,
                       "steiner", _steiner(63)),
        ),
        commands=(
            Cmd("spread_min_pg5", _analyze("pg5.txt", "spread", "min"), spread_min_pg5,
                "spread_min_s"),
            Cmd("spread_min_pp5", _analyze("pp5.txt", "spread", "min"), spread_min_pp5,
                "spread_min_s"),
            Cmd("subsystems_pg5", _analyze("pg5.txt", "subsystems"), subsystems_pg5,
                "subsystems_s"),
            Cmd("subsystems_r63", _analyze("r63.txt", "subsystems"), subsystems_r63,
                "subsystems_s"),
            Cmd("projective_pg5", _analyze("pg5.txt", "projective"), projective(True)),
            Cmd("projective_pp5", _analyze("pp5.txt", "projective"), projective(False)),
        ),
    )
    large = Workload(
        "large",
        setup=(
            _construct("s4", ("section4", "--n", "5"), "s4.txt", 79, "partial",
                       lambda blocks: C.pair_counts(79, blocks, steiner=False)),
        ),
        commands=(
            _construct("construct_pg10", ("pg2", "--dim", "10"), "pg10.txt", 2047, "steiner",
                       pg(10), "construct_s"),
            _construct("construct_ag6", ("ag3", "--dim", "6"), "ag6.txt", 729, "steiner",
                       lambda blocks: C.ag_rule(6, blocks), "construct_s"),
            Cmd("closure_pg10", _analyze("pg10.txt", "closure", "--set", ",".join(map(str, cset))),
                closure_pg10(cset), "load_s"),
            Cmd("greedy_pg10", _analyze("pg10.txt", "spread", "greedy"), greedy_pg10, "load_s"),
            _construct("random255", ("random", "--order", "255", "--seed", "1"), "r255.txt", 255,
                       "steiner", _steiner(255), "random_sts_s"),
            Cmd("embed", ("embed", "--system", "s4.txt", "--target", "159", "--seed", "0",
                          "--out", "emb.txt"), embedded, "embed_s", ("emb.txt",)),
            Cmd("two_sizes", ("demo", "two-sizes", "--n", "5"), demo_ok, "two_sizes_s"),
            Cmd("szoras", ("demo", "szoras", "--n", "10", "--trials", "200", "--seed", str(seed)),
                demo_ok, "szoras_s"),
        ),
    )
    return {w.name: w for w in (scan31, lattice63, large)}
