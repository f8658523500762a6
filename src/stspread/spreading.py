"""Search and verification for spreading sets.

A spreading set generates the whole system under closure.  Greedy growth
(always adjoin a point outside the current closure) shows every Steiner
system of order n has a spreading set of at most floor(log2(n+1)) points:
adjoining an outside point at least doubles the closure plus one, because a
proper subsystem of an STS(v) has order at most (v-1)/2.  Equality at every
step forces the closure sizes 3, 7, 15, ... of the binary projective spaces.
check_projective recognises those spaces by the GF(2) coordinates of
closure._coordinates, and min_spreading_size answers them from it without a
search.

On any other input min_spreading_size walks the closure lattice
breadth-first instead of scanning raw subsets: for a spreading set of
minimum size every generator lies outside the closure of the others
(otherwise dropping it keeps the set spreading), so minimum witnesses
correspond exactly to chains
cl(p1,p2) < cl(.. p3) < ... that end at the full point set, and distinct
chains through the same closed set can be merged.  This is the subset scan
with closed-set pruning taken to its limit and returns the same value.
The walk reads the distinct pair closures, the blocks, from the pair table
and takes them in colex order of their least pairs, which is the order in
which closing the pairs in colex order first meets them.  closure._walk
(which enumerate_closed_sets and is_spreading_system share) then closes
each closed set plus each outside point in bit-sliced chunks and yields
the closures in the order of a scalar breadth-first search, so the first
whole-set closure it yields is the one that search meets first.

The greedy search (greedy.py) and the scan for every minimal spreading set
(enumeration.py) live in modules of their own, whose public names this
module serves on first use, so a lattice search compiles neither.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _served, config
from .closure import _coordinates, _pair_closures, _walk, closure_points
from .errors import NotProjectiveTagError, NotSteinerError, TooLargeError
from .system import TripleSystem


def min_spreading_size(ts: TripleSystem):
    """Least size of a spreading set, with a witness.

    On PG(d,2), certified by closure._coordinates, the answer is d+1 with
    the greedy witness from {0, 1}, and no walk runs.  The size is minimal
    because k points close to at most 2^k - 1 points (each adjoined point
    at most doubles the closure plus one).  The witness is the walk's:
    there the closed sets are the subspaces, and the first entry of each
    level is the first entry of the level before plus its least outside
    point.  Every hyperplane plus any outside point spreads, so the first
    spreading candidate is the first hyperplane plus its least outside
    point, which is the greedy chain from {0, 1}.  That chain is read off
    the labels: _coordinates gives the next basis bit to each point it
    finds outside the closure of the points labelled so far, taking the
    points in index order, so the points with a one-bit label are the
    chain, and no other point has one.  Every other input takes the walk
    of _walk_min_spreading; only the walk is capped in order.
    """
    if not ts.is_steiner():
        raise NotSteinerError("min_spreading_size needs a Steiner system")
    n = ts.order
    if n == 1:
        return 1, frozenset({0})
    label = _coordinates(ts)
    if label is not None:
        return n.bit_length(), frozenset(p for p, v in enumerate(label) if not v & (v - 1))
    if n > config.order_cap(config.MAX_MIN_SPREAD_ORDER):
        raise TooLargeError("min_spreading_size capped at order %d"
                            % config.order_cap(config.MAX_MIN_SPREAD_ORDER))
    return _walk_min_spreading(ts)


def _walk_min_spreading(ts):
    """min_spreading_size by a breadth-first walk of the closure lattice.

    Breadth-first search over distinct closures of generator chains; see the
    module docstring for why this matches the exhaustive subset scan.  The
    closures of one level are visited in the order they were found, each
    with its outside points ascending, and several levels share a batch;
    the witness is the first chain in that order whose closure is every
    point, the same as in the scalar search.
    """
    n = ts.order
    full = (1 << n) - 1
    seeds = sorted(_pair_closures(ts), key=lambda s: (s[1], s[0]))
    gens = []  # gens[e]: the chain that reaches walked set e
    for a, b, mask in seeds:
        if mask == full:
            return 2, frozenset({a, b})
        gens.append((a, b))
    for e, p, mask in _walk(ts, [mask for _, _, mask in seeds]):
        if mask == full:
            return len(gens[e]) + 1, frozenset(gens[e] + (p,))
        gens.append(gens[e] + (p,))
    raise NotSteinerError("no spreading set found; system is not connected")


def check_projective(ts: TripleSystem) -> bool:
    """Is the system a binary projective space?

    True exactly when closure._coordinates labels the points by the nonzero
    vectors of GF(2)^(d+1) so that every block is {x, y, x xor y}.
    """
    if not ts.is_steiner():
        raise NotSteinerError("projectivity test needs a Steiner system")
    return _coordinates(ts) is not None


class DimensionCheckReport(NamedTuple):
    """Outcome of randomized dimension-theorem checks on PG(d,2).

    For closed sets the dimension is log2(size+1) - 1 (the empty set having
    dimension -1); each trial checks that dimensions are integral, that the
    intersection of two closed sets is closed, and that
    dim cl(Y u Z) + dim (Y n Z) = dim Y + dim Z.
    """

    trials: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _dim(size: int):
    if (size + 1) & size:
        return None
    return (size + 1).bit_length() - 2


def verify_dimension_theorem(
    ts: TripleSystem, trials: int = 500, seed: int = 0
) -> DimensionCheckReport:
    """Randomized check of the dimension identity on PG(d,2).

    Any system that closure._coordinates certifies is accepted, whatever its
    tag or point order, and d is read from its order.
    """
    if _coordinates(ts) is None:
        raise NotProjectiveTagError("dimension checks need a binary projective space")
    d = ts.order.bit_length() - 1
    d_cap = config.pg_dim_cap(config.MAX_DIMENSION_CHECK_DIM)
    if d > d_cap:
        raise TooLargeError("dimension checks capped at d = %d" % d_cap)
    import random

    rng = random.Random(seed)
    n = ts.order
    bad = []
    for t in range(trials):
        y = closure_points(ts, rng.sample(range(n), rng.randint(0, d + 1)))
        z = closure_points(ts, rng.sample(range(n), rng.randint(0, d + 1)))
        inter = y & z
        join = closure_points(ts, y | z)
        dims = [_dim(len(s)) for s in (y, z, inter, join)]
        closed_ok = closure_points(ts, inter) == inter
        ident_ok = (
            None not in dims and dims[3] + dims[2] == dims[0] + dims[1]
        )
        if not (closed_ok and ident_ok):
            bad.append((t, tuple(sorted(y)), tuple(sorted(z))))
    return DimensionCheckReport(trials, tuple(bad))


def __getattr__(name):
    """Public names of the greedy search and of the subset scan, served from
    their modules on first use through the package's table.  Only
    bench/layers.py reads them here; this forwarder goes with ROADMAP
    direction 3."""
    return _served(globals(), name, ("greedy", "enumeration"))
