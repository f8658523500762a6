"""Size caps for the search-heavy operations.

Each cap bounds the order (point count) a given routine will accept before
raising TooLargeError.  The environment variable STS_MAX_ORDER, when set,
must be a positive integer and overrides every order cap at once; callers
that need a one-off override can also pass explicit keyword arguments where
offered.  Caps given as a dimension or a parameter (MAX_HYPERPLANE_DIM,
MAX_DIMENSION_CHECK_DIM, MAX_SECTION_N) go through the order of the space
they stand for (pg_dim_cap, section_n_cap), so STS_MAX_ORDER moves them too.
The subset and lattice searches have no order cap here: each stops at a
work budget instead, at any order.  The minimal spreading set listing and
the hyperplane-intersection extremes take their own budgets; the lattice
walk of min_spreading_size and the saturating-set scan share
DEFAULT_WORK_BUDGET, which STS_MAX_ORDER does not move.
"""

import os

from .errors import BadOrderError

# Largest system any construction will build.
MAX_CONSTRUCTION_ORDER = 2047

# Candidate steps allowed to the lattice walk of min_spreading_size and to
# the saturating-set scan: one step is one candidate set checked against one
# point or one block, so a candidate costs order + blocks steps.  The walk on
# perturbed_pg(6, 0) takes 4.9e9 and a scan of any STS(31) through level 10
# 1.35e10; a Steiner scan of order 63 needs 4.4e14 at its first level.
DEFAULT_WORK_BUDGET = 2 * 10 ** 10

# PG(n,2) hyperplane families and the related bounds.
MAX_HYPERPLANE_DIM = 10

# Dimension-theorem spot checks run on PG(d,2) up to this d.
MAX_DIMENSION_CHECK_DIM = 5

# Two-sizes construction input n (AG(n-1,3) must stay desk-scale).
MAX_SECTION_N = 6

# Hill-climbing completion budget: restarts, and moves per restart (below).
DEFAULT_RESTARTS = 50


def default_moves(order: int) -> int:
    """Moves per restart of a climb to the given order: 8 per pair, and never
    fewer than 10^6, which is the budget up to order 500.  The moves a climb
    needs grow faster than its pairs: 26,079 at order 127, 118,676 at 255 and
    550,843 at 511 (seed 1)."""
    return max(10 ** 6, 4 * order * (order - 1))


def order_cap(default: int) -> int:
    """Return the effective order cap: STS_MAX_ORDER when set, else default.

    Raises BadOrderError when STS_MAX_ORDER is set to anything but a
    positive integer, rather than silently falling back to default.
    """
    raw = os.environ.get("STS_MAX_ORDER")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise BadOrderError("STS_MAX_ORDER must be a positive integer, got %r" % raw)
    return value


def section_n_cap() -> int:
    """Largest n accepted by the two-sizes construction: the largest n with
    AG(n-1,3), of order 3^(n-1), within the order cap (default 3^(MAX_SECTION_N-1))."""
    cap = order_cap(3 ** (MAX_SECTION_N - 1))
    n = 1
    while 3 ** n <= cap:
        n += 1
    return n


def pg_dim_cap(default_dim: int) -> int:
    """Largest n with PG(n,2), of order 2^(n+1) - 1, within the order cap
    (default 2^(default_dim+1) - 1, so the default result is default_dim)."""
    cap = order_cap((1 << (default_dim + 1)) - 1)
    return (cap + 1).bit_length() - 2
