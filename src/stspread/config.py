"""Size caps for the search-heavy operations.

Each cap bounds the order (point count) a given routine will accept before
raising TooLargeError.  The environment variable STS_MAX_ORDER, when set,
must be a positive integer and overrides every order cap at once; callers
that need a one-off override can also pass explicit keyword arguments where
offered.  Caps given as a dimension or a parameter (MAX_HYPERPLANE_DIM,
MAX_DIMENSION_CHECK_DIM, MAX_SECTION_N) go through the order of the space
they stand for (pg_dim_cap, section_n_cap), so STS_MAX_ORDER moves them too.
The minimal spreading set listing and the hyperplane-intersection extremes
have no cap here: each stops at its own work budget, at any order.
"""

import os

from .errors import BadOrderError

# Largest system any construction will build.
MAX_CONSTRUCTION_ORDER = 2047

# The lattice walk of min_spreading_size (a certified PG(d,2) takes none).
MAX_MIN_SPREAD_ORDER = 63

# The saturating-set scan (min_saturating_size), which has no work budget.
MAX_ENUMERATION_ORDER = 31

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
