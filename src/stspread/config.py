"""The size cap and the work budgets of the search-heavy operations.

MAX_CONSTRUCTION_ORDER is the only cap on input size: it bounds the order
(point count) of every pair table a routine builds, and so of every
construction, completion, parsed file and PG(n,2) hyperplane family, and
each routine checks it before it computes the order of its space.  The
environment variable STS_MAX_ORDER, when set, must be a positive integer in
ASCII decimal digits and replaces it; no caller passes a cap of its own.
The subset and lattice searches have no order cap here: each stops at a
work budget instead, at any order.  The minimal spreading set listing and
the hyperplane-intersection extremes take their own budgets, as keyword
arguments with defaults; the lattice walk of min_spreading_size and the
saturating-set scan share DEFAULT_WORK_BUDGET, which STS_MAX_ORDER does not
move.
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

# Hill-climbing completion budget: restarts, and moves per restart (below).
DEFAULT_RESTARTS = 50


def default_moves(order: int) -> int:
    """Moves per restart of a climb to the given order: 8 per pair, and never
    fewer than 10^6, which is the budget up to order 500.  The moves a climb
    needs grow faster than its pairs: 26,079 at order 127, 118,676 at 255 and
    550,843 at 511 (seed 1)."""
    return max(10 ** 6, 4 * order * (order - 1))


def order_cap() -> int:
    """Return the effective order cap: STS_MAX_ORDER when set, else
    MAX_CONSTRUCTION_ORDER.

    Raises BadOrderError when STS_MAX_ORDER is set to anything but a
    positive integer in ASCII decimal digits (int() would also take a sign,
    blanks, underscores and other scripts' digits), rather than silently
    falling back to the default.
    """
    raw = os.environ.get("STS_MAX_ORDER")
    if raw is None:
        return MAX_CONSTRUCTION_ORDER
    value = int(raw) if raw.isascii() and raw.isdigit() else 0
    if value < 1:
        raise BadOrderError("STS_MAX_ORDER must be a positive integer, got %r" % raw)
    return value
