"""
Saturating sets and exact counting bounds
=========================================

Saturating sets must reach every point in a single step, so they are rarer
and larger than spreading sets.  In binary projective space their size is
pinned between an exact counting bound and small exhaustive searches, with
an exact rational variance identity controlling how evenly a set can meet
the hyperplanes.
"""

import random

from stspread import (
    claims,
    deviating_hyperplane,
    hyperplanes_pg2,
    intersection_extremes,
    lunelli_sce_min,
    variance_identity,
)

# Counting bound: m points span at most (q-1)C(m,2)+m points in one step,
# which must cover the whole space.
print("lower bounds: counting (q=2), counting (q=3)")
for n in range(1, 7):
    print("  n=%d: s >= %2d   s >= %2d" % (n, lunelli_sce_min(n, 2), lunelli_sce_min(n, 3)))

# The variance identity is exact in rational arithmetic: summed over all
# hyperplanes, the squared deviation of |S on H| from m/2 is a closed form
# in m and n alone.  Hence some hyperplane deviates by more than the r.m.s.
rng = random.Random(0)
subset = rng.sample(range(15), 6)
lhs, rhs = variance_identity(3, subset)
dev = deviating_hyperplane(3, subset)
print("\nrandom 6-subset of pg2(3):", sorted(subset))
print("  sum over hyperplanes: %s, closed form: %s" % (lhs, rhs))
print("  worst hyperplane deviates by %s, squared r.m.s. bound %s"
      % (dev.deviation, dev.bound_squared))

# How evenly can a small set sit relative to the hyperplanes?  For 3 points
# in the 7-point plane the best guaranteed meet is 1 and the best cap is 2.
ex = intersection_extremes(2, 3)
print("\n3-point sets vs the %d hyperplanes of pg2(2): max-min %d, min-max %d"
      % (len(hyperplanes_pg2(2)), ex.max_min, ex.min_max))

# The identity on random subsets, the bounds' closed forms, and the exhaustive
# minima of the two smallest spaces, whose witnesses also spread.
print("\n" + claims.report(
    "saturation: identities exact, minima within bounds",
    [*claims.szoras(n=3, trials=100, seed=0), *claims.bounds(max_n=6)],
))
