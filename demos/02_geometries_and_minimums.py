"""
Projective spaces attain the spreading-set minimum
==================================================

Greedily grown spreading sets can never use more than floor(log2(n+1))
points, because adjoining a point outside a closed set at least doubles it
plus one.  The binary projective spaces are exactly the systems where the
minimum spreading-set size reaches log2(n+1); everything else needs fewer.
"""

from stspread import claims, greedy_spreading_set, pg2

# Greedy growth: start from a pair, always adjoin the first point outside the
# current closure.  The closure sizes double-plus-one each round, so the
# witness has at most floor(log2(n+1)) points -- with equality forced in
# projective space, where doubling is exact.
print("greedy trajectories")
for ts in (pg2(2), pg2(3), pg2(4)):
    res = greedy_spreading_set(ts)
    print("  pg2, order %2d: witness %r, closure sizes %r"
          % (ts.order, sorted(res.witness), list(res.closure_sizes)))

# Random systems stay under the bound but almost never meet it exactly: a
# typical Steiner system has no proper subsystems, so any non-block triple
# already spreads.  The exact minimum tells the projective spaces apart, and
# in them the closed sets behave like subspaces: dimensions are integral and
# the join/meet dimension identity holds on random pairs.
print("\n" + claims.report(
    "geometries: minimum is attained exactly on projective spaces",
    [*claims.maxofmin(orders=(7, 9, 13, 15, 19, 21, 25, 27), seed=9),
     *claims.unicity(trials=300, seed=1)],
))
