"""
Closure, spreading sets, and saturating sets
============================================

A walk through the core vocabulary on the smallest interesting system: the
7-point projective plane.  Every pair of points lies in exactly one block;
the closure of a point set repeatedly adjoins the third point of every
covered pair until nothing new appears.
"""

from stspread import (
    claims,
    closure,
    closure_points,
    enumerate_closed_sets,
    is_saturating_set,
    is_spreading_set,
    neighbors,
    pg2,
)

# The 7-point plane: points are the nonzero vectors of F2^3 (index = value-1),
# blocks are the triples that xor to zero.
plane = pg2(2)
print("order:", plane.order)
print("blocks:", plane.triples)

# A pair closes to its block: nothing else is reachable.
print("\ncl({0,1}) =", sorted(closure_points(plane, [0, 1])))

# A non-collinear triple spreads: its closure is the whole plane.  The trace
# shows which blocks fire at each step.
trace = closure(plane, [0, 1, 3])
print("\n" + trace.report())
print("spreading set:", is_spreading_set(plane, [0, 1, 3]))

# Spreading is weaker than saturating: {0,1,3} needs two steps, so it does
# not saturate, while adding any fourth point finishes in one step.
print("\nneighbors of {0,1,3}:", sorted(neighbors(plane, {0, 1, 3})))
print("saturates in one step:", is_saturating_set(plane, [0, 1, 3]))
print("{0,1,2,3} saturates:", is_saturating_set(plane, [0, 1, 2, 3]))

# Proper closed sets are exactly the subsystems.  The 7-point plane has none;
# the 15-point space has its fifteen 7-point planes.
print("\nclosed sets of pg2(2):", enumerate_closed_sets(plane).sets)
space_enum = enumerate_closed_sets(pg2(3))
print("closed sets of pg2(3): %d, all of size %s"
      % (len(space_enum.sets), sorted({len(s) for s in space_enum.sets})))

# Growing a spreading set one outside point at a time, as {0,1,3} grew from
# the pair {0,1}, needs at most floor(log2(n+1)) points, and exactly that
# many in the projective spaces: the next demo's first result.
print("\n" + claims.report("closure basics", claims.maxofmin(orders=(7,))))
