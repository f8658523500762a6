"""
Minimal spreading sets of different sizes
=========================================

Minimal spreading sets are not all the same size.  Two constructions make
the gap concrete: a perturbed projective space whose minimal witness
undercuts the projective maximum, and a purpose-built order-61 system
carrying minimal spreading sets of sizes 3 and 4 simultaneously.
"""

from stspread import claims, section4_partial

# Perturbation: take the 31-point projective space, rip out the 35 blocks of
# a 15-point subspace, and install a subsystem-free 15-point system instead,
# aligned so that the three blocks through the old basis points survive.
# The old basis points v1..v4 (indices 1,3,7,15) still form a minimal
# spreading set of size 4 = log2(32) - 1, one less than the projective
# minimum of 5 -- so near-maximal size does not force projectivity.  The
# replacement also cheapens the global minimum: any non-collinear triple
# inside the rebuilt part closes to all 15 points and then escapes.
#
# Two sizes at once: a 30-point partial system pins four hyperplane-like
# closed sets around a 4-point base and chains seven fresh points to a
# designated triple; hill climbing embeds it in a Steiner system of order 61,
# which then carries the base (size 4) and the b_triple (size 3) as minimal
# spreading sets.
art = section4_partial(4)
print("partial system: order %d, %d blocks, base %r"
      % (art.system.order, len(art.system.triples), list(art.base_points)))
print("\n" + claims.report(
    "two sizes", [*claims.almostmax(), *claims.two_sizes(4, seed=0)]))
