"""Steiner triple systems: closure, spreading and saturating sets.

The package models (partial) Steiner triple systems, the closure operator
generated by completing covered pairs, and the two families of generating
sets it induces: spreading sets (closure reaches everything) and saturating
sets (one neighbour step reaches everything).  It ships the classical
geometric systems PG(d,2) and AG(d,3), a perturbed projective construction
whose minimal spreading sets undercut the projective maximum, a two-sizes
construction with minimal spreading sets of different cardinalities,
hill-climbing completion of partial systems, and exact saturation bounds.

Importing the package loads only the core modules (errors, config, system,
closure); every other public name loads its submodule on first use, so a
command line run compiles only the modules its subcommand calls.  The
modules are split by role to the same end: the text format's write path
(writer) and line-by-line reader (lineparse) apart from system's reader,
the colex subset batches (colex) apart from closure's operators, and the
greedy search (greedy) and the minimal spreading set scan (enumeration)
apart from spreading's lattice searches.

_LAZY is the one table of public names: it maps each to its home submodule,
and __all__ is read off it.  _served answers every PEP 562 lookup from it:
the package's, and those of system and spreading, which serve the names that
moved out of them.  Only the function closure is imported eagerly, since it
names a submodule too, and a lookup would find the submodule.  The table and
_served come before that import, because system and spreading import _served
while the package is still initialising.
"""

import importlib

_LAZY = {name: module for module, names in {
    "errors": (
        "BadOrderError",
        "BudgetExhaustedError",
        "DuplicatePairError",
        "InadmissibleOrderError",
        "NoTriangleError",
        "NotPrimePowerError",
        "NotProjectiveTagError",
        "NotSpreadingError",
        "NotSteinerError",
        "OutOfRangeError",
        "ParseError",
        "SamePointError",
        "SearchExhaustedError",
        "StsError",
        "TooLargeError",
        "TrivialOrderError",
    ),
    "system": (
        "GeometryTag",
        "PointSet",
        "SystemKind",
        "TripleSystem",
        "build_system",
        "induced_subsystem",
        "parse",
        "parse_labels",
        "steiner_admissible",
        "with_labels",
    ),
    "closure": (
        "ClosedSetEnumeration",
        "ClosureTrace",
        "closure_points",
        "enumerate_closed_sets",
        "is_saturating_set",
        "is_spreading_set",
        "is_spreading_system",
        "neighbors",
    ),
    "completion": (
        "CompletionReport",
        "complete_partial",
        "next_admissible",
        "random_sts",
        "two_minimal_sizes_sts",
    ),
    "constructions": (
        "Section4Artifacts",
        "ag3",
        "find_triangle",
        "perturbed_pg",
        "pg2",
        "section4_partial",
        "subsystem_free_sts15",
    ),
    "saturation": (
        "DeviationReport",
        "ExtremesReport",
        "HyperplaneFamily",
        "deviating_hyperplane",
        "hyperplanes_pg2",
        "intersection_extremes",
        "lunelli_sce_min",
        "min_saturating_size",
        "variance_identity",
    ),
    "enumeration": (
        "SpreadingEnumeration",
        "enumerate_minimal_spreading_sets",
    ),
    "greedy": (
        "SpreadingSearchResult",
        "greedy_spreading_set",
        "reduce_to_minimal",
    ),
    "spreading": (
        "DimensionCheckReport",
        "check_projective",
        "min_spreading_size",
        "verify_dimension_theorem",
    ),
    "writer": (
        "serialize",
        "serialize_labels",
    ),
}.items() for name in names}


def _served(namespace, name, homes):
    """The public name from its home submodule, cached in the module whose
    globals are namespace; AttributeError unless its home is one of homes."""
    module = _LAZY.get(name)
    if module not in homes:
        raise AttributeError("module %r has no attribute %r" % (namespace["__name__"], name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    namespace[name] = value
    return value


def __getattr__(name):
    return _served(globals(), name, _LAZY.values())


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


from .closure import closure  # noqa: E402

__version__ = "0.1.0"

__all__ = sorted([*_LAZY, "closure"])
