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
apart from spreading's lattice searches.  system and spreading serve the
public names that moved out of them on first use too.
"""

import importlib

from .closure import (
    ClosedSetEnumeration,
    ClosureTrace,
    closure,
    closure_points,
    enumerate_closed_sets,
    is_saturating_set,
    is_spreading_set,
    is_spreading_system,
    neighbors,
)
from .errors import (
    BadOrderError,
    BudgetExhaustedError,
    DuplicatePairError,
    InadmissibleOrderError,
    NoTriangleError,
    NotPrimePowerError,
    NotProjectiveTagError,
    NotSpreadingError,
    NotSteinerError,
    OutOfRangeError,
    ParseError,
    SamePointError,
    SearchExhaustedError,
    StsError,
    TooLargeError,
    TrivialOrderError,
)
from .system import (
    GeometryTag,
    PointSet,
    SystemKind,
    TripleSystem,
    build_system,
    induced_subsystem,
    parse,
    parse_labels,
    steiner_admissible,
    with_labels,
)

# Public names served on first use, by home submodule (PEP 562).  closure
# stays eager above: it names both a submodule and a function, and a lazy
# lookup would find the submodule.
_LAZY = {name: module for module, names in {
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


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "ClosedSetEnumeration",
    "ClosureTrace",
    "CompletionReport",
    "DeviationReport",
    "DimensionCheckReport",
    "ExtremesReport",
    "GeometryTag",
    "HyperplaneFamily",
    "PointSet",
    "Section4Artifacts",
    "SpreadingEnumeration",
    "SpreadingSearchResult",
    "SystemKind",
    "TripleSystem",
    "ag3",
    "build_system",
    "check_projective",
    "closure",
    "closure_points",
    "complete_partial",
    "deviating_hyperplane",
    "enumerate_closed_sets",
    "enumerate_minimal_spreading_sets",
    "find_triangle",
    "greedy_spreading_set",
    "hyperplanes_pg2",
    "induced_subsystem",
    "intersection_extremes",
    "is_saturating_set",
    "is_spreading_set",
    "is_spreading_system",
    "lunelli_sce_min",
    "min_saturating_size",
    "min_spreading_size",
    "neighbors",
    "next_admissible",
    "parse",
    "parse_labels",
    "perturbed_pg",
    "pg2",
    "random_sts",
    "reduce_to_minimal",
    "section4_partial",
    "serialize",
    "serialize_labels",
    "steiner_admissible",
    "subsystem_free_sts15",
    "two_minimal_sizes_sts",
    "variance_identity",
    "verify_dimension_theorem",
    "with_labels",
    # errors
    "StsError",
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
    "TooLargeError",
    "TrivialOrderError",
]
