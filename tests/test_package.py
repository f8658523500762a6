"""The package's public names: served lazily, identical to their home objects."""

import ast
import importlib
from pathlib import Path

import pytest

import stspread


def _home(name):
    """The submodule that defines a public name."""
    module = stspread._LAZY.get(name)
    if module is None:
        module = next(m for m in ("errors", "system", "closure")
                      if hasattr(importlib.import_module("stspread." + m), name))
    return importlib.import_module("stspread." + module)


def test_every_public_name_is_its_home_object():
    for name in stspread.__all__:
        assert getattr(stspread, name) is getattr(_home(name), name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from stspread import *", namespace)
    assert set(stspread.__all__) <= set(namespace)
    assert set(stspread.__all__) <= set(dir(stspread))


def test_unknown_name_raises_attribute_error():
    assert not hasattr(stspread, "no_such_name")


def test_closure_is_the_function_after_importing_the_submodule():
    import stspread.closure

    assert callable(stspread.closure)
    assert stspread.closure is importlib.import_module("stspread.closure").closure
    from stspread import closure

    assert closure is stspread.closure


# every public record is a NamedTuple with its fields in this order
_RECORD_FIELDS = {
    "GeometryTag": ("variant", "param", "seed", "labels"),
    "ClosureTrace": ("steps", "firing_blocks"),
    "ClosedSetEnumeration": ("points", "truncated"),
    "SpreadingSearchResult": ("witness", "size", "method", "closure_sizes"),
    "SpreadingEnumeration": ("points", "max_size", "truncated"),
    "DimensionCheckReport": ("trials", "counterexamples"),
    "DeviationReport": ("functional", "hyperplane", "deviation", "bound_squared",
                        "strict", "degenerate"),
    "ExtremesReport": ("n", "m", "max_min", "max_min_witness", "min_max",
                       "min_max_witness"),
    "CompletionReport": ("source_order", "target_order", "seed", "restarts_used",
                         "iterations", "success", "system", "checks"),
    "Section4Artifacts": ("system", "base_points", "hyperplane_sets", "b_points"),
}


def test_records_keep_their_field_order_and_refuse_assignment():
    for name, fields in _RECORD_FIELDS.items():
        cls = getattr(stspread, name)
        assert cls._fields == fields, name
        record = cls._make(range(len(fields)))
        assert tuple(record) == tuple(range(len(fields)))
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def test_records_compare_as_tuples():
    assert stspread.GeometryTag() == ("plain", None, None, None)
    trace = stspread.closure(stspread.pg2(2), (0, 1))
    steps, firing = trace
    assert (steps, firing) == trace and trace.points == steps[-1]


def _unused_imports(source):
    """The (line, name) of each name the source imports and never mentions
    again; a lazy import inside a function counts as well."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_import_scan_finds_only_dead_names():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from .errors import StsError as E, TooLargeError\n\n\n"
              "def f():\n    from .system import render\n    return os.path.sep, E\n")
    assert _unused_imports(source) == [(3, "sys"), (4, "TooLargeError"), (8, "render")]


@pytest.mark.parametrize(
    "path", sorted(p for p in Path(stspread.__file__).parent.glob("*.py")
                   if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_modules_use_every_name_they_import(path):
    assert _unused_imports(path.read_text()) == []
