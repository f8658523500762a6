"""What the benchmark's traced run reads of the package.

bench/layers.py reads each library function as lib.<module>.<name>, lib
holding the submodules themselves.  A few of those names moved out of the
module it names and are served there by that module's PEP 562 forwarder.
"""

import ast
import importlib
from pathlib import Path

import pytest

import stspread

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _chains():
    """The distinct (module, name) of the lib.<module>.<name> chains."""
    tree = ast.parse(LAYERS.read_text())
    return sorted({(node.value.attr, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Attribute)
                   and isinstance(node.value.value, ast.Name)
                   and node.value.value.id == "lib"})


def test_the_chains_include_the_forwarded_names():
    assert {("system", "serialize"), ("spreading", "greedy_spreading_set"),
            ("spreading", "enumerate_minimal_spreading_sets")} <= set(_chains())


@pytest.mark.parametrize("module, name", _chains(), ids=lambda x: x)
def test_each_chain_is_the_object_at_its_home(module, name):
    value = getattr(importlib.import_module("stspread." + module), name)
    home = importlib.import_module("stspread." + stspread._LAZY.get(name, module))
    assert value is getattr(home, name)


@pytest.mark.parametrize("module, name", [("system", "pg2"), ("spreading", "serialize"),
                                          ("system", "no_such_name")])
def test_a_forwarder_serves_only_its_own_moved_names(module, name):
    with pytest.raises(AttributeError, match="'stspread.%s' has no attribute '%s'"
                       % (module, name)):
        getattr(importlib.import_module("stspread." + module), name)
