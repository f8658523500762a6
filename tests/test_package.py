"""The package's public names: served lazily, identical to their home objects."""

import importlib

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
