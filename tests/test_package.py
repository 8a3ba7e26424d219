"""The package's export list."""

import importlib
import inspect
import pkgutil

import pytest

import presage

MODULES = [info.name for info in pkgutil.iter_modules(presage.__path__)]


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from presage import *", namespace)  # a stale name raises AttributeError here
    assert [name for name in presage.__all__ if name not in namespace] == []
    assert len(set(presage.__all__)) == len(presage.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_in_its_modules_all(name):
    # presage re-exports each library module's __all__, so a public class or
    # function left out of it would silently drop out of the package.
    module = importlib.import_module(f"presage.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


def test_names_no_caller_needs_stay_out_of_the_package():
    # The phase schedule is the detector's own, a missing dataset key is a
    # DataError, and a model's width is its w_out.size.
    assert {"phase_of", "DatasetKeyError"} & set(presage.__all__) == set()
    assert not hasattr(presage.detector, "phase_of")
    assert not hasattr(presage.errors, "DatasetKeyError")
    assert not hasattr(presage.LstmModel, "hidden_units")
