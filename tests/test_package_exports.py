"""Lazy public names (DESIGN.md §2): a package resolves each public name on
first access, to the object the module defining it holds."""

import importlib
import pkgutil
import re

import pytest

LAZY_PACKAGES = ["repro.baselines", "repro.core", "repro.distributed", "repro.models",
                 "repro.profiling", "repro.serve", "repro.train"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_public_name_is_an_object_its_module_holds(self, name):
        package = importlib.import_module(name)
        modules = [importlib.import_module(f"{name}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        assert len(set(package.__all__)) == len(package.__all__)
        for public in package.__all__:
            value = getattr(package, public)
            assert any(vars(module).get(public) is value for module in modules), public

    def test_star_import_binds_every_public_name(self, name):
        package = importlib.import_module(name)
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert all(namespace[public] is getattr(package, public) for public in package.__all__)

    def test_dir_lists_every_public_name(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_an_unknown_name_is_an_attribute_error_naming_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            package.no_such_name


def test_core_stable_rank_is_the_function_not_its_module():
    from repro.core import stable_rank
    from repro.core.stable_rank import stable_rank as function

    assert stable_rank is function
