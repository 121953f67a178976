"""The package surface: each public module's `__all__` is the one list of
its public names, and `pinchsim` re-exports all of them."""

import importlib
import pkgutil

import pytest

import pinchsim

# Every submodule but the CLI, in the order pinchsim imports them.
MODULES = ["geometry", "channel", "frame", "alloc", "baselines", "experiments"]


def test_every_submodule_but_the_cli_is_reexported():
    assert {m.name for m in pkgutil.iter_modules(pinchsim.__path__)} == {*MODULES, "cli"}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_is_reexported_by_the_package(name):
    module = importlib.import_module(f"pinchsim.{name}")
    for attr in module.__all__:
        assert getattr(pinchsim, attr) is getattr(module, attr), attr


def test_no_name_in_two_modules_all():
    names = [n for m in MODULES for n in importlib.import_module(f"pinchsim.{m}").__all__]
    assert len(names) == len(set(names))
