"""Every name a module lists in ``__all__`` exists, so ``from unigof import *`` works."""

import importlib
import pkgutil

import pytest

import unigof

# the package and every submodule that declares a public list
MODULES = ["unigof"] + [
    name for _, name, _ in pkgutil.iter_modules(unigof.__path__, "unigof.")
    if hasattr(importlib.import_module(name), "__all__")
]


def test_the_public_modules_are_found():
    assert {"unigof.distributions", "unigof.mc", "unigof.statistic"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_the_checked_rows_type_is_public():
    from unigof.statistic import UnitRows

    assert unigof.UnitRows is UnitRows
