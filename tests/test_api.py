"""Public-API hygiene: every name a module exports exists, so a removal that
leaves a stale `__all__` entry fails here."""

import importlib
import pkgutil

import pytest

import filpiv

MODULES = sorted(m.name for m in pkgutil.iter_modules(filpiv.__path__))


def test_modules_found():
    assert {"cli", "flow", "specfun", "zero_a"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"filpiv.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [e for e in exported if not hasattr(mod, e)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from filpiv.{name} import *", namespace)
    mod = importlib.import_module(f"filpiv.{name}")
    assert set(getattr(mod, "__all__", [])) <= set(namespace)
