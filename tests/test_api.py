"""Public-API hygiene: every name a module exports exists, so a removal that
leaves a stale `__all__` entry fails here, and every private module-level
name is read in its own module, so dead constants and helpers fail too."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unread_private_names(tree: ast.Module) -> list[str]:
    """Module-level `_name`s (assigned, defined or imported) that no load in
    the module reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(name for name in defined
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


@pytest.mark.parametrize("name", MODULES)
def test_private_module_names_are_read(name):
    path = Path(filpiv.__file__).parent / f"{name}.py"
    assert _unread_private_names(ast.parse(path.read_text())) == []


def test_unread_private_name_detected():
    tree = ast.parse("_USED = 1\n_DEAD = 2\ndef _f():\n    return _USED\n")
    assert _unread_private_names(tree) == ["_DEAD", "_f"]
