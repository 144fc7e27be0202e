"""Public-API hygiene: every name a module exports exists, so a removal that
leaves a stale `__all__` entry fails here; every private module-level name
is read in its own module, so dead constants and helpers fail too; and
every error class is raised by the package, or is the base of one that is."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import filpiv
from filpiv import errors

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


def _raised_names(tree: ast.AST) -> set[str]:
    """Names of the exceptions that `raise X` or `raise X(...)` raise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def _unraised_classes(classes, raised: set[str]) -> list[str]:
    """The classes that are neither raised nor a base of a raised class."""
    covered = {base for cls in classes if cls.__name__ in raised
               for base in cls.__mro__}
    return sorted(cls.__name__ for cls in classes if cls not in covered)


def test_every_error_class_is_raised():
    classes = [v for v in vars(errors).values()
               if isinstance(v, type) and v.__module__ == errors.__name__]
    raised = set()
    for name in MODULES:
        path = Path(filpiv.__file__).parent / f"{name}.py"
        raised |= _raised_names(ast.parse(path.read_text()))
    assert _unraised_classes(classes, raised) == []


def test_unraised_class_detected():
    class Base(Exception):
        pass

    class Raised(Base):
        pass

    class Dead(Base):
        pass

    raised = _raised_names(ast.parse("raise Raised('x') from None\nraise errors.Other\n"))
    assert raised == {"Raised", "Other"}
    assert _unraised_classes([Base, Raised, Dead], raised) == ["Dead"]
