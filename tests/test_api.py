"""Public-API hygiene: every name a module exports exists, so a removal that
leaves a stale `__all__` entry fails here; every exported name is read
somewhere other than its own definition, so a public name nothing reaches
fails too, as does a private module-level name its module never reads;
every error class is raised by the package, or is the base of one that is;
every memoizing cache has a finite size, so a long process cannot grow
without bound; the CLI parses config values in resolve_config alone;
odeint steps every integration in one loop, behind its one function; no
module resizes an array in place with `.resize(`; no module of the package
or the benchmark but odeint touches a trajectory's `.coeffs`; no module of
the package calls flow.make_rhs; and only cli maps failures to exit codes,
in one except clause of main."""

import ast
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import filpiv
from filpiv import errors, odeint

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


REPO = Path(__file__).resolve().parents[1]

# exported names that nothing reads yet, each with the reason it stays
UNREFERENCED_EXPORTS = {
    "asympt.model_curv_tors": "the C^2 and torsion limits for the planned scan "
                              "of the admissible region (ROADMAP direction 5)",
    "flow.reconstruct_filament": "the reference the filament command's curves are "
                                 "tested against, and a layer the benchmark's tracer "
                                 "wraps by name; the command applies its map "
                                 "(_filament_map) to the G of its one state read",
}


def _read_names(tree: ast.Module, skip: str = "") -> set[str]:
    """Names that tree reads (loads, attributes, from-imports), outside the
    top-level function or class named skip."""
    read = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and top.name == skip:
            continue
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return read


def _unreferenced_exports(exported, own: ast.Module, others, text: str) -> list[str]:
    """The exported names that neither their own module (outside their own
    definition) nor any tree in others reads, and that text does not
    mention as a word."""
    read_elsewhere = set().union(*(_read_names(tree) for tree in others))
    return sorted(name for name in exported
                  if name not in read_elsewhere and name not in _read_names(own, name)
                  and not re.search(rf"\b{re.escape(name)}\b", text))


@functools.cache
def _sources() -> tuple[dict, str]:
    """The parsed modules of src/filpiv and perfbench/ by path, and README's
    fenced code blocks: its quick start and examples."""
    paths = sorted(Path(filpiv.__file__).parent.glob("*.py")) \
        + sorted((REPO / "perfbench").glob("*.py"))
    readme = (REPO / "README.md").read_text()
    return ({p: ast.parse(p.read_text()) for p in paths},
            "\n".join(re.findall(r"```[^\n]*\n(.*?)```", readme, re.DOTALL)))


@functools.cache
def _unreferenced_in(name: str) -> tuple[str, ...]:
    trees, readme_code = _sources()
    own = Path(filpiv.__file__).parent / f"{name}.py"
    others = [tree for p, tree in trees.items() if p != own]
    exported = getattr(importlib.import_module(f"filpiv.{name}"), "__all__", [])
    return tuple(f"{name}.{e}" for e in
                 _unreferenced_exports(exported, trees[own], others, readme_code))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_referenced(name):
    # read in src/filpiv, in perfbench/ or in README's code, or listed with a reason
    assert [e for e in _unreferenced_in(name) if e not in UNREFERENCED_EXPORTS] == []


def test_unreferenced_allowlist_is_current():
    unreferenced = {e for name in MODULES for e in _unreferenced_in(name)}
    assert sorted(set(UNREFERENCED_EXPORTS) - unreferenced) == []


def test_unreferenced_export_detected():
    own = ast.parse("def used():\n    return 1\n"
                    "def recursive(n):\n    return recursive(n - 1) + helper()\n"
                    "def helper():\n    return 0\n"
                    "def dead():\n    return used()\n"
                    "def documented():\n    return 2\n")
    other = ast.parse("from m import used\nimport m\nm.used()\n")
    exported = ["used", "recursive", "helper", "dead", "documented"]
    assert _unreferenced_exports(exported, own, [other], "m.documented()") \
        == ["dead", "recursive"]


_CONFIG_PARSERS = {"_number", "_integer", "_numbers"}


def _parser_calls_outside(tree: ast.Module, allowed: str) -> list[str]:
    """Calls of cli's config parsers outside the top-level function allowed
    and outside the parsers themselves, as "line: name"."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in _CONFIG_PARSERS | {allowed}:
            continue
        found += [f"{n.lineno}: {n.func.id}" for n in ast.walk(top)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id in _CONFIG_PARSERS]
    return sorted(found)


def test_config_is_parsed_only_in_resolve_config():
    # one validating pass: the subcommands read what resolve_config returns
    path = Path(filpiv.__file__).parent / "cli.py"
    assert _parser_calls_outside(ast.parse(path.read_text()), "resolve_config") == []


def test_parser_call_outside_detected():
    tree = ast.parse("def _number(v):\n    return float(v)\n"
                     "def _numbers(v):\n    return [_number(x) for x in v]\n"
                     "def resolve_config(raw):\n    return _numbers(raw)\n"
                     "def cmd(cfg):\n    return _integer(cfg['n'])\n"
                     "X = _number('1')\n")
    assert _parser_calls_outside(tree, "resolve_config") == ["8: _integer", "9: _number"]


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


def _unbounded_caches(tree: ast.Module) -> list[str]:
    """The functools caches in tree without an explicit finite size, as
    "line: reason": any functools.cache, and any lru_cache whose maxsize is
    missing, None or not an integer literal or module-level integer constant."""
    constants = {t.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for t in node.targets if isinstance(t, ast.Name)}
    imported = {a.asname or a.name: a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for a in node.names}

    def kind(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            return node.attr
        return imported.get(node.id) if isinstance(node, ast.Name) else None

    called = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []
    for node in ast.walk(tree):
        what = kind(node)
        if what == "cache":
            found.append((node.lineno, "functools.cache has no size bound"))
        elif what == "lru_cache":
            call = called.get(id(node))
            sizes = [] if call is None else \
                call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            size = sizes[0] if sizes else None
            if isinstance(size, ast.Name):
                size = constants.get(size.id)
            elif isinstance(size, ast.Constant):
                size = size.value
            if type(size) is not int:
                found.append((node.lineno, "lru_cache without an integer maxsize"))
    return [f"{line}: {reason}" for line, reason in sorted(found)]


@pytest.mark.parametrize("name", MODULES)
def test_caches_are_bounded(name):
    path = Path(filpiv.__file__).parent / f"{name}.py"
    assert _unbounded_caches(ast.parse(path.read_text())) == []


def test_unbounded_cache_detected():
    tree = ast.parse(
        "import functools\nfrom functools import cache as memo, lru_cache\n"
        "_SIZE = 8\n_NONE = None\n"
        "@functools.lru_cache(maxsize=16)\ndef a(x): return x\n"
        "@lru_cache(_SIZE)\ndef b(x): return x\n"
        "@functools.lru_cache(maxsize=None)\ndef c(x): return x\n"
        "@lru_cache\ndef d(x): return x\n"
        "@functools.lru_cache(maxsize=_NONE)\ndef e(x): return x\n"
        "@functools.cache\ndef f(x): return x\n"
        "@memo\ndef g(x): return x\n"
        "h = functools.lru_cache(typed=True)(len)\n")
    assert _unbounded_caches(tree) == [
        "9: lru_cache without an integer maxsize",
        "11: lru_cache without an integer maxsize",
        "13: lru_cache without an integer maxsize",
        "15: functools.cache has no size bound",
        "17: functools.cache has no size bound",
        "19: lru_cache without an integer maxsize",
    ]


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _loops_calling(tree: ast.AST, name: str) -> list[int]:
    """The lines of the loops (for, while, comprehensions) in tree whose body
    calls the function named name."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, _LOOPS)
                  and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                          and n.func.id == name for n in ast.walk(node)))


def test_one_stepping_loop():
    # one leg or two, every integration runs integrate's lockstep loop over
    # the coefficient function taylor; a serial loop beside it would be a
    # second stepping path to keep in step with the first
    path = Path(filpiv.__file__).parent / "odeint.py"
    assert len(_loops_calling(ast.parse(path.read_text()), "taylor")) == 1


def test_second_stepping_loop_detected():
    tree = ast.parse("def lockstep(taylor, ys):\n    while ys:\n        c = taylor(0.0, ys)\n"
                     "        for y in ys:\n            pass\n"
                     "def serial(taylor, y):\n    for _ in range(3):\n        y = taylor(0.0, y)\n"
                     "def legs(taylor, ys):\n    return [taylor(0.0, y) for y in ys]\n")
    assert _loops_calling(tree, "taylor") == [2, 7, 10]


def _odeint_calls(tree: ast.AST) -> list[str]:
    """The odeint names that tree calls, by the names it imported from
    odeint or as attributes of the module odeint."""
    imported = {a.asname or a.name: a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module and n.module.endswith("odeint")
                for a in n.names}
    called = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in imported:
            called.add(imported[n.func.id])
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and isinstance(n.func.value, ast.Name) and n.func.value.id == "odeint":
            called.add(n.func.attr)
    return sorted(called)


def test_one_integration_function():
    # one leg or two, every integration is an odeint.integrate call; a
    # second entry point would be a second contract to keep in step
    functions = [name for name in odeint.__all__ if inspect.isfunction(getattr(odeint, name))]
    assert functions == ["integrate"]
    called = set().union(*(_odeint_calls(ast.parse(p.read_text()))
                           for p in Path(filpiv.__file__).parent.glob("*.py")))
    assert sorted(n for n in called if not isinstance(getattr(odeint, n, None), type)) \
        == ["integrate"]


def test_second_integration_function_detected():
    tree = ast.parse("from .odeint import IntegratorConfig, integrate, integrate_both as both\n"
                     "from . import odeint\n"
                     "a = integrate(t, y, 0.0, 0.0, 1.0, IntegratorConfig())\n"
                     "b = both(t, y, 0.0, -1.0, 1.0)\nc = odeint.integrate_legs(t, y)\n")
    assert _odeint_calls(tree) == ["IntegratorConfig", "integrate", "integrate_both",
                                   "integrate_legs"]


def _resize_calls(tree: ast.AST) -> list[int]:
    """The lines of the `.resize(` calls in tree."""
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute) and n.func.attr == "resize")


def test_no_resize_calls():
    # ndarray.resize reallocates an array in place, and with refcheck=False
    # nothing stops it while a view still reads the old memory; a bytearray
    # grows on its own and refuses to while a view of it exists
    found = {p.name: _resize_calls(ast.parse(p.read_text()))
             for p in Path(filpiv.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_resize_call_detected():
    tree = ast.parse("import numpy as np\na = np.empty(4)\na.resize((8,), refcheck=False)\n"
                     "b = np.resize(a, 2)\nresize = len\nc = resize(a)\n")
    assert _resize_calls(tree) == [3, 4]


def _coeffs_uses(tree: ast.AST) -> list[int]:
    """The lines of the `.coeffs` attribute uses in tree."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "coeffs")


def test_coefficients_read_only_in_odeint():
    # a trajectory keeps each leg's blocks as integrate read them, and a
    # mirrored run's minus blocks only as a reversed view of its plus leg's,
    # with the signs applied on read: a reader outside odeint would have to
    # know that layout and apply the mirror itself
    paths = [p for p in Path(filpiv.__file__).parent.glob("*.py") if p.name != "odeint.py"]
    bench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert bench
    found = {p.name: _coeffs_uses(ast.parse(p.read_text())) for p in paths + bench}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_coeffs_use_detected():
    tree = ast.parse("c = traj.coeffs\nn = len(run.traj.coeffs[0])\ncoeffs = 1\n"
                     "h = getattr(traj, 'h')\ntraj.coeffs = ()\n")
    assert _coeffs_uses(tree) == [1, 2, 5]


def _make_rhs_calls(tree: ast.AST) -> list[int]:
    """The lines of the calls of make_rhs in tree: by its name, by a name it
    was imported as, or as an attribute."""
    names = {"make_rhs"} | {a.asname for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                            for a in n.names if a.name == "make_rhs" and a.asname}
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and (
        isinstance(n.func, ast.Name) and n.func.id in names
        or isinstance(n.func, ast.Attribute) and n.func.attr == "make_rhs"))


def test_no_module_calls_make_rhs():
    # every G'' and sigma'' of the package comes from flow's one sampling
    # routine; make_rhs stays for the tests and the benchmark's tracer
    found = {p.name: _make_rhs_calls(ast.parse(p.read_text()))
             for p in Path(filpiv.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_make_rhs_call_detected():
    tree = ast.parse("from .flow import make_rhs as rhs_of\nfrom . import flow\n"
                     "f = flow.make_rhs(p)\ng = rhs_of(p)(0.0, y)\nmake_rhs = None\n"
                     "h = make_rhs(p)\nk = flow.make_taylor(p)\n")
    assert _make_rhs_calls(tree) == [3, 4, 6]


_FAILURES = {"FilpivError", "ConfigError", "NumericError", "InvariantViolation"}


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _exit_mappings(tree: ast.Module) -> list[str]:
    """Where tree maps failures to exits, as "line: where": each use or
    import of an EXIT_* name, and each except clause that catches one of the
    package's error bases, with the top-level function it lies in."""
    found = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for n in ast.walk(top):
            if (_name(n) or "").startswith("EXIT_"):
                found.append(f"{n.lineno}: {_name(n)}")
            elif isinstance(n, ast.alias) and n.name.startswith("EXIT_"):
                found.append(f"{n.lineno}: {n.name}")
            elif isinstance(n, ast.ExceptHandler) and n.type is not None \
                    and _FAILURES & {_name(c) for c in ast.walk(n.type)}:
                found.append(f"{n.lineno}: except in {where}")
    return sorted(found, key=lambda f: int(f.split(":")[0]))


def test_only_cli_maps_failures_to_exits():
    # one table in cli maps every failure to its exit code: a module that
    # caught the package's errors or named an exit code itself would be a
    # second exit path to keep in step with it
    found = {p.name: _exit_mappings(ast.parse(p.read_text()))
             for p in Path(filpiv.__file__).parent.glob("*.py")}
    catches = [f.split(": ", 1)[1] for f in found.pop("cli.py") if "except" in f]
    assert catches == ["except in main"]
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_exit_mapping_detected():
    tree = ast.parse("from .cli import EXIT_OK as OK\nfrom . import cli, errors\n"
                     "def run():\n    try:\n        go()\n"
                     "    except errors.NumericError:\n        return cli.EXIT_NUMERIC\n"
                     "    except (ValueError, ConfigError) as exc:\n        pass\n"
                     "    except ValueError:\n        pass\n"
                     "try:\n    x = 1\nexcept FilpivError:\n    pass\n")
    assert _exit_mappings(tree) == ["1: EXIT_OK", "6: except in run", "7: EXIT_NUMERIC",
                                    "8: except in run", "14: except in <module>"]
