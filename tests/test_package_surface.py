"""Every public name defined in ``jcsim`` is reached by the package or perfbench.

A function, class or method that only tests call belongs in the tests (or
in ``tests/oracles.py``), not in the package.  The check is by name: a
definition counts as reached when any ``Name``, ``Attribute`` or import
alias in ``src/jcsim`` (without ``__init__``) or ``perfbench/*.py`` spells
it.  ``jcsim/__init__.py`` itself binds only ``__version__`` and the layer
modules, and ``import jcsim`` loads every layer.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "jcsim").glob("*.py") if p.name != "__init__.py")
SOURCES = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

#: Reached only from perfbench/tests, whose calls the benchmark keeps fixed.
ALLOWED = {"cat_reference"}


def _public_definitions(tree: ast.Module) -> set[str]:
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined.update(
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            )
    return {name for name in defined if not name.startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    defined = set().union(*(_public_definitions(trees[path]) for path in PACKAGE))
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    assert sorted(defined - referenced - ALLOWED) == []
    assert ALLOWED <= defined - referenced, "an allowlisted name is reached; drop it"


def test_every_public_function_is_a_plain_function():
    # perfbench traces only ``inspect.isfunction`` objects: a public name
    # wrapped in ``lru_cache`` would silently drop out of the layer spans,
    # so a cache belongs on a private helper behind the public function
    wrapped = []
    for path in PACKAGE:
        module = importlib.import_module(f"jcsim.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not inspect.isfunction(getattr(module, node.name)):
                    wrapped.append(f"{path.stem}.{node.name}")
    assert wrapped == []


#: The per-process stores, each where a workload repeats its key: the splitter
#: blocks per dimension, the heralded cavity per (alpha, m, n_max) and the
#: Mach-Zehnder's theta polynomial per (input, alpha, n_max).
STORES = {
    "linear_optics._splitter_blocks",
    "interferometer._heralded_cavity",
    "interferometer._theta_coefficients",
}


def _decorator_name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


def test_the_package_keeps_exactly_the_listed_stores():
    # every memoized function in the package, nested ones included; the
    # README's list of caches names these and no others
    memoized = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list
            ):
                memoized.add(f"{path.stem}.{node.name}")
    assert memoized == STORES


LAYERS = {"fock", "interferometer", "jcm", "linear_optics", "loop_circuit"}


def test_package_init_binds_only_the_layer_modules():
    # names live in their layer; ``jcsim`` itself re-exports none of them
    tree = ast.parse((ROOT / "src" / "jcsim" / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == LAYERS | {"__version__"}


def test_import_jcsim_loads_every_layer():
    # perfbench counts this import as set-up, so the layers must load with it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, jcsim; print(sorted(m for m in sys.modules if m.startswith('jcsim.')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert {f"jcsim.{layer}" for layer in LAYERS} <= set(ast.literal_eval(out))


def test_the_package_defines_no_exception_class():
    # every refusal is a ValueError, the one type the command line turns
    # into an ``error:`` line; a class of its own would only name a message
    defined = []
    for name in sorted(LAYERS | {"cli"}):
        module = importlib.import_module(f"jcsim.{name}")
        defined += [
            f"{name}.{cls.__name__}"
            for cls in vars(module).values()
            if inspect.isclass(cls)
            and cls.__module__ == module.__name__
            and issubclass(cls, BaseException)
        ]
    assert defined == []
