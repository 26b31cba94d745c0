"""Every public name defined in ``jcsim`` is reached by the package or perfbench.

A function, class or method that only tests call belongs in the tests (or
in ``tests/oracles.py``), not in the package.  The check is by name: a
definition counts as reached when any ``Name``, ``Attribute`` or import
alias in ``src/jcsim`` (without ``__init__``) or ``perfbench/*.py`` spells
it.
"""

import ast
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
