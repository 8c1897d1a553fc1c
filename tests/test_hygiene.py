"""Dead code in the package: imports a module never uses, definitions
nothing calls.  Both are found from the source alone, with ``ast``."""

import ast
import pathlib
from collections import Counter

import pytest

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "orbitsep"
MODULES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PACKAGE_DIR.glob("*.py"))
}


def _references(node):
    """How often each name is read, as a bare name or as an attribute."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
    return names


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = _references(tree)
    assert [name for name in _imported_names(tree) if not used[name]] == []


def _unreferenced(private):
    """Top-level private (or public) functions and classes that no module
    uses outside their own body; an export from ``__init__.py`` is no use."""
    everywhere = Counter()
    for module, tree in MODULES.items():
        if module != "__init__.py":
            everywhere += _references(tree)
    for module, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # Uses inside its own body (recursion) do not count.
            name = node.name
            if name.startswith("_") == private and not (
                everywhere[name] - _references(node)[name]
            ):
                yield f"{module}: {name}"


def test_every_private_definition_is_referenced():
    assert list(_unreferenced(private=True)) == []


def test_every_public_definition_is_referenced():
    # separated_family is a library entry point the README documents: it
    # certifies that an orbit has no small eps-net, which no solver step needs.
    allowed = ["actions.py: separated_family"]
    assert [d for d in _unreferenced(private=False) if d not in allowed] == []
