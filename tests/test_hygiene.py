"""Dead code in the package (imports a module never uses, definitions
nothing calls), recursion and assertions.  All are found from the source
alone, with ``ast``."""

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
    """How often each bare name is read.  An attribute (``x.name``) is not a
    read of a top-level ``name``: it may be any method or field so called."""
    reads = (n for n in ast.walk(node) if isinstance(n, ast.Name))
    return Counter(n.id for n in reads if isinstance(n.ctx, ast.Load))


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


def _imported_from_siblings():
    """(module, name) for every ``from .module import name`` outside
    ``__init__.py``."""
    return {
        (f"{node.module}.py", alias.name)
        for module, tree in MODULES.items()
        if module != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _unreferenced(private):
    """Top-level private (or public) functions and classes that nothing uses:
    their own module never reads their bare name outside their own body
    (recursion does not count), and no other module imports them.  An export
    from ``__init__.py`` is no use, and another module's local of the same
    name is not a use either."""
    imported = _imported_from_siblings()
    for module, tree in MODULES.items():
        reads = _references(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            used = reads[name] - _references(node)[name] or (module, name) in imported
            if name.startswith("_") == private and not used:
                yield f"{module}: {name}"


def test_every_private_definition_is_referenced():
    assert list(_unreferenced(private=True)) == []


def test_every_public_definition_is_referenced():
    # separated_family is a library entry point the README documents: it
    # certifies that an orbit has no small eps-net, which no solver step needs.
    allowed = ["actions.py: separated_family"]
    assert [d for d in _unreferenced(private=False) if d not in allowed] == []


def test_no_top_level_function_calls_itself():
    """Loops, not recursion: an input's size must not meet the recursion
    limit.  space_from_json recurses once per scaled/discrete wrapper, which
    MAX_SPACE_NESTING caps."""
    recursive = [
        f"{module}: {node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]
    assert recursive == ["spaces.py: space_from_json"]


def test_no_assertion_in_the_package():
    """No input produces a traceback, so the package neither asserts nor
    raises AssertionError: ``python -O`` drops the one and no caller handles
    the other."""
    found = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "AssertionError"
    ]
    assert found == []
