"""Dead code in the package (imports a module never uses, definitions
nothing calls, methods nothing reads), recursion, assertions and measured
figures in the docs, all found from the source alone with ``ast``; and
README against the code: every export named, no private name, the exit
codes, and its Python examples run."""

import ast
import pathlib
import re
from collections import Counter

import pytest

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "orbitsep"
README = (PACKAGE_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
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
    # evaluate_word and replay_trace are documented library entry points too:
    # check_certificate checks its inputs once and runs their cores.
    allowed = [
        "actions.py: separated_family",
        "separation.py: evaluate_word",
        "separation.py: replay_trace",
    ]
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


def _unread_methods():
    """Methods (dunders aside) whose name no package module reads as an
    attribute (``x.name``), as ``module: Class.name``."""
    read = {
        node.attr
        for tree in MODULES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    for module, tree in MODULES.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    name = node.name if isinstance(node, ast.FunctionDef) else "__"
                    if not name.startswith("__") and name not in read:
                        yield f"{module}: {cls.name}.{name}"


def test_every_method_is_read():
    allowed = [
        # the tests' letter-by-letter reference for apply_word
        "actions.py: GeneratedAction.step",
        # perfbench's sequence workload checks its generators by it
        "actions.py: GeneratedAction.generators_to_json",
        # argparse calls it on a usage error
        "cli.py: _Parser.error",
        # perfbench/tracer.py reads a trace's levels by it
        "separation.py: Trace.levels",
    ]
    assert [m for m in _unread_methods() if m not in allowed] == []


# A timing or a size (a number with its unit), a speed-up or a share of the
# work, or the tool that measured one.
_FIGURE = re.compile(
    r"\d\s*(ns|µs|ms|KiB|MiB|GiB|KB|MB|bytes)\b|times faster|of the time|million"
    r"|tracemalloc|\b(?i:two|three|four) (thirds|quarters|fifths)\b|\d\s*%"
)


def _documents():
    """README.md, then every docstring in the package, as (where, text)."""
    yield "README.md", README
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{module}: {getattr(node, 'name', 'module')}", doc


def test_docs_quote_no_measured_figure():
    """README and the docstrings state contracts.  Speed and memory figures
    go stale with the next change to the code they describe, so they live
    in CHANGES.md, each with the commit it was measured at."""
    found = [
        f"{where}: {line.strip()}"
        for where, text in _documents()
        for line in text.splitlines()
        if _FIGURE.search(line)
    ]
    assert found == []


def _named_in_readme(name):
    return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", README) is not None


def test_readme_names_every_export():
    """README's API contract names each name ``orbitsep`` exports."""
    exports = list(_imported_names(MODULES["__init__.py"]))
    assert [name for name in exports if not _named_in_readme(name)] == []


def _private_names():
    """Every ``_``-prefixed identifier the package defines or reads, dunders
    and the bare ``_`` aside."""
    for tree in MODULES.values():
        for node in ast.walk(tree):
            for field in ("name", "id", "attr", "arg"):
                name = getattr(node, field, None)
                if isinstance(name, str) and re.fullmatch(r"_[A-Za-z0-9]\w*", name):
                    yield name


def test_readme_names_no_private_identifier():
    """README states the public contract: a private name it quotes would
    tie it to an implementation the next change may rename or delete."""
    assert sorted({name for name in _private_names() if _named_in_readme(name)}) == []


def test_readme_exit_code_table_matches_the_cli():
    """One row per payload status, as ``EXIT_FOR_STATUS`` maps it, then the
    two exits that print no payload: 3 (invalid input) and 2 (out of
    memory)."""
    from orbitsep import cli

    assert "\n## Exit codes\n" in README
    section = README.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([^|]+?) \| (\d) \|", section, re.M)
    statuses = [(s.strip("`"), int(code)) for s, code in rows if s.startswith("`")]
    others = [int(code) for s, code in rows if not s.startswith("`")]
    assert statuses == list(cli.EXIT_FOR_STATUS.items())
    assert others == [cli.EXIT_INVALID, cli.EXIT_BUDGET]


def test_readme_python_examples_run():
    """Every ```python block of README runs, its asserts included."""
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
