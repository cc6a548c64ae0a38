"""Guard against dead code, by a scan of the syntax trees: an import that
its module never uses (in the package or the tests), and a module-level
private name of the package that no module, test or benchmark script
references.  The package's ``__init__`` imports are its public API, so
they count as used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))
BENCH = sorted((ROOT / "perfbench").rglob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    """(bound name, line) of every import but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _loaded_names(tree):
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _references(tree):
    """Every name ``tree`` reads, imports by name, reaches as an attribute
    or spells as a string (``monkeypatch.setattr(module, "name", ...)``)."""
    refs = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def _private_definitions(tree):
    """(name, line) of each module-level private def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, node.lineno) for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name, line in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, line


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE + TESTS if p.name != "__init__.py"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_unused_imports(path):
    tree = _parse(path)
    used = _loaded_names(tree)
    unused = [(name, line) for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_private_package_name_is_referenced():
    trees = {path: _parse(path) for path in PACKAGE + TESTS + BENCH}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    dead = [
        (path.name, name, line)
        for path in PACKAGE
        for name, line in _private_definitions(trees[path])
        if name not in refs
    ]
    assert not dead, f"unreferenced private names: {dead}"
