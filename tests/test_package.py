"""The package's import hygiene, read from the source: what it exports and what each module imports."""

import ast
import re
from pathlib import Path

import logsumineq

SRC = Path(logsumineq.__file__).parent
_NOQA = re.compile(r"#\s*noqa: F401\s*\S")  # a marker followed by its reason


def _imports(tree: ast.Module):
    """(name bound, line) of every top-level import except __future__ features."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], alias.lineno


def test_package_exports_every_public_name_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {name for name, _ in _imports(tree) if not name.startswith("_")}
    assert len(logsumineq.__all__) == len(set(logsumineq.__all__))
    assert set(logsumineq.__all__) == imported


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            for elt in node.value.elts
        }
        for name, line in _imports(tree):
            if name not in used | exported and not _NOQA.search(lines[line - 1]):
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
