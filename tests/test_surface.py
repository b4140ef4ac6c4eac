"""The package's surface: what ``import starflux`` exposes, and no dead imports.

The top-level namespace holds the documented API and the error classes;
every other name is reached through its module. Every file's top-level
imports are used, so an import is never the only thing that keeps a name
alive.
"""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import starflux
from conftest import ROOT
from starflux import errors


def _readme_names() -> set[str]:
    """Identifiers inside the README's inline code spans and code blocks."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```", text, flags=re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def _demo_imports() -> set[str]:
    names = set()
    for path in (ROOT / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "starflux":
                names.update(alias.name for alias in node.names)
    return names


def test_public_names_are_documented_or_used_by_a_demo():
    public = {
        name
        for name in dir(starflux)
        if not name.startswith("_")
        and not isinstance(getattr(starflux, name), types.ModuleType)
    }
    error_classes = {
        name
        for name in public
        if getattr(getattr(starflux, name), "__module__", "") == errors.__name__
    }
    undocumented = public - error_classes - _readme_names() - _demo_imports()
    assert not undocumented, sorted(undocumented)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in bound.items()
        if name not in used
    ]


def test_no_unused_top_level_imports():
    files = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, unused
