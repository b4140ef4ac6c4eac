"""The package's surface: what ``import starflux`` exposes, no dead
imports and no dead definitions.

The top-level namespace holds the documented API and the error classes;
every other name is reached through its module. Every file's top-level
imports are used, so an import is never the only thing that keeps a name
alive, and every top-level definition in src/ is named by the package,
a demo, the README or the benchmark, so none is kept only for tests; nor
is any class's field, property or method.
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


def _top_level_names(path: Path):
    """(name, line) of each function, class and assigned name at top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_every_top_level_definition_is_named_elsewhere():
    """A src/ definition named only on its own line, or only by tests, is
    dead; the package's __init__.py re-exports do not count as a use."""
    src = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    readers = src + sorted((ROOT / "demos").glob("*.py"))
    readers += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]
    lines = [
        (path, number, line)
        for path in readers
        for number, line in enumerate(path.read_text().splitlines(), 1)
    ]
    dead = []
    for path in src:
        for name, line in _top_level_names(path):
            word = re.compile(rf"\b{name}\b")
            elsewhere = (
                text for where, number, text in lines if (where, number) != (path, line)
            )
            if not any(word.search(text) for text in elsewhere):
                dead.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not dead, dead


def _class_members(path: Path):
    """(class, member) of each annotated field, property and non-dunder
    method of every class in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield node.name, item.target.id
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item.name


def _written_whole(tree: ast.AST) -> set[str]:
    """Dataclasses whose fields are all written out at once: a class
    handed to harness._rows_csv (a CSV row), and a class whose own method
    hands self to asdict (a manifest entry)."""
    writers = {"_rows_csv", "asdict"}

    def handed(node: ast.AST) -> set[str]:
        return {
            call.args[0].id
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in writers
            and call.args
            and isinstance(call.args[0], ast.Name)
        }

    classes = (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))
    return handed(tree) | {cls.name for cls in classes if "self" in handed(cls)}


def test_every_class_member_is_read_outside_tests():
    """Each member of a src/ class is read as ``.name`` by the package, a
    demo, the benchmark or the README, or its class is written out whole
    (the CSV rows, the manifest's level records)."""
    src = sorted((ROOT / "src").rglob("*.py"))
    readers = src + sorted((ROOT / "demos").glob("*.py"))
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    read = set(re.findall(r"\.([A-Za-z_]\w*)", (ROOT / "README.md").read_text()))
    whole = set()
    for path in readers:
        tree = ast.parse(path.read_text())
        whole |= _written_whole(tree)
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
        }
    unread = [
        f"{cls}.{name}"
        for path in src
        for cls, name in _class_members(path)
        if cls not in whole and name not in read
    ]
    assert not unread, unread
