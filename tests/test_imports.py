"""Every name a package module or demo imports is used there, every name a
demo imports from jetwave exists, and every export has a caller."""

import ast
import importlib
import pathlib

import pytest

import jetwave

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jetwave"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source):
    """Names bound by import statements that no expression of the module
    reads (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_unused_name():
    source = "from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n"
    assert unused_imports(source) == [(1, "field")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + DEMOS,
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def jetwave_imports(source):
    """(module, name) of every ``from jetwave... import name``."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "jetwave"
            for alias in node.names]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    """A demo is not run here, but a name it imports from jetwave that is
    gone fails here rather than the next time the demo runs."""
    names = jetwave_imports(path.read_text(encoding="utf-8"))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (module, name)


def names_used(source):
    """Names the source imports (the module of ``from m import n`` counted
    by its last component) or reads, by name or as an attribute, outside
    the top-level def or class that defines them."""
    used = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                found = [(node.module or "").split(".")[-1],
                         *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                found = [part for alias in node.names
                         for part in alias.name.split(".")]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found = [node.id]
            else:
                continue
            used.update(name for name in found if name != own)
    return used


def test_names_used_skips_own_definition():
    source = "def f():\n    return f()\n\ndef g():\n    return h.k\n"
    assert names_used(source) == {"h", "k"}


def test_every_export_has_a_caller():
    """Each name in jetwave.__all__ is used in src/, demos/ or perfbench/
    outside its own definition: a public name that nothing uses fails
    here."""
    used = set().union(*(names_used(path.read_text(encoding="utf-8"))
                         for path in sorted(PACKAGE.glob("*.py")) + DEMOS
                         + PERFBENCH))
    assert [name for name in jetwave.__all__ if name not in used] == []
