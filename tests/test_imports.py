"""Every name a package module or demo imports is used there, and every
name a demo imports from jetwave exists."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jetwave"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
