"""Every name a package module or demo imports is used there, every name a
demo imports from jetwave exists, every export has a caller, every
parameter of a package function is read, and no package module uses a
numpy.fft transform."""

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


def unread_parameters(source):
    """(function, parameter) of every parameter that its function's body
    never reads by name; self, and names that start with an underscore (the
    mark of a parameter left unread on purpose), excepted."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        read = {node.id for stmt in func.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [(func.name, name) for name in params
                  if name not in read and name != "self"
                  and not name.startswith("_")]
    return found


def test_detects_unread_parameter():
    source = ("def f(self, a, b=1, *_, c):\n"
              "    def g(d):\n        return a + c\n    return g\n")
    assert unread_parameters(source) == [("f", "b"), ("g", "d")]


#: parameters a signature fixes but the body does not read
UNREAD_ON_PURPOSE = {
    # accepted and not read (no symbol depends on the reference radius);
    # perfbench passes it, and the benchmark is changed on its own
    ("symbols.py", "symbol_identity_report", "R"),
    # the (cfg, out_dir, seed, quiet) signature every subcommand handler has
    ("cli.py", "cmd_dispersion", "seed"),
    ("cli.py", "cmd_dtn", "seed"),
}


def test_no_unread_parameters():
    found = {(path.name, func, name) for path in sorted(PACKAGE.glob("*.py"))
             for func, name in unread_parameters(
                 path.read_text(encoding="utf-8"))}
    assert found == UNREAD_ON_PURPOSE


#: the one numpy.fft name the package may use: the lattice frequencies
NUMPY_FFT_ALLOWED = {"fftfreq"}


def numpy_fft_uses(source):
    """(line, name) of every numpy.fft name but those allowed that the
    source imports or reads: as ``np.fft.name`` (numpy under any alias), as
    an attribute of an alias of numpy.fft, or from ``from numpy.fft
    import``.  The package's transforms run on scipy.fft."""
    tree = ast.parse(source)
    numpy_aliases, fft_aliases, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.fft":
                    if alias.asname:
                        fft_aliases.add(alias.asname)
                    else:
                        numpy_aliases.add("numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy":
                fft_aliases.update(alias.asname or alias.name
                                   for alias in node.names
                                   if alias.name == "fft")
            elif node.module == "numpy.fft":
                found += [(node.lineno, alias.name) for alias in node.names
                          if alias.name not in NUMPY_FFT_ALLOWED]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or node.attr in NUMPY_FFT_ALLOWED:
            continue
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id in fft_aliases) or (
                isinstance(owner, ast.Attribute) and owner.attr == "fft"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in numpy_aliases):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_detects_numpy_fft():
    source = ("import numpy as np\nimport numpy.fft as nf\n"
              "from numpy.fft import rfft, fftfreq\nimport scipy.fft as sf\n"
              "k = np.fft.fftfreq(8)\nc = np.fft.fft2(k)\nd = nf.ifft(c)\n"
              "e = sf.fft2(c)\n")
    assert numpy_fft_uses(source) == [(3, "rfft"), (6, "fft2"), (7, "ifft")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_numpy_fft_transforms(path):
    assert numpy_fft_uses(path.read_text(encoding="utf-8")) == []


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
