"""Module boundaries of the package: no module imports another's private
(underscore) names or reads them as attributes of it, and every public name
has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

from gpbandit import __all__ as EXPORTED

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gpbandit"
MODULES = {path.stem for path in SRC.glob("*.py")}
# the code the program runs: the package, the benchmark and the scripts
CALLERS = [SRC, ROOT / "perfbench", ROOT / "scripts"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str, own: str) -> list[str]:
    """'module._name' for each private name of another package module that
    `source`, the text of module `own`, imports or reads as an attribute."""
    tree = ast.parse(source)
    found, aliases, roots = [], {}, set()  # local name -> module; names of the package
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "gpbandit"
                                                 or (node.module or "").startswith("gpbandit.")):
            module = (node.module or "").removeprefix("gpbandit").lstrip(".")
            for alias in node.names:
                if not module and alias.name in MODULES:  # from . import bench
                    aliases[alias.asname or alias.name] = alias.name
                elif module and module != own and _private(alias.name):
                    found.append(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gpbandit.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]
                elif alias.name.split(".")[0] == "gpbandit":
                    roots.add(alias.asname or "gpbandit")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        value, module = node.value, None
        if isinstance(value, ast.Name):
            module = aliases.get(value.id)
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
              and value.value.id in roots and value.attr in MODULES):
            module = value.attr  # gpbandit.bench._name
        if module is not None and module != own:
            found.append(f"{module}.{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_reads_another_modules_private_names(module):
    assert private_reads((SRC / f"{module}.py").read_text(), module) == []


@pytest.mark.parametrize("source,want", [
    ("from .kernels import _scratch_views, cross_matrix", ["kernels._scratch_views"]),
    ("from gpbandit.kernels import _HALF_INTEGER_NUS as H", ["kernels._HALF_INTEGER_NUS"]),
    ("from . import bench\nkeys = bench._DEFAULTS", ["bench._DEFAULTS"]),
    ("from gpbandit import bench as b\nb._FIELDS.items()", ["bench._FIELDS"]),
    ("import gpbandit.bench as b\nb._FIELDS", ["bench._FIELDS"]),
    ("import gpbandit.bench\ngpbandit.bench._FIELDS", ["bench._FIELDS"]),
    ("from . import bench\nbench.CONFIG_KEYS, bench.__name__", []),
    ("from .gp import _VAR_MARGIN", []),  # a module's own names
    ("from __future__ import annotations\nimport numpy as np\nnp._x", []),
])
def test_the_check_sees_each_form_of_a_read(source, want):
    assert private_reads(source, "gp") == want


def _defined(node) -> list[str]:
    """The names a statement of a module or class body defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def public_definitions(source: str) -> list[tuple[str | None, str]]:
    """(None, name) for each public name that `source` defines at module
    level, and (class, name) for each public name a class body defines:
    methods, properties, fields and class constants."""
    found = []
    for node in ast.parse(source).body:
        found += [(None, name) for name in _defined(node) if not name.startswith("_")]
        if isinstance(node, ast.ClassDef):
            found += [(node.name, name) for sub in node.body for name in _defined(sub)
                      if not name.startswith("_")]
    return found


def references(source: str) -> set[str]:
    """Each name `source` reads, each attribute it names, and each name it
    imports; a name it only defines or assigns is none of these."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def test_every_public_name_has_a_caller():
    # by name, not by binding: a name counts as called wherever the package,
    # perfbench or scripts name it; gpbandit.__all__ is the library's API
    called = set()
    for directory in CALLERS:
        for path in directory.glob("*.py"):
            called |= references(path.read_text())
    uncalled = [f"{module}.{name}" if owner is None else f"{module}.{owner}.{name}"
                for module in sorted(MODULES)
                for owner, name in public_definitions((SRC / f"{module}.py").read_text())
                if name not in called and not (owner is None and name in EXPORTED)]
    assert uncalled == []


@pytest.mark.parametrize("source,want", [
    ("def f(a):\n    return g(a.b)", {"g", "a", "b"}),
    ("A = 1\nclass C:\n    n: int = A", {"int", "A"}),
    ("obj.attr = 1", {"obj", "attr"}),
    ("from .kernels import kernel_values as kv\nimport gpbandit.bench",
     {"kernel_values", "bench"}),
])
def test_the_caller_scan_sees_references_not_definitions(source, want):
    assert references(source) == want
