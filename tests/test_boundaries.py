"""Module boundaries of the package: no module imports another's private
(underscore) names or reads them as attributes of it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gpbandit"
MODULES = {path.stem for path in SRC.glob("*.py")}


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
