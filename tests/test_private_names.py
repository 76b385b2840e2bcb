"""No module of the package imports or reads an underscore name of a
sibling module: each private helper is used only where it is defined.
Modules themselves may be imported under any name, ``_linalg`` included."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "widthlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def sibling(node: ast.ImportFrom) -> str | None:
    """The sibling module an import reads names from; ``""`` for the
    package itself, ``None`` for anything outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "widthlab":
        return node.module.partition(".")[2]
    return None


def violations(tree: ast.Module) -> list:
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and sibling(node) is not None:
            for alias in node.names:
                if sibling(node) == "":
                    modules.add(alias.asname or alias.name)  # from . import layer
                elif private(alias.name):
                    found.append(f"line {node.lineno}: imports {node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("widthlab.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_the_package_has_modules():
    assert {"_linalg.py", "spectra.py", "covering.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_of_a_sibling_module(path):
    assert violations(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source, found", [
    ("from ._linalg import svd, rank", []),
    ("from . import _linalg, covering\n_linalg.svd(covering.covers)", []),
    ("from .covering import _prescribed_factors", ["line 1: imports covering._prescribed_factors"]),
    ("from widthlab.spectra import _x as y", ["line 1: imports widthlab.spectra._x"]),
    ("from . import covering as c\nc._schmidt_factors()", ["line 2: reads c._schmidt_factors"]),
    ("import widthlab.seqlab as s\ns._pattern", ["line 2: reads s._pattern"]),
    ("from numpy import _core\nself._bases()\nx.__dict__", []),
])
def test_the_check_sees_imports_and_reads(source, found):
    assert violations(ast.parse(source)) == found
