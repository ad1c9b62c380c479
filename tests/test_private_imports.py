"""Module boundaries: no package module imports a sibling's private name.

A name with a leading underscore is private to the module that defines
it; a decision two modules need belongs to a public name one of them
owns.  Tests may still import private names.
"""

import ast
from pathlib import Path

import taniapn

PACKAGE = Path(taniapn.__file__).parent


def private_imports(path: Path) -> list[str]:
    """'from X import _y' for every underscore name the file imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "taniapn"):
            source = "." * node.level + (node.module or "")
            found += [f"from {source} import {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert {p.name: private_imports(p) for p in modules if private_imports(p)} == {}


def test_private_imports_sees_relative_and_absolute_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .diffanalysis import _x, y\n"
                     "from taniapn.families import _z\n"
                     "from . import _w\n"
                     "from numpy import _private_elsewhere\n")
    assert private_imports(probe) == ["from .diffanalysis import _x",
                                      "from taniapn.families import _z", "from . import _w"]
