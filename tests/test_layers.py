"""Layering and robustness rules of the package source, checked on its
syntax trees: no assert statements (answers must not change under
python -O), and each module imports only the latmac modules below it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "latmac"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def _latmac_imports(module):
    """The latmac modules that module imports, relatively or by name."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("latmac."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("latmac."))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    lines = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements at lines {lines}"


@pytest.mark.parametrize("module, allowed", [
    ("exactla", {"errors"}),
    ("order", {"exactla", "errors"}),
])
def test_imports_only_lower_layers(module, allowed):
    assert _latmac_imports(module) <= allowed


def test_ideal_does_not_import_upper_layers():
    assert not _latmac_imports("ideal") & {"latimer", "surface", "quadratic", "cli"}


def test_import_scan_sees_relative_imports():
    assert {"exactla", "ideal", "order"} <= _latmac_imports("latimer")
