"""The import graph between the library's layers, read from the source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opchain"


def _relative_imports(module: str) -> set:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    # ``from .x import y`` names x; ``from . import x`` names x as an alias
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])}


@pytest.mark.parametrize("module, banned", [
    # the perturbed families are exact: no float spectra behind them
    ("perturb", "jacobi"),
    # LU and spectra read a system's block, not its gamma recovery
    ("jacobi", "chains"),
])
def test_module_does_not_import(module, banned):
    assert banned not in _relative_imports(module)
