"""The package's runtime dependencies are the standard library only: every
absolute import in ``src/treealg`` names a standard-library module."""
import ast
import sys
from pathlib import Path

import pytest

import treealg

SOURCES = sorted(Path(treealg.__file__).parent.glob("*.py"))


def test_sources_found():
    assert Path(treealg.__file__) in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, (node.lineno, name)
