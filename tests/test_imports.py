"""Every name a library module imports is read somewhere in that module.

The test dependencies bring no linter, so this walks each module's syntax
tree. The package `__init__` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import sgdelta

MODULES = sorted(p.name for p in Path(sgdelta.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # quoted annotations are not read: the modules import annotations from
    # __future__, so none needs quoting
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "import numpy as np\nfrom itertools import combinations, count\nfor i in count(): np.abs(i)\n"
    assert unused_imports(source) == ["combinations"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    source = (Path(sgdelta.__file__).parent / name).read_text()
    assert unused_imports(source) == [], name
