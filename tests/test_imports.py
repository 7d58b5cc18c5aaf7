import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kernmetric"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the routine every Gram matrix goes through, the one boundary bench/tracing.py wraps
ALLOWED_PRIVATE = {"kernels._base_gram"}


def unused_imports(source: str) -> list:
    """Names bound by an import (other than from __future__) and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def private_imports(source: str) -> list:
    """'module._name' for each private name imported from another module of the package,
    or read as an attribute of one imported whole (``from . import io as kio``)."""
    tree = ast.parse(source)
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(found)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\n" \
             "from typing import List, Tuple\nx: List = np.zeros(1)\n"
    assert unused_imports(source) == [(2, "os"), (4, "Tuple")]


def test_private_imports_are_found():
    source = "from .kernels import KernelSpec, _base_gram, _sq_dists\n" \
             "from . import io as kio\nfrom dataclasses import _FIELDS\nkio._table(kio.fmt)\n"
    assert private_imports(source) == ["io._table", "kernels._base_gram", "kernels._sq_dists"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_no_private_name(path):
    assert set(private_imports(path.read_text())) <= ALLOWED_PRIVATE


def test_import_does_not_load_numpy_random():
    # numpy >= 2 loads numpy.random on first use, and loading it on import costs every
    # CLI command about 17 ms; numpy 1.x loads it with numpy itself, and then the
    # check is only that kernmetric adds no load
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; import kernmetric.cli; "
            "sys.exit(not eager and 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_import_does_not_load_selfcheck():
    # only the selfcheck command reads it, and its import costs every other command
    code = "import sys, kernmetric.cli; sys.exit('kernmetric.selfcheck' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
