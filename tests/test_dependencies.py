"""The program's only third-party library is NumPy.

Everything else it imports comes from the standard library or from
``repro`` itself, so installing the package pulls in NumPy alone and a
process that imports it loads nothing more.  This check walks every
module under ``src/repro`` and fails on an import of any other package,
wherever in the module the import sits.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Top-level packages the program may import.
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "repro"}


def foreign_imports(root: pathlib.Path = SRC) -> list[str]:
    """``path:line: module`` for every import of a package not allowed."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.partition(".")[0] not in ALLOWED:
                    where = path.relative_to(root.parent)
                    found.append(f"{where}:{node.lineno}: {module}")
    return found


def test_program_imports_only_numpy_beside_the_standard_library():
    assert foreign_imports() == []


def test_the_check_sees_each_import_form(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "graphs.py").write_text(
        "import networkx as nx\n"
        "import numpy.linalg, os.path\n"
        "from scipy.sparse import csr_matrix\n"
        "from repro.dataflow import graph\n"
        "from . import networkx\n"
        "def lazy():\n"
        "    import pandas\n"
    )
    assert foreign_imports(package) == [
        "repro/graphs.py:1: networkx",
        "repro/graphs.py:3: scipy.sparse",
        "repro/graphs.py:7: pandas",
    ]
