"""The program runs in one process on one thread.

Simulated parallelism is priced by the pump pool
(:class:`~repro.engines.common.sharded.ShardedPump`), which runs its
shards one after another, so no module of the program needs a host
thread or process pool.  This check keeps it that way: importing a
concurrency module anywhere under ``src/repro`` fails it.  Starting the
C compiler that builds the native workload generator (``subprocess``)
is a build step, not concurrency, and stays allowed.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose import means host concurrency.
FORBIDDEN = ("concurrent.futures", "multiprocessing", "threading", "_thread")


def _forbidden(module: str) -> bool:
    return any(
        module == name or module.startswith(name + ".") for name in FORBIDDEN
    )


def concurrency_imports(root: pathlib.Path = SRC) -> list[str]:
    """``path:line: module`` for every forbidden import under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
                # ``from concurrent import futures`` names the module too.
                modules += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            hits = [module for module in modules if _forbidden(module)]
            if hits:
                where = path.relative_to(root.parent)
                found.append(f"{where}:{node.lineno}: {hits[0]}")
    return found


def test_program_imports_no_concurrency_module():
    assert concurrency_imports() == []


def test_the_check_sees_each_import_form(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "pools.py").write_text(
        "import concurrent.futures\n"
        "from concurrent.futures import Executor\n"
        "from concurrent import futures\n"
        "import threading as t\n"
        "import subprocess\n"
        "from . import threading\n"
    )
    assert concurrency_imports(package) == [
        "repro/pools.py:1: concurrent.futures",
        "repro/pools.py:2: concurrent.futures",
        "repro/pools.py:3: concurrent.futures",
        "repro/pools.py:4: threading",
    ]
