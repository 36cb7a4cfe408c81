"""The package is a numpy-only tool: it imports the standard library,
numpy and itself, nothing else."""

import ast
import sys
from pathlib import Path

import rootgrowth


def test_package_imports_only_stdlib_and_numpy():
    # every import statement counts, those inside functions too, so an
    # import that only some runs reach (the process pool's) is checked
    package = Path(rootgrowth.__file__).resolve().parent
    imported = {}  # top-level module -> a file that imports it
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one: the package itself
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert {"numpy", "concurrent"} <= set(imported)  # the pool's import is in a function
    allowed = set(sys.stdlib_module_names) | {"numpy", "rootgrowth"}
    assert {top: path for top, path in imported.items() if top not in allowed} == {}
