"""The package is a numpy-only tool: it imports the standard library,
numpy and itself, nothing else."""

import ast
import subprocess
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


def test_mistyped_mark_fails_collection(tmp_path):
    # under the project's pytest settings a mark that is not registered,
    # such as `filterwarning` for `filterwarnings`, is an error, not a warning
    (tmp_path / "test_typo.py").write_text(
        'import pytest\n\n\n@pytest.mark.filterwarning("error")\ndef test_typo():\n    pass\n'
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_typo.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0, proc.stdout
    assert "'filterwarning' not found in `markers` configuration option" in proc.stdout
