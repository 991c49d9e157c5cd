import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the repository's own top-level modules besides the test_* files: the package, the test fixtures and
# the benchmark's scripts, which import each other by file name
OWN_MODULES = {"oflc", "conftest", "child", "tracer", "checks", "workloads", "run"}


def _imported_top_level_names(path):
    """The top-level module name of every absolute import in the file, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _third_party_imports(*folders):
    """The top-level name of every import in the folders' files that is neither stdlib nor the repository's own."""
    imported = set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            imported |= _imported_top_level_names(path)
    return {name for name in imported
            if name not in sys.stdlib_module_names and name not in OWN_MODULES and not name.startswith("test_")}


def _names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower() for requirement in requirements}


def test_every_third_party_import_is_declared():
    # pip install -e . gives exactly what the package imports, and pip install -e '.[test]' adds everything its
    # tests and the benchmark import
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = _names(project["dependencies"])
    everything = _third_party_imports("src/oflc", "tests", "bench")
    assert {"numpy", "scipy", "pytest", "hypothesis"} <= everything
    assert sorted(runtime) == sorted(_third_party_imports("src/oflc"))
    assert sorted(everything - runtime - _names(project["optional-dependencies"]["test"])) == []
