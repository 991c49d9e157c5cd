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


def test_every_third_party_import_is_declared():
    # pip install -e '.[test]' must give everything the package, its tests and the benchmark import
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower()
                for requirement in project["dependencies"] + project["optional-dependencies"]["test"]}
    imported = set()
    for folder in ("src/oflc", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            imported |= _imported_top_level_names(path)
    third_party = {name for name in imported
                   if name not in sys.stdlib_module_names and name not in OWN_MODULES and not name.startswith("test_")}
    assert {"numpy", "scipy", "pytest"} <= third_party
    assert sorted(third_party - declared) == []
