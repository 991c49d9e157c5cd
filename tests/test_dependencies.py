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


# the only functions of the package that import numpy: the array forms of the machine model, the generic RK4 and
# the runs on it, and two checks; the rest of the model speaks (d, q) pairs of floats
NUMPY_FUNCTIONS = {
    "machine.park_matrix", "machine.inverse_park_matrix", "machine.park_clarke", "machine.inverse_park_clarke",
    "machine.dq_dynamics", "sim.rk4", "sim._rk4_trajectory", "sim.run_continuous", "loop.closed_loop_tf_check",
    "cli._cmd_selftest",
}


def _numpy_importers(node, scope=()):
    """The dotted name of the innermost function or class around each numpy import under the ast ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _numpy_importers(child, scope + (child.name,))
        elif (isinstance(child, ast.Import) and any(alias.name.partition(".")[0] == "numpy" for alias in child.names)
              or isinstance(child, ast.ImportFrom) and child.level == 0 and child.module.partition(".")[0] == "numpy"):
            yield ".".join(scope)
        else:
            yield from _numpy_importers(child, scope)


def test_numpy_is_imported_only_by_the_array_forms():
    importers = {f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "oflc").glob("*.py"))
                 for name in _numpy_importers(ast.parse(path.read_text(encoding="utf-8")))}
    assert "machine.dq_dynamics" in importers
    assert sorted(importers - NUMPY_FUNCTIONS) == []


def test_every_data_file_of_the_package_ships():
    # a file of src/oflc that is not a module, such as the compiled loop's C source, reaches a wheel only if
    # pyproject.toml's package-data lists it
    tomllib = pytest.importorskip("tomllib")
    listed = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["tool"]["setuptools"]["package-data"]
    package = ROOT / "src" / "oflc"
    data = {path.relative_to(package).as_posix() for path in package.rglob("*")
            if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts}
    assert "_kernels.c" in data
    assert sorted(data - set(listed["oflc"])) == []
