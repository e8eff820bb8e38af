"""The declared dependencies match what src imports: nothing at run time; numpy for the test references walk and
fock, and scipy for fock, both as test extras."""

import ast
import re
import sys
from pathlib import Path

import pytest

import latticelight

SRC = Path(latticelight.__file__).parent
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def requirement_names(requirements):
    """Distribution names of PEP 508 requirement strings, without versions or extras."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def imported_packages():
    """{module stem: top-level packages other than latticelight that it imports, at its top or in a function}."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        found[path.stem] = names - {"latticelight"}
    return found


def third_party_imports():
    """{module stem: top-level packages outside the standard library and latticelight that it imports}."""
    return {module: names - set(sys.stdlib_module_names) for module, names in imported_packages().items()}


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    return tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]


def test_there_is_no_runtime_dependency(project):
    assert project["dependencies"] == []
    assert "numpy" in requirement_names(project["optional-dependencies"]["test"])


def test_scipy_is_a_test_extra(project):
    assert "scipy" in requirement_names(project["optional-dependencies"]["test"])


def test_src_imports_scipy_only_in_fock_and_nothing_else_outside_the_standard_library():
    imports = third_party_imports()
    assert {module for module, names in imports.items() if "scipy" in names} == {"fock"}
    assert set().union(*imports.values()) == {"numpy", "scipy"}


def test_no_src_module_imports_dataclasses_or_typing():
    # every module holds its records in named tuples, so no process loads dataclasses or, through it, inspect
    imports = imported_packages()
    assert {module for module, names in imports.items() if names & {"dataclasses", "typing"}} == set()


def numpy_importers():
    """{module stem: sorted names of the functions that import numpy, "<module>" for an import at its top}."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [("<module>", node) for node in tree.body]
        scopes += [
            (function.name, node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
        ]
        names = {
            scope
            for scope, node in scopes
            if (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy")
        }
        if names:
            found[path.stem] = sorted(names)
    return found


def test_only_the_test_references_walk_and_fock_import_numpy():
    # walk's batched closed forms and fock's Jordan-Wigner oracle serve the tests; every CLI path runs on the
    # standard library, and dispersion takes one wavevector per call
    assert numpy_importers() == {"fock": ["<module>"], "walk": ["<module>"]}
    assert {module for module, names in third_party_imports().items() if names} == {"fock", "walk"}
