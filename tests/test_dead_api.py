"""No dead API: each public function, class, method and property in src has a caller in src, or a reason here.

The package's ``__init__`` re-exports do not count as callers.  A name that
only tests call stays only when an acceptance criterion calls it as written,
when it is the reference that a test compares shipped code against, or when
an open ROADMAP item decides its fate; TEST_ONLY and TEST_ONLY_METHODS say
which.  A private function or class has no such escape: it is used in src,
or it goes.  Methods are matched by name: any attribute of that name read in
src counts as a call.
"""

import ast
from pathlib import Path

import pytest

import latticelight

SRC = Path(latticelight.__file__).parent

TEST_ONLY = {
    "maxwell_generator_check": "acceptance criterion 4",
    "gamma_for_profile": "acceptance criterion 7: the CSR gamma operators of the pair-commutator sweep",
    "schwartz_exhaustive": "acceptance criterion 8: the basis-state sweep that onebody.schwartz_bound is compared against",
    "composite_boson_suite": "acceptance criterion 8: the Fock-space reference of onebody.composite_bosons",
    "pair_condensate": "acceptance criterion 8: the CSR (c^dag)^N |0> chain",
    "saturation_estimate": "ROADMAP item 9 decides whether a saturation subcommand uses it or it goes",
    "omega": "acceptance criterion 5a; the dispersion table streams the same _wave per row through branches",
    "group_velocity_analytic": "acceptance criterion 5c: the analytic route held to the finite-difference oracle",
    "bloch_data": "acceptance criteria 1, 2 and 5c: the batched closed forms the tests hold the float routines to",
}

FOCK_TEST_API = "the Jordan-Wigner oracle's operators, which the tests build their references from"
TEST_ONLY_METHODS = {
    "FockSpace.annihilator": FOCK_TEST_API,
    "FockSpace.creator": FOCK_TEST_API,
    "FockSpace.number_operator": FOCK_TEST_API,
    "FockSpace.particle_numbers": FOCK_TEST_API,
}


def is_record(node):
    """Whether a module-level statement is a named-tuple record, ``X = namedtuple(...)``."""
    return (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "namedtuple"
    )


def scan(modules):
    """([(module, name)] of module-level functions, classes and named-tuple records, ["Class.method"] of public
    methods and properties, names used, names imported) over (module stem, source) pairs; __init__ is no user.

    A name is used where it is read; the assignment of a record and the ``X.__doc__ = ...`` line that documents it
    are no uses."""
    defined, methods, used, imported = [], [], set(), set()
    for stem, source in modules:
        tree = ast.parse(source)
        defined += [
            (stem, node.targets[0].id if is_record(node) else node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) or is_record(node)
        ]
        methods += [
            f"{node.name}.{item.name}"
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
        ]
        if stem == "__init__":
            continue
        docstring_lines = {
            target.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute) and target.attr == "__doc__"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node not in docstring_lines:
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                imported.add(node.name)
    return defined, methods, used, imported


def definitions_and_references():
    """scan() over the modules of src."""
    return scan((path.stem, path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py")))


RECORD = """from collections import namedtuple

Record = namedtuple("Record", "a b")
Record.__doc__ = "A record that no other line reads."
"""


@pytest.mark.parametrize(
    "user, used",
    [("def f():\n    return 1\n", False), ("def f():\n    return Record(1, 2)\n", True)],
    ids=["unused", "read"],
)
def test_a_named_tuple_record_is_defined_and_used_only_where_read(user, used):
    defined, _, names, _ = scan([("records", RECORD), ("user", user)])
    assert ("records", "Record") in defined
    assert ("Record" in names) == used


def test_every_public_name_has_a_src_caller_or_a_reason():
    defined, _, used, imported = definitions_and_references()
    public = {name: module for module, name in defined if not name.startswith("_")}
    uncalled = {f"{module}.{name}" for name, module in public.items() if name not in used | imported}
    # left only: call, delete or list it; right only: src calls or no longer defines it
    assert uncalled == {f"{public.get(name)}.{name}" for name in TEST_ONLY}


def test_every_public_method_has_a_src_caller_or_a_reason():
    _, methods, used, _ = definitions_and_references()
    uncalled = {qualified for qualified in methods if qualified.split(".")[1] not in used}
    assert uncalled == set(TEST_ONLY_METHODS)


def test_every_private_name_has_a_src_caller():
    # an import is not a call: a private name that src only re-exports for the tests is dead
    defined, _, used, _ = definitions_and_references()
    assert {f"{module}.{name}" for module, name in defined if name.startswith("_") and name not in used} == set()
