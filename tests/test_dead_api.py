"""No dead API: each public function, class, method and property in src has a caller in src, or a reason here.

The same holds for knobs: each defaulted parameter of a public function or
class is set by a call in src, or KNOBS says why it stays.

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


KNOBS = {
    "time_of_flight_delta.direction": "the direction tests, and ROADMAP item 10's flight along other directions",
    "polarization_modes.frame": "the frame-independence tests",
    "composite_boson_suite.second_weights": "acceptance criterion 8",
    "main.argv": "the tests drive the CLI in process",
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


def knobs(modules):
    """{"name.parameter": position, or None if keyword-only} of the defaulted parameters of each public module-level
    function, and of the __init__ or __new__ of each public class, over (module stem, source) pairs."""
    found = {}
    for _, source in modules:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                args, skip = node.args, 0
            elif isinstance(node, ast.ClassDef):  # the constructor, whose self or cls no call passes
                constructors = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name in ("__init__", "__new__")]
                args, skip = (constructors[0].args if constructors else None), 1
            else:
                continue
            if args is None or node.name.startswith("_"):
                continue
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found.update({f"{node.name}.{a.arg}": i - skip for i, a in enumerate(positional[first:], first)})
            found.update({f"{node.name}.{a.arg}": None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return found


def scoped_calls(node, scope=""):
    """(name of the innermost enclosing function, call) for each call under the AST ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, child
        yield from scoped_calls(child, child.name if isinstance(child, ast.FunctionDef) else scope)


def unset_knobs(modules):
    """The knobs() that no call in the modules sets, by keyword or by position.

    A call that only forwards the calling function's own knob, unchanged, sets
    the parameter only where that knob is set."""
    modules = list(modules)
    params = knobs(modules)
    sources = {knob: set() for knob in params}  # None: a call passes a value; else the knob the call forwards
    for _, source in modules:
        for scope, call in scoped_calls(ast.parse(source)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {kw.arg: kw.value for kw in call.keywords}
            starred = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), len(call.args))
            for knob, position in params.items():
                function, parameter = knob.split(".")
                if function != name:
                    continue
                value = call.args[position] if position is not None and position < starred else keywords.get(parameter)
                if value is not None:
                    forwarded = f"{scope}.{getattr(value, 'id', '')}"
                    sources[knob].add(forwarded if forwarded in params else None)
                elif None in keywords or (position is not None and starred < len(call.args)):
                    sources[knob].add(None)  # **kwargs or *args may carry it
    unset, changed = set(params), True
    while changed:
        now = {knob for knob in unset if sources[knob] - unset}
        unset, changed = unset - now, bool(now)
    return unset


def test_every_parameter_default_is_overridden_or_has_a_reason():
    # left only: set the parameter in src, drop its default, or list it; right only: src sets it or it is gone
    assert unset_knobs((path.stem, path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))) == set(KNOBS)


KNOB_MODULE = """def speed(distance, scale=1.0, units=None):
    return distance * scale

def flight(distance, units=None):
    return speed(distance, 2.0, units)
"""


@pytest.mark.parametrize(
    "caller, unset",
    [
        ("def run():\n    return flight(1.0)\n", {"speed.units", "flight.units"}),
        ("def run():\n    return flight(1.0, units='SI')\n", set()),
        ("def run():\n    return flight(1.0, 'SI')\n", set()),
        ("def run(*rest):\n    return speed(1.0, *rest)\n", {"flight.units"}),
        ("def run(**options):\n    return flight(1.0, **options)\n", set()),
    ],
    ids=["forwarded-unset", "keyword", "position", "starred", "double-starred"],
)
def test_a_parameter_default_is_set_only_by_a_call_that_passes_it(caller, unset):
    assert unset_knobs([("knobs", KNOB_MODULE), ("caller", caller)]) == unset
