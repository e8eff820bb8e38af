"""No dead API: each public function and class in src has a caller in src, or a reason here.

The package's ``__init__`` re-exports do not count as callers.  A name that
only tests call stays only when an acceptance criterion calls it as written,
when it is the reference that a test compares shipped code against, or when
an open ROADMAP item decides its fate; TEST_ONLY says which.  A private
function or class has no such escape: it is used in src, or it goes.
"""

import ast
from pathlib import Path

import latticelight

SRC = Path(latticelight.__file__).parent

TEST_ONLY = {
    "weyl_step": "the one-step reference that tests compare walk.step_power against",
    "interp_unitary": "the exact interpolating unitary of the walk error-law tests",
    "approx_interp_unitary": "the first-order surrogate of the walk error-law tests",
    "maxwell_generator_check": "acceptance criterion 4",
    "speed_of_light": "acceptance criterion 5b",
    "group_velocity": "acceptance criterion 5c: the finite-difference oracle of group_velocity_analytic",
    "build_fock": "acceptance criteria 7 to 9: the Jordan-Wigner Fock space that the onebody checks are compared against",
    "commutator_report": "acceptance criterion 7: the per-pair CSR reference of the pair-commutator oracles",
    "schwartz_exhaustive": "acceptance criterion 8: the basis-state sweep that onebody.schwartz_bound is compared against",
    "composite_boson_suite": "acceptance criterion 8: the Fock-space reference of onebody.composite_bosons",
    "pair_condensate": "acceptance criterion 8: the CSR (c^dag)^N |0> chain",
    "saturation_estimate": "ROADMAP item 3 decides whether a saturation subcommand uses it or it goes",
}


def definitions_and_references():
    """([(module, name) of every module-level function or class], names src uses, names src imports); __init__ is no user."""
    defined, used, imported = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.stem, node.name) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                imported.add(node.name)
    return defined, used, imported


def test_every_public_name_has_a_src_caller_or_a_reason():
    defined, used, imported = definitions_and_references()
    public = {name: module for module, name in defined if not name.startswith("_")}
    uncalled = {f"{module}.{name}" for name, module in public.items() if name not in used | imported}
    # left only: call, delete or list it; right only: src calls or no longer defines it
    assert uncalled == {f"{public.get(name)}.{name}" for name in TEST_ONLY}


def test_every_private_name_has_a_src_caller():
    # an import is not a call: a private name that src only re-exports for the tests is dead
    defined, used, _ = definitions_and_references()
    assert {f"{module}.{name}" for module, name in defined if name.startswith("_") and name not in used} == set()
