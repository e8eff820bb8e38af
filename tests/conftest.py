"""Fixtures shared by the test modules."""

import pytest

from latticelight.fock import FockSpace


@pytest.fixture(scope="session")
def fock_space():
    """fock_space(momenta): the verified FockSpace over ``momenta``, built once per test session.

    A build at 3 momenta costs about 50 ms, nearly all of it the anticommutator
    verification.  Tests only read the shared spaces; a test that alters a
    space builds its own.
    """
    spaces = {}

    def get(momenta):
        key = tuple(momenta)
        if key not in spaces:
            spaces[key] = FockSpace(key)
        return spaces[key]

    return get
