"""Fixtures that more than one test module reads."""

import pytest


@pytest.fixture(scope="session")
def scalar_types():
    """Acceptance scenario name -> the type of every scalar its run made:
    tests/test_acceptance.py records each scenario's one run, and
    tests/test_no_float.py checks the record."""
    return {}
