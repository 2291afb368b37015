"""Every test starts with the matrix oracle cold: an autouse fixture
empties its tables and caches (``matrix_lab.clear()``) before each test,
so that no test passes only because an earlier one warmed them.  The
oracle is cleared only once it is loaded, so a test that never loads it
still does not."""

import sys

import pytest


@pytest.fixture(autouse=True)
def cold_oracle():
    oracle = sys.modules.get("periodlab.matrix_lab")
    if oracle is not None:
        oracle.clear()
