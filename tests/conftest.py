"""Fixtures shared by every test file."""

import pytest

from abelinv import cayley


@pytest.fixture(autouse=True)
def fresh_cayley_caches():
    """Start each test with no cached plain-table result or orbit record.

    Both caches live as long as the process, so a result that one test's
    monkeypatched kernel made would otherwise answer a later test.
    """
    cayley._plain_results.cache_clear()
    cayley._symmetry.cache_clear()
