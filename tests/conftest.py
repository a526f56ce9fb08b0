"""Fixtures shared by every test file."""

import pytest

from abelinv import cayley


@pytest.fixture(autouse=True)
def fresh_cayley_caches():
    """Start each test with no cached plain-table result, orbit record or any other cayley cache.

    Every cache that cayley holds (each module attribute with a cache_clear)
    lives as long as the process, so a result that one test's monkeypatched
    kernel made would otherwise answer a later test; clearing them all by
    that test keeps a renamed or new cache in reach too.
    """
    for value in vars(cayley).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
