"""Shared exception types."""

from __future__ import annotations


class GuardExceeded(RuntimeError):
    """A computation was refused because its size exceeds a hard resource guard.

    Guards protect against accidental combinatorial blowups (factorial
    permanent expansions, exponential subset DPs and the like).  The CLI maps
    this to exit code 3.
    """

    def __init__(self, what: str, size: object, limit: object):
        super().__init__(f"{what}: size {size} exceeds guard {limit}")
        self.what = what
        self.size = size
        self.limit = limit
