"""Shared exception types, and the one rule that decides every resource guard.

Every limit is decided by guard(what, size, limit): a size above its limit
raises GuardExceeded, and any other size is returned.  GuardExceeded is
constructed nowhere else.
"""

from __future__ import annotations


class GuardExceeded(RuntimeError):
    """A computation was refused because its size exceeds a hard resource guard.

    Guards protect against accidental combinatorial blowups (factorial
    permanent expansions, exponential subset DPs and the like).  The CLI maps
    this to exit code 3.
    """

    def __init__(self, what: str, size: object, limit: object):
        super().__init__(f"{what}: size {_render(size)} exceeds guard {_render(limit)}")
        self.what = what
        self.size = size
        self.limit = limit


def guard(what: str, size: int, limit: int) -> int:
    """size, if it is at most limit; else raise GuardExceeded(what, size, limit)."""
    if size > limit:
        raise GuardExceeded(what, size, limit)
    return size


def _render(value: object) -> str:
    """str(value), but a positive int of more than 256 bits as the power of two
    it reaches: str() refuses an int of more than 4300 digits, and a shorter
    one of hundreds of digits tells a reader no more."""
    if isinstance(value, int) and value > 0 and value.bit_length() > 256:
        return f"2^{value.bit_length() - 1} or more"
    return str(value)
