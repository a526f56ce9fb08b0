"""Truncated power series: the containers of integer results.

TruncatedSeries1 and TruncatedSeries2 hold the integer coefficients of the
isotypic series (one and two variables), truncated per variable at a fixed
order (inclusive).  They are results, not a ring: they add, compare, print
and serialize, and any coefficient that is not an int is refused.  The
constructors check and pad what they are given; _of adopts rows the package
built itself, already order + 1 ints each, without a rescan.  The log
identities build their tables of E log(1 + u) in molien, from a recurrence.
"""

from __future__ import annotations

from typing import Sequence


def _int_row(coeffs: Sequence[int], size: int) -> tuple[int, ...]:
    """The coefficients padded with zeros to `size`; TypeError on a non-int."""
    for c in coeffs:
        if not isinstance(c, int):
            raise TypeError(f"expected int coefficient, got {type(c).__name__}")
    return tuple(coeffs) + (0,) * (size - len(coeffs))


class TruncatedSeries1:
    """Univariate series sum_{k<=order} c_k t^k with int coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[int] = ()):
        if order < 0:
            raise ValueError(f"series order must be >= 0, got {order}")
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        self.order = order
        self.coeffs = _int_row(coeffs, order + 1)

    @classmethod
    def _of(cls, order: int, coeffs: Sequence[int]) -> "TruncatedSeries1":
        """Adopt exactly order + 1 int coefficients, unchecked: for rows the package built itself."""
        series = object.__new__(cls)
        series.order = order
        series.coeffs = tuple(coeffs)
        return series

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries1":
        return cls(order, [1])

    def coefficient(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient index {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def __add__(self, other: "TruncatedSeries1") -> "TruncatedSeries1":
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")
        return TruncatedSeries1(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries1):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            t = "t" if k == 1 else f"t^{k}"
            parts.append(t if c == 1 else f"{c}*{t}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"TruncatedSeries1(order={self.order}, {self})"

    def to_json_obj(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


class TruncatedSeries2:
    """Bivariate series sum c_{p,m} s^p t^m with int coefficients, truncated per variable.

    grid[p][m] is the coefficient of s^p t^m.
    """

    __slots__ = ("s_order", "t_order", "grid")

    def __init__(self, s_order: int, t_order: int, grid: Sequence[Sequence[int]] = ()):
        if s_order < 0 or t_order < 0:
            raise ValueError("series orders must be >= 0")
        if len(grid) > s_order + 1:
            raise ValueError("grid has more rows than s truncation order")
        if any(len(row) > t_order + 1 for row in grid):
            raise ValueError("grid row longer than t truncation order")
        self.s_order = s_order
        self.t_order = t_order
        rows = [_int_row(row, t_order + 1) for row in grid]
        self.grid = tuple(rows) + ((0,) * (t_order + 1),) * (s_order + 1 - len(rows))

    @classmethod
    def _of(cls, s_order: int, t_order: int, rows: Sequence[Sequence[int]]) -> "TruncatedSeries2":
        """Adopt exactly s_order + 1 rows of t_order + 1 ints, unchecked: for grids the package built itself."""
        series = object.__new__(cls)
        series.s_order = s_order
        series.t_order = t_order
        series.grid = tuple(map(tuple, rows))
        return series

    @classmethod
    def one(cls, s_order: int, t_order: int) -> "TruncatedSeries2":
        return cls(s_order, t_order, [[1]])

    def coefficient(self, p: int, m: int) -> int:
        if not (0 <= p <= self.s_order and 0 <= m <= self.t_order):
            raise ValueError(f"coefficient ({p},{m}) outside truncation ({self.s_order},{self.t_order})")
        return self.grid[p][m]

    def __add__(self, other: "TruncatedSeries2") -> "TruncatedSeries2":
        if (self.s_order, self.t_order) != (other.s_order, other.t_order):
            raise ValueError("series order mismatch")
        grid = [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.grid, other.grid)
        ]
        return TruncatedSeries2(self.s_order, self.t_order, grid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        return (self.s_order, self.t_order, self.grid) == (other.s_order, other.t_order, other.grid)

    def __str__(self) -> str:
        parts = []
        for p, row in enumerate(self.grid):
            for m, c in enumerate(row):
                if not c:
                    continue
                factors = []
                if c != 1 or (p == 0 and m == 0):
                    factors.append(str(c))
                if p:
                    factors.append("s" if p == 1 else f"s^{p}")
                if m:
                    factors.append("t" if m == 1 else f"t^{m}")
                parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        return {
            "s_order": self.s_order,
            "t_order": self.t_order,
            "coeffs": [[str(c) for c in row] for row in self.grid],
        }

