"""Truncated power series: integer results and one sparse logarithm.

TruncatedSeries1 and TruncatedSeries2 hold the integer coefficients of the
isotypic series (one and two variables), truncated per variable at a fixed
order (inclusive).  They are results, not a ring: they add, compare, print
and serialize, and any coefficient that is not an int is refused.

The log identities are checked on sparse series: dicts from exponent tuples
to ints, truncated by total degree, with sparse_scaled_log1p as the only
series arithmetic.  It returns |e| [log(1 + u)]_e, the coefficients of
E log(1 + u) for the total-degree operator E = sum_j x_j d/dx_j, which are
integers for an integer u.  Every value is an int, so equality is exact.
"""

from __future__ import annotations

from typing import Sequence

Sparse = dict[tuple[int, ...], int]


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

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

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

    def __hash__(self) -> int:
        return hash((self.s_order, self.t_order, self.grid))

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


# ---------------------------------------------------------------------------
# sparse series, truncated by total degree

def sparse_add_scaled(acc: Sparse, other: Sparse, factor: int) -> None:
    """acc += factor * other, in place, dropping coefficients that cancel to 0."""
    for exp, c in other.items():
        val = acc.get(exp, 0) + factor * c
        if val:
            acc[exp] = val
        elif exp in acc:
            del acc[exp]


def sparse_mul(a: Sparse, b: Sparse, cutoff: int) -> Sparse:
    """a * b, keeping the terms of total degree at most cutoff."""
    out: Sparse = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        for e2, c2 in b.items():
            if d1 + sum(e2) > cutoff:
                continue
            key = tuple(x + y for x, y in zip(e1, e2))
            val = out.get(key, 0) + c1 * c2
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def sparse_scaled_log1p(u: Sparse, cutoff: int) -> Sparse:
    """|e| [log(1 + u)]_e at every exponent e of total degree |e| <= cutoff, in ints.

    For u with no constant term, E log(1 + u) = (E u) / (1 + u), where E
    multiplies the term x^e by |e|; so the value is E u times the
    geometric series sum_k (-u)^k.  The k-th product has no term below
    total degree k + 1, so the sum stops after at most cutoff products.
    """
    if any(not any(exp) for exp in u):
        raise ValueError("sparse_scaled_log1p: argument must have zero constant term")
    neg = {exp: -c for exp, c in u.items() if c and sum(exp) <= cutoff}
    acc: Sparse = {}
    power = {exp: -sum(exp) * c for exp, c in neg.items()}  # E u
    while power:
        sparse_add_scaled(acc, power, 1)
        power = sparse_mul(power, neg, cutoff)
    return acc
