"""Multivariate integer polynomials and packed sums of roots of unity.

IntPolynomial stores terms as {exponent tuple: int coefficient} with zero
coefficients dropped, which is the shape the permanent and determinant
kernels want.  It is a result, not a ring: it adds, compares, permutes its
variables, prints and serializes, and has no product.  The constructor
checks every exponent vector and copies the terms; IntPolynomial._of adopts
a dict the package built itself, already in that shape (tuple keys of nvars
non-negative ints, no zero coefficient), without a copy or a rescan, for
the kernels' results and the maps that keep the shape.  zeta_packing and unpack_zeta_integers pack sums of roots of
unity into single ints (zeta_e -> 2^B, reduced mod Phi_e(2^B)) and read back
the rational integers they stand for; the factored determinant and the
character-sum oracle both rely on that integrality test.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .numtheory import divisors, euler_phi, moebius

if TYPE_CHECKING:
    from .groups import Element, FiniteAbelianGroup


def _gather(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A getter of a tuple's items at indices, as a tuple, one index included (itemgetter's gives the bare item)."""
    return itemgetter(*indices) if len(indices) > 1 else itemgetter(slice(indices[0], indices[0] + 1))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the e-th cyclotomic polynomial.

    The Moebius product of (1 - x^d)^mu(e/d) over the divisors d of e,
    negated at e = 1, expanded as a power series truncated at degree
    phi(e): a factor 1 - x^d subtracts the series shifted by d, and its
    inverse adds back a running sum at stride d.  Exact integer arithmetic.
    """
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    deg = euler_phi(e)
    coeffs = [1] + [0] * deg
    for d in divisors(e):
        mu = moebius(e // d)
        if mu == 1:
            for k in range(deg, d - 1, -1):
                coeffs[k] -= coeffs[k - d]
        elif mu == -1:
            for k in range(d, deg + 1):
                coeffs[k] += coeffs[k - d]
    return tuple(-c for c in coeffs) if e == 1 else tuple(coeffs)


@lru_cache(maxsize=None)
def _reduction_table(e: int) -> tuple[tuple[int, ...], ...]:
    """Row k < e: coefficients of x^k reduced mod the e-th cyclotomic polynomial."""
    phi_poly = cyclotomic_polynomial(e)
    deg = len(phi_poly) - 1
    cur = [1] + [0] * (deg - 1)
    rows = [tuple(cur)]
    for _ in range(e - 1):
        lead = cur[deg - 1]
        # x^deg = -(phi_poly minus leading term)
        cur = [(cur[j - 1] if j else 0) - lead * phi_poly[j] for j in range(deg)]
        rows.append(tuple(cur))
    return tuple(rows)


def zeta_packing(e: int, terms: int) -> tuple[int, int]:
    """Kronecker substitution zeta_e -> 2^B for sums of at most `terms` e-th roots of unity.

    Returns (B, M = Phi_e(2^B)).  A sum f = sum_t c_t zeta^t (c_t >= 0,
    sum c_t <= terms) is stored as the int f(2^B); multiplying by zeta^t is a
    shift by t*B, and the int may be reduced mod M at any stage.  Mod Phi_e,
    f is congruent to its power-basis coordinates g (degree below d = phi(e)),
    |g_j| <= K = terms * R with R the largest entry of rows 0..e-1 of the
    reduction table.  With 2^(B-2) > max(K, e),
    |g(2^B)| <= K (2^(dB) - 1) / (2^B - 1) < (2^B - 1)^d / 2 <= M / 2 (by
    Bernoulli, (1 - 2^-B)^(d+1) >= 1/2), so the balanced residue is g(2^B).
    It is below 2^(B-2) in absolute value if g = g_0; else the top j >= 1
    with g_j != 0 makes it exceed 2^(jB) - 2^(jB-1) >= 2^(B-1).  So f is a
    rational integer exactly when |residue| < 2^(B-1), and then equals it.
    """
    big = max(abs(c) for row in _reduction_table(e) for c in row)
    bits = max(terms * big, e).bit_length() + 2
    return bits, sum(c << j * bits for j, c in enumerate(cyclotomic_polynomial(e)))


def unpack_zeta_integers(values: Iterable[int], bits: int, modulus: int) -> list[int]:
    """The rational integers that ints packed by zeta_packing stand for; ValueError if one is not."""
    half, limit = modulus >> 1, 1 << (bits - 1)
    out = []
    for v in values:
        r = v % modulus
        if r > half:
            r -= modulus
        if not -limit < r < limit:
            raise ValueError("packed sum of roots of unity is not a rational integer")
        out.append(r)
    return out


class IntPolynomial:
    """Polynomial in nvars variables x0..x{nvars-1} over Z, sparse by exponent vector."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] = {}):
        if nvars < 1:
            raise ValueError("need at least one variable")
        # bulk checks of every key, zero-coefficient ones too; the first bad key is sought only on failure
        if terms and (set(map(len, terms)) != {nvars} or min(chain.from_iterable(terms)) < 0):
            bad = next(exp for exp in terms if len(exp) != nvars or min(exp) < 0)
            raise ValueError(f"bad exponent vector {bad!r} for {nvars} variables")
        self.nvars = nvars
        self.terms = {tuple(exp): int(c) for exp, c in terms.items() if c}

    @classmethod
    def _of(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "IntPolynomial":
        """Adopt terms as they are, unchecked and uncopied.

        For dicts the package built itself: every key a tuple of nvars
        non-negative ints, every value a nonzero int, and no other reference
        that mutates it.  Every other caller goes through the constructor.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    def _check(self, other: "IntPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return IntPolynomial(self.nvars, out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, exp: Sequence[int]) -> int:
        return self.terms.get(tuple(exp), 0)

    def term_count(self) -> int:
        return len(self.terms)

    def coefficient_sum(self) -> int:
        """Value at x0 = x1 = ... = 1."""
        return sum(self.terms.values())

    def permute_variables(self, perm: Sequence[int]) -> "IntPolynomial":
        """Substitute x_i -> x_{perm[i]}."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation of the variables")
        gather = _gather(sorted(range(self.nvars), key=perm.__getitem__))  # new[perm[i]] = exp[i]
        return IntPolynomial._of(self.nvars, {gather(exp): c for exp, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        # descending lex reads like a conventional leading-term-first layout
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = [name if k == 1 else f"{name}^{k}" for name, k in zip(names, exp) if k]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            parts.append(("+ " if c > 0 else "- ") + "*".join(factors))
        head = parts[0]  # the leading term carries its sign without a space
        parts[0] = head[2:] if head[0] == "+" else "-" + head[2:]
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.nvars}, {self})"

    def to_json_obj(self) -> list[dict]:
        """Ascending-lex list of {exponents, coeff}; coeff as decimal string."""
        return [{"exponents": list(e), "coeff": str(c)} for e, c in self.sorted_terms()]


def apply_group_action(group: "FiniteAbelianGroup", gamma: "Element", poly: IntPolynomial) -> IntPolynomial:
    """Translate variables by gamma: x_i -> x_{index(element_i + gamma)}."""
    if poly.nvars != group.order:
        raise ValueError("polynomial variable count does not match group order")
    return poly.permute_variables(group.add_table[group.index(gamma)])
