"""Finite abelian groups presented as direct sums of cyclic factors.

A group is a tuple of factor sizes (n_1, ..., n_r); elements are residue
tuples (a_1, ..., a_r) with 0 <= a_j < n_j, enumerated lexicographically so
that index 0 is the neutral element.  Characters are indexed by the same
residue tuples: chi_k(a) = zeta_e^t with e the group exponent and

    t = sum_j k_j * a_j * (e / n_j)  (mod e).

Internally elements are their indices: add_table and neg_table hold the
group law on 0..n-1, and tuples appear only at parsing, character sums and
output.  element_sum_counts counts the sets and multisets of elements by
size and sum on add_table alone, the counting oracle behind the zero-sum and
isotypic-dimension closed forms.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import guard

Element = tuple[int, ...]
OrderProfile = dict[int, int]

SUM_COUNT_GUARD = 10**7  # element_sum_counts work, |G| * (|G| + 16) * (degree + 16)

_GROUP_RE = re.compile(r"c(\d+)(?:xc(\d+))*", re.IGNORECASE)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of cyclic groups C_{n_1} + ... + C_{n_r}.

    The factor list is kept exactly as given (no canonicalization), so C6 and
    C2xC3 are distinct presentations of isomorphic groups.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("group needs at least one cyclic factor")
        for n in self.factors:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"cyclic factor sizes must be positive ints, got {n!r}")

    @cached_property
    def order(self) -> int:
        return math.prod(self.factors)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_cyclic_presentation(self) -> bool:
        """True when presented as a single factor C_n (element index i <-> residue i)."""
        return len(self.factors) == 1

    @property
    def spec_string(self) -> str:
        return "x".join(f"C{n}" for n in self.factors)

    def __str__(self) -> str:
        return self.spec_string

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        out = []
        s = 1
        for n in reversed(self.factors):
            out.append(s)
            s *= n
        return tuple(reversed(out))

    @cached_property
    def _elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(n) for n in self.factors)))

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic order; index 0 is the neutral element."""
        return self._elements

    def element(self, idx: int) -> Element:
        return self._elements[idx]

    @cached_property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        """add_table[a][b]: index of g_a + g_b (the plain Cayley table).

        Built one factor at a time: appending C_n as the least significant
        digit sends the table T to T[a][b] * n + (x + y) mod n.
        """
        rows: list[tuple[int, ...]] = [(0,)]
        for n in self.factors:
            shifts = [tuple(range(x, n)) + tuple(range(x)) for x in range(n)]  # (x + y) mod n
            rows = [tuple([t * n + c for t in row for c in shift]) for row in rows for shift in shifts]
        return tuple(rows)

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        """neg_table[a]: index of -g_a, from the residues (add_table is not built)."""
        cells = tuple(zip(self.factors, self._strides))
        return tuple(sum(-x % n * s for x, (n, s) in zip(a, cells)) for a in self._elements)

    def index(self, a: Element) -> int:
        self._validate(a)
        return sum(ai * si for ai, si in zip(a, self._strides))

    def _validate(self, a: Element) -> None:
        if len(a) != len(self.factors):
            raise ValueError(f"element {a!r} does not belong to {self} (rank mismatch)")
        for ai, n in zip(a, self.factors):
            if not 0 <= ai < n:
                raise ValueError(f"element {a!r} has residue {ai} out of range for {self}")

    def add(self, a: Element, b: Element) -> Element:
        self._validate(a)
        self._validate(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a: Element) -> Element:
        self._validate(a)
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def scale(self, a: Element, k: int) -> Element:
        """k-fold sum of a (k may be any integer)."""
        self._validate(a)
        return tuple((k * x) % n for x, n in zip(a, self.factors))

    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def element_order(self, a: Element) -> int:
        """Least k >= 1 with k*a = 0."""
        self._validate(a)
        return math.lcm(*(n // math.gcd(ai, n) for ai, n in zip(a, self.factors)))

    def order_profile(self) -> OrderProfile:
        """Map d -> number of elements of order d, keys ascending; no element is listed.

        The elements of order dividing k number prod_j gcd(k, n_j), so the
        profile is the trivial character's order sums,
        molien.character_order_sums(self, 0), which invert those counts over
        the divisors of the exponent e.  None is 0: an element of order e
        has a multiple of every order d | e.
        """
        from .molien import character_order_sums  # molien imports this module

        return character_order_sums(self, 0)

    def char_exponent(self, chi: Element, a: Element) -> int:
        """Exponent t with chi(a) = zeta_e^t, e the group exponent.

        Characters are indexed like the elements: the dual group uses the same enumeration."""
        self._validate(chi)
        self._validate(a)
        e = self.exponent
        return sum(k * x * (e // n) for k, x, n in zip(chi, a, self.factors)) % e

    def inversion_sign(self) -> int:
        """Sign of the permutation sending each element index to the index of its negative."""
        return _permutation_sign(self.neg_table)


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given in one-line form, via cycle decomposition."""
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("not a permutation")
    return _permutation_sign(perm)


def _permutation_sign(perm: Sequence[int]) -> int:
    """permutation_sign without input validation, for loops over permutations."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def parse_group(spec: str) -> FiniteAbelianGroup:
    """Parse "C4", "c2xC3", "C2 x C2" (case-insensitive, whitespace ignored)."""
    cleaned = re.sub(r"\s+", "", spec)
    if not cleaned or not _GROUP_RE.fullmatch(cleaned):
        raise ValueError(f"malformed group spec {spec!r}; expected e.g. C6 or C2xC3")
    factors = tuple(int(part[1:]) for part in cleaned.lower().split("x"))
    if any(n == 0 for n in factors):
        raise ValueError(f"group spec {spec!r} contains a zero factor")
    return FiniteAbelianGroup(factors)


def _partitions(k: int, largest: int | None = None) -> Iterable[tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    top = k if largest is None else min(k, largest)
    for first in range(top, 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """All isomorphism classes of abelian groups of order n, primary form.

    Factors are prime-power cyclic pieces sorted ascending, e.g. order 12 ->
    [C3xC4, C2xC2xC3].
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return [FiniteAbelianGroup((1,))]
    from .numtheory import prime_factorization

    per_prime: list[list[tuple[int, ...]]] = []
    for p, k in prime_factorization(n):
        per_prime.append([tuple(p**e for e in part) for part in _partitions(k)])
    out = []
    for combo in itertools.product(*per_prime):
        factors = tuple(sorted(f for part in combo for f in part))
        out.append(FiniteAbelianGroup(factors))
    out.sort(key=lambda g: g.factors)
    return out


def abelian_groups_up_to(max_order: int) -> list[FiniteAbelianGroup]:
    return list(iter_abelian_groups_up_to(max_order))


def iter_abelian_groups_up_to(max_order: int) -> Iterator[FiniteAbelianGroup]:
    """abelian_groups_up_to, made one order at a time as it is read, so a sweep can stop at
    its first refused group; max_order is checked at the call."""
    if max_order < 1:
        raise ValueError(f"need max_order >= 1, got {max_order}")
    return (group for n in range(1, max_order + 1) for group in abelian_groups_of_order(n))


def element_sum_counts(group: FiniteAbelianGroup, degree: int, repeat: bool) -> list[list[int]]:
    """[d][s]: number of multisets (repeat) or sets of d elements summing to element s, d <= degree.

    Built one element g at a time on add_table: counts[d-1][s] moves into
    counts[d][s + g], with d running upward for multisets (g may be taken
    again) and downward for sets.  The guard, checked before add_table is
    read, counts cell additions: |G| + 16 for each of the |G| * degree row
    passes, and 16 passes' worth per element for building add_table.
    """
    n = group.order
    guard("element-sum counting", n * (n + 16) * (degree + 16), SUM_COUNT_GUARD)
    counts = [[0] * n for _ in range(degree + 1)]
    counts[0][0] = 1
    ds = range(1, degree + 1) if repeat else range(degree, 0, -1)
    for shift in group.add_table:
        for d in ds:
            dst = counts[d]
            for t, c in zip(shift, counts[d - 1]):
                if c:
                    dst[t] += c
    return counts


def subset_sum_zero_count(group: FiniteAbelianGroup) -> int:
    """Number of subsets of the group (empty set included) summing to zero."""
    return sum(row[0] for row in element_sum_counts(group, group.order, False))


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_order_profile(data: Mapping[str, int] | Mapping[int, int]) -> OrderProfile:
    """Validate a JSON-style order profile {"1": 1, "2": 3, ...} -> {1: 1, 2: 3}.

    A profile is a mapping from element order to an int count; it needs
    exactly one element of order 1, and every order must divide the total.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"order profile must be a JSON object, got {type(data).__name__}")
    prof: OrderProfile = {}
    for key, val in data.items():
        d = int(key) if isinstance(key, str) else key
        if not _is_int(d) or d < 1:
            raise ValueError(f"order profile key {key!r} is not a positive order")
        if not _is_int(val) or val < 0:
            raise ValueError(f"order profile count for {key!r} must be a non-negative int, got {val!r}")
        if val:
            prof[d] = val
    if prof.get(1) != 1:
        raise ValueError("order profile needs exactly one element of order 1")
    total = sum(prof.values())
    for d in prof:
        if total % d:
            raise ValueError(f"order profile entry {d} does not divide the total order {total}")
    return dict(sorted(prof.items()))
