"""Symbolic Cayley tables and their permanents and determinants.

Entries are variables x_k indexed by group element; every table is the
addition table read through a list of row elements and a list of column
elements, entry x_(rows[i] + cols[j]).  The variants are

    plain     n x n,  rows and columns g_0..g_{n-1}     (symmetric)
    hat       n x n,  columns -g_0..-g_{n-1}            (neutral diagonal)
    extended  (n+1)^2 over the list g_0..g_{n-1}, g_0 (neutral repeated)
    block2n   (2n)^2  over the doubled list g_0..g_{n-1}, g_0..g_{n-1}
    toeplitz  l x l   rows -i mod n, columns j mod n, so entry x_((j-i) mod n);
                      single-factor cyclic groups only

Permanents and determinants are computed by one dynamic program over column
subsets.  A square table whose two lists each list the group once is the
plain table with its rows and columns permuted, so it has the plain
table's permanent and its determinant up to the signs of the two lists.
On the plain table translation permutes the columns and shifts the
variables, the permanent is invariant and the determinant semi-invariant,
so the program keeps one state per orbit of column sets under all |G|
translations (C12 and C2xC6 in seconds); other tables keep one per class
count.  All it reads of that action is one record (_Symmetry: relabeled
grid, per-element key operations and weights, orbit table, characters),
cached per group and signedness.
A Leibniz expansion that counts each of the l! permutations on its own (met
in the middle one column split at a time: every ordering of one half of the
columns on the first rows against every ordering of the other half on the
last rows, up to size 10) is the independent oracle.
The permanent's monomial support is governed by the zero-sum condition
(degree-n exponent vectors k with sum k_j * g_j = 0), listed by joining
two half tables of count vectors keyed by total and element sum; the determinant
factors into character linear forms, whose product (the determinant's
checker route) keeps one monomial per translation orbit, as each form is an
eigenvector of the translation.  Every guard is decided from the group, the
variant and the size before a grid is built (refuse_before_table).
Checkers for these facts live here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import GuardExceeded
from .groups import Element, FiniteAbelianGroup, _permutation_sign, abelian_groups_up_to
from .molien import _power_binomial_coeffs, sym_dim, sym_series
from .numtheory import prime_factorization
from .polynom import IntPolynomial, apply_group_action, unpack_zeta_integers, zeta_packing
from .report import CheckReport

VARIANTS = ("plain", "hat", "extended", "block2n", "toeplitz")

LEIBNIZ_GUARD = math.factorial(10)  # permutations the Leibniz oracle may expand
DP_GUARD = 5 * 10**7
# below this many unreduced (state, monomial) pairs the orbit set-up costs more than it
# saves, even with the orbit table built once per shape: order 5 (1002 pairs) runs 1.05-1.15
# times as fast unreduced when warm and 1.5 times on a first call; order 6 (5336 pairs) runs
# up to 1.6 times as fast reduced when warm, and within 1.3 times either way on a first call
ORBIT_MIN_PAIRS = 2000
FACTORED_GUARD = 10**6
ENUM_GUARD = 2 * 10**7  # hall_support work units (see there)
# sampled action check: n^2 addition-table cells plus n^2 star steps per sample, about 1-2 us
# each on 2 vCPUs, so an admitted run takes about 1 s (C500 with one sample: 1.1 s)
ACTION_GUARD = 5 * 10**5
LEHMER_PRIMES = (3, 5, 7)
# (op, variant) of the tables each group-parameterized checker takes a permanent or determinant of
INVARIANCE_TABLES = (("per", "plain"), ("det", "plain"))
EXTENDED_TABLES = (("per", "extended"), ("per", "block2n"))


@dataclass(frozen=True)
class CayleyMatrix:
    """A table of variable indices over a fixed group: entry (i, j) is the index of rows[i] + cols[j].

    Every variant is the addition table read through its lists of row and
    column elements; the grid is built from them when first read.
    """

    group: FiniteAbelianGroup
    variant: str
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @functools.cached_property
    def grid(self) -> tuple[tuple[int, ...], ...]:
        add = self.group.add_table
        return tuple(tuple(map(add[a].__getitem__, self.cols)) for a in self.rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def nvars(self) -> int:
        return self.group.order

    def format_table(self) -> str:
        return "\n".join(" ".join(f"x{k}" for k in row) for row in self.grid)

    def to_json_obj(self) -> dict:
        return {
            "group": self.group.spec_string,
            "variant": self.variant,
            "size": self.size,
            "grid": [list(row) for row in self.grid],
        }


def table_size(group: FiniteAbelianGroup, variant: str, size: int | None = None) -> int:
    """Side of the table build_table makes, checked as build_table checks it; builds nothing.

    size applies to toeplitz only (l >= n, default n); the other variants
    are n, n+1 (extended) and 2n (block2n) wide.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n = group.order
    if variant == "toeplitz":
        if not group.is_cyclic_presentation:
            raise ValueError(
                f"toeplitz tables need a single-factor cyclic presentation, got {group}"
                " (present the group as Cn)"
            )
        if size is None:
            return n
        if size < n:
            raise ValueError(f"toeplitz size must be at least the group order {n}, got {size}")
        return size
    if size is not None:
        raise ValueError("size is only meaningful for the toeplitz variant")
    return {"extended": n + 1, "block2n": 2 * n}.get(variant, n)


def build_table(
    group: FiniteAbelianGroup,
    variant: str,
    size: int | None = None,
    element_order: Sequence[int] | None = None,
) -> CayleyMatrix:
    """Build one of the table variants from its row and column elements (_element_lists).

    size applies to toeplitz only (l >= n, default n).  element_order permutes
    the element listing of the other variants (relabeling-invariance tests);
    entries always use canonical variable indices, so permanents are reorder
    invariant and determinants pick up the square of the row/column sign.
    """
    l = table_size(group, variant, size)
    return CayleyMatrix(group, variant, *_element_lists(group, variant, l, element_order))


def _element_lists(group: FiniteAbelianGroup, variant: str, l: int,
                   element_order: Sequence[int] | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rows, cols) of the variant's table of size l, as build_table checks and takes them.

    The plain table lists the elements in index order on both sides, the hat
    table negates its column elements, the extended table appends the
    neutral element to both lists and block2n repeats both; the toeplitz
    table has rows -i mod n and columns j mod n.
    """
    n = group.order
    if variant == "toeplitz":
        if element_order is not None:
            raise ValueError("toeplitz tables have a fixed index layout")
        return tuple(-i % n for i in range(l)), tuple(j % n for j in range(l))
    listing = list(range(n))
    if element_order is not None:
        if sorted(element_order) != listing:
            raise ValueError("element_order must be a permutation of the element indices")
        listing = list(element_order)
    if variant == "extended":
        listing.append(0)
    elif variant == "block2n":
        listing += listing
    # entry a + b; the hat table's a - b is a plus the column's negative
    cols = [group.neg_table[b] for b in listing] if variant == "hat" else listing
    return tuple(listing), tuple(cols)


def _lex_parities(s: int) -> list[int]:
    """Parity of each permutation of s sorted items, in itertools.permutations order.

    That order is the lex order of Lehmer codes (digit i in 0..s-1-i, the
    count of later entries below entry i), and the inversion count is the
    digit sum.
    """
    return [sum(code) & 1 for code in itertools.product(*(range(s - i) for i in range(s)))]


def _cross_parity(head: Sequence[int]) -> int:
    """Parity of the pairs (a, b) with a > b, a in head and b among the other columns.

    The other columns below a number a minus the head columns below a, so
    for the k columns of head the count is sum(head) - C(k, 2).
    """
    k = len(head)
    return (sum(head) - k * (k - 1) // 2) & 1


def _leibniz_guard(l: int) -> None:
    perms = math.factorial(l)
    if perms > LEIBNIZ_GUARD:
        raise GuardExceeded("Leibniz permutations", perms, LEIBNIZ_GUARD)


def _accumulate_leibniz(matrix: CayleyMatrix, signed: bool) -> IntPolynomial:
    """Sum over all l! permutations of the (signed) product of their entries.

    Meet in the middle, one column split at a time: for each s-subset B of
    the columns (s = ceil(l/2)) and its complement A, the packed keys
    (exponent vectors base l+1, so x_e is (l+1)^e) of every ordering of A on
    the first k = l - s rows and of every ordering of B on the last s rows
    are listed once, split by lex parity for the determinant, and every
    (prefix, suffix) sum is counted by one Counter.update per split and
    sign, one count per permutation.  The sign is (-1)^(parity(prefix
    order) + parity(suffix order) + _cross_parity(A)).  Partial products are
    never merged, so the subset DP is checked against the full expansion.
    The guard counts the l! permutations.
    """
    l = matrix.size
    _leibniz_guard(l)
    nvars = matrix.nvars
    base = l + 1
    weights = [[base**e for e in row] for row in matrix.grid]
    s = (l + 1) // 2
    k = l - s
    head, tail = weights[:k], weights[k:]
    getitem, repeat = operator.getitem, itertools.repeat

    def keys(rows: list[list[int]], cols: Sequence[int]) -> list[int]:
        # the packed key of each ordering of cols on these rows, in itertools.permutations order
        return list(map(sum, map(map, repeat(getitem), repeat(rows), itertools.permutations(cols))))

    def sums(firsts: list[int], lasts: list[int]) -> Iterable[int]:
        return itertools.starmap(operator.add, itertools.product(firsts, lasts))

    odd_k, odd_s = _lex_parities(k), _lex_parities(s)
    even_k, even_s = [1 - p for p in odd_k], [1 - p for p in odd_s]
    compress, chain = itertools.compress, itertools.chain
    plus: Counter[int] = Counter()
    minus: Counter[int] = Counter()
    for cols in itertools.combinations(range(l), s):
        rest = [c for c in range(l) if c not in cols]
        firsts, lasts = keys(head, rest), keys(tail, cols)
        if not signed:
            plus.update(sums(firsts, lasts))
            continue
        evens, odds = list(compress(firsts, even_k)), list(compress(firsts, odd_k))
        if _cross_parity(rest):
            evens, odds = odds, evens
        even_lasts, odd_lasts = list(compress(lasts, even_s)), list(compress(lasts, odd_s))
        plus.update(chain(sums(evens, even_lasts), sums(odds, odd_lasts)))
        minus.update(chain(sums(evens, odd_lasts), sums(odds, even_lasts)))
    plus.subtract(minus)
    powers = [base**i for i in range(nvars)]
    terms = {tuple([packed // p % base for p in powers]): coeff for packed, coeff in plus.items()}
    return IntPolynomial(nvars, terms)


def _basis(group: FiniteAbelianGroup) -> list[tuple[int, int]]:
    """(element, order) of a basis of the group, an element of maximal order first.

    Each cyclic factor C_m splits into its primary parts, generated by the
    CRT idempotents of m (residues 1 mod p^v and 0 mod m/p^v, summing to 1).
    The first basis element adds up, prime by prime, a largest part (of the
    largest factor, the last such), so its order is the exponent; the other
    parts follow in factor order.  Every element is sum c_i b_i with
    0 <= c_i < order_i in exactly one way, so the parts after the first
    span a complement of the first.
    """
    parts: dict[int, list[tuple[int, int, int]]] = {}  # p -> (p^v, factor, residue)
    for j, m in enumerate(group.factors):
        for p, v in prime_factorization(m) if m > 1 else ():
            q = p**v
            parts.setdefault(p, []).append((q, j, m // q * pow(m // q, -1, q) % m))
    top = [0] * group.rank
    rest = []
    for ps in parts.values():
        k = max(range(len(ps)), key=lambda i: (ps[i][0], group.factors[ps[i][1]], i))
        _, j, c = ps[k]
        top[j] = (top[j] + c) % group.factors[j]
        rest += ps[:k] + ps[k + 1:]
    basis = [(group.index(tuple(top)), group.exponent)]
    for q, j, c in sorted(rest, key=lambda part: part[1]):
        basis.append((group.index(tuple(c if i == j else 0 for i in range(group.rank))), q))
    return basis


def _relabeling(group: FiniteAbelianGroup) -> tuple[list[int], int, tuple[tuple[int, int], ...]]:
    """(phi, g, axes): labels on which adding the i-th basis element adds 1 to digit i.

    phi(sum c_i b_i) = sum c_i t_i over the basis of _basis, with t_i the
    product of the later orders; axes holds (t_i, order_i).  The first
    element g has maximal order e and stride s = n/e, so adding g adds s to
    every label mod n; a cyclic presentation has g = 1 and phi = id.
    """
    n = group.order
    basis = _basis(group)
    axes = []
    t = n
    for _, m in basis:
        t //= m
        axes.append((t, m))
    add = group.add_table
    points = [(0, 0)]  # (element, label)
    for (b, m), (t, _) in zip(basis, axes):
        nxt = []
        for x, label in points:
            for c in range(m):
                nxt.append((x, label + c * t))
                x = add[x][b]
        points = nxt
    phi = [0] * n
    for x, label in points:
        phi[x] = label
    return phi, basis[0][0], tuple(axes)


def _shifted(axes: Sequence[tuple[int, int]], deltas: Sequence[int]) -> list[int]:
    """The label permutation that adds deltas[i] to digit i (mod its modulus), for every i."""
    return [sum((x // t + d) % m * t for d, (t, m) in zip(deltas, axes))
            for x in range(math.prod(m for _, m in axes))]


def _digit_shift(axes: Sequence[tuple[int, int]], i: int, d: int, width: int) -> tuple[int, int, int, int]:
    """(low, up, high, down) with f(y) = (y & low) << up | (y & high) >> down adding d to digit i.

    y holds one width-bit field per label; the fields whose digit i is
    below m - d move up by d * t_i labels and the others down by (m - d) * t_i.
    """
    t, m = axes[i]
    field = (1 << width) - 1
    low = high = 0
    for x in range(math.prod(m for _, m in axes)):
        if x // t % m < m - d:
            low |= field << width * x
        else:
            high |= field << width * x
    return low, d * t * width, high, (m - d) * t * width


def _shift_digits(keys: Iterable[int], masks: Sequence[tuple[int, int, int, int]]) -> Iterable[int]:
    """keys with each digit shift (low, up, high, down) of masks applied in turn (see _digit_shift)."""
    for low, up, high, down in masks:
        keys = [(key & low) << up | (key & high) >> down for key in keys]
    return keys


class _Symmetry(NamedTuple):
    """What the subset DP reads about the translation action of the group on its plain table.

    Labels are mixed radix over the basis of _relabeling: axis i has stride
    t_i and modulus m_i, and adding its basis element adds 1 to digit i of a
    label, mod m_i.  The first axis is an element g of maximal order e, with
    stride s = n/e, so it adds s to the whole label mod n.  grid is the plain
    table with entry phi(g_i + g_j) in row i and column phi(j); phi adds
    digit by digit, so translating the columns by x moves every entry by x.

    Keys pack exponent vectors over the labels base B, and weights[x][v] is
    the packed x_v translated by the element with label x.  On a key that
    translation is ops[x] = (mult, masks): (y * mult) mod B^n - 1 (modulus)
    for y = _shift_digits(key, masks), along g (digit x // s) a multiplication
    by a power of B, along the other axes a digit shift on fields of w =
    n.bit_length() bits (B = 2^w, so a field holds any exponent up to n), two
    masks and two shifts per axis.  A cyclic group has the one empty shift
    and keeps B = n + 1: its keys then stay within one 30-bit int digit up to
    order 9, and B = 16 made C9 about 25% slower.  images(key) lists every
    translate of one key in label order, shifting once per complement digit.

    orbit[S], for each column mask S = T_x(R), is (R, label of -x, sign): T_x
    translates the columns by x and R is the smallest mask of the orbit of S
    under the whole group, so P_R = sign * sigma_(-x)(P_S).  On a signed
    record the sign of a translation on a k-set is (-1)^(pairs of the set it
    reverses), taken one axis step at a time (it composes as a cocycle):
    adding 1 to digit i moves the labels of each block (labels that agree on
    every more significant digit) whose digit i is m_i - 1 below the rest of
    the block, reversing |low part| * |top part| pairs per block; along g it
    is w(k-w), for the w columns that wrap.  chis[x] is the sign character of
    the column permutation by x, exponents[x] reads the exponent vector of
    sigma_x(K), in the group's variable order, off the digits of K, and sign
    is the sign of the column relabeling phi.  An unsigned record has every
    sign and character 1.
    """

    phi: list[int]
    grid: list[list[int]]
    axes: tuple[tuple[int, int], ...]  # (stride, modulus), the first (s, e)
    base: int
    modulus: int
    weights: list[list[int]]
    ops: list[tuple[int, tuple]]
    orbit: list[tuple[int, int, int]]
    chis: list[int]
    exponents: list[Callable[[Sequence[int]], tuple[int, ...]]]
    images: Callable[[int], list[int]]
    sign: int


@functools.lru_cache(maxsize=64)
def _symmetry(group: FiniteAbelianGroup, signed: bool) -> _Symmetry:
    """The _Symmetry of the plain table of a group of order 2 or more, one per signedness.

    Every square table whose row and column elements each list the group
    once is the plain table with its rows and columns permuted (see
    _plain_sign), so plain, hat, n x n toeplitz and reordered tables all
    run on this one record.
    """
    n = group.order
    phi, _, axes = _relabeling(group)
    grid = []
    for row in group.add_table:
        new = [0] * n
        for j, v in enumerate(row):
            new[phi[j]] = phi[v]
        grid.append(new)
    base = 1 << n.bit_length() if len(axes) > 1 else n + 1
    width = base.bit_length() - 1
    modulus = base**n - 1
    s, e = axes[0]
    perms = [_shifted(axes, [x // t % m for t, m in axes]) for x in range(n)]
    mults = [base ** (c * s) for c in range(e)]
    shifts = [tuple(_digit_shift(axes, i, r // t % m, width) for i, (t, m) in enumerate(axes) if r // t % m)
              for r in range(s)]  # label x = (x // s) * s + x % s

    def images(key: int) -> list[int]:
        # _shift_digits on one key at a time, inlined: one call per shift made the
        # orbit means, and so C2xC2xC2 per/det, about 5% slower
        ys = []
        for masks in shifts:
            y = key
            for low, up, high, down in masks:
                y = (y & low) << up | (y & high) >> down
            ys.append(y)
        return [y * mult % modulus for mult in mults for y in ys]

    # the orbit table: every orbit of masks walked from its smallest mask, one axis step at a time
    steps = []
    for i, (t, m) in enumerate(axes):
        blocks = [(((1 << (m - 1) * t) - 1) << b, ((1 << t) - 1) << b + (m - 1) * t)
                  for b in range(0, n, m * t)]
        steps.append((t, m, (_digit_shift(axes, i, 1, 1),), blocks))
    neg = [0] * n  # the label of -x, for each label x
    for a, b in enumerate(group.neg_table):
        neg[phi[a]] = phi[b]
    orbit: list = [None] * (1 << n)
    for rep in range(1 << n):
        if orbit[rep] is not None:
            continue
        translates = [(rep, 0, 1)]  # (T_x(rep), x, sign), x in label order
        for t, m, shift, blocks in steps:
            out = []
            for mask, x, sign in translates:
                out.append((mask, x, sign))
                for d in range(1, m):
                    if signed:
                        for bl, bt in blocks:
                            if (mask & bl).bit_count() & (mask & bt).bit_count() & 1:
                                sign = -sign
                    mask, = _shift_digits((mask,), shift)
                    out.append((mask, x + d * t, sign))
            translates = out
        for mask, x, sign in translates:
            if orbit[mask] is None:
                orbit[mask] = (rep, neg[x], sign)

    return _Symmetry(
        phi, grid, axes, base, modulus, [[base**p for p in perm] for perm in perms],
        [(mult, masks) for mult in mults for masks in shifts], orbit,
        [_permutation_sign(perm) for perm in perms] if signed else [1] * n,
        # the exponent of x_a in sigma_x(K) is the digit of K at label sigma_(-x)(phi(a))
        [operator.itemgetter(*[perms[neg[x]][p] for p in phi]) for x in range(n)],
        images, _permutation_sign(phi) if signed else 1,
    )


def _dp_pairs(l: int, sizes: Sequence[int], v: int, profile: dict[int, int] | None) -> int:
    """Upper bound on the (state, monomial) pairs the subset DP holds.

    Layer k has at most states_k states, each carrying at most the
    C(k+v-1, v-1) degree-k monomials in the table's v distinct variables.
    With the translation group of a square table (profile: element order o
    -> number N_o of elements of that order), states_k is the number of
    orbits of the k-subsets of the l columns under it.  An element of order
    o moves the columns in l/o cycles of length o, so by Burnside states_k =
    (1/|G|) sum_(o | k) N_o C(l/o, k/o).  Without one, it is the number of
    ways to take k columns from classes of identical columns of the given
    sizes, the x^k coefficient of prod (1 + x + ... + x^m): C(c, k) for the
    c classes of size 1, times a window sum for each larger class (C(l, k)
    when all columns differ).
    """
    if profile is not None:
        states = [0] * (l + 1)
        for o, count in profile.items():
            for j, c in enumerate(_power_binomial_coeffs(1, l // o, 1)):
                states[j * o] += count * c
        order = sum(profile.values())
        states = [x // order for x in states]
    else:
        states = _power_binomial_coeffs(1, sizes.count(1), 1)
        for m in sizes:
            if m > 1:  # states[k] becomes the sum of states[k-m..k]
                sums = list(itertools.accumulate([0] * m + states + [0] * m, initial=0))
                states = list(map(operator.sub, sums[m + 1:], sums))
    pairs, monomials = 0, 1  # monomials = C(k+v-1, v-1)
    for k, x in enumerate(states):
        pairs += x * monomials
        monomials = monomials * (k + v) // (k + 1)
    return pairs


def _cell_guard(l: int) -> None:
    """The subset DP's first guard, on the l^2 cells of its table, decided from l before any list is made."""
    if l * l > DP_GUARD:
        raise GuardExceeded("subset DP table cells", l * l, DP_GUARD)


def _plain_sign(matrix: CayleyMatrix) -> int:
    """sign(rows) * sign(cols) when the row and the column elements each list the group once, else 0.

    Such a table is the plain table with its rows and columns permuted, so it
    has the plain table's permanent, and its determinant times this sign.
    """
    listing = list(range(matrix.group.order))
    if sorted(matrix.rows) != listing or sorted(matrix.cols) != listing:
        return 0
    return _permutation_sign(matrix.rows) * _permutation_sign(matrix.cols)


def _dp_guard(matrix: CayleyMatrix, sizes: Sequence[int]) -> int:
    """The subset DP's guard on a table with these column-class sizes, after _cell_guard.

    Above ORBIT_MIN_PAIRS unreduced pairs, a table of order 2 or more that
    is the plain table permuted (_plain_sign) counts the orbit states of the
    plain table's record.  Returns that sign if the table is reduced, else 0.
    """
    group, l = matrix.group, matrix.size
    estimate = _dp_pairs(l, sizes, group.order, None)
    sign = 0
    # C1 has no record: its key modulus B^n - 1 would be 1
    if estimate > ORBIT_MIN_PAIRS and l > 1 and (sign := _plain_sign(matrix)):
        estimate = _dp_pairs(l, sizes, group.order, group.order_profile())
    if estimate > DP_GUARD:
        raise GuardExceeded("subset DP states", estimate, DP_GUARD)
    return sign


def refuse_before_table(
    group: FiniteAbelianGroup,
    op: str,
    variant: str = "plain",
    size: int | None = None,
    algorithm: str = "auto",
) -> None:
    """Raise GuardExceeded if the permanent (op "per") or determinant ("det") of
    build_table(group, variant, size) would be refused, without building its grid.

    Leibniz needs only the size, and the subset DP counts the table's cells
    from the size too.  Then the table's element lists are made and read as
    the kernels read them: repeated columns make the determinant 0, the
    factored route counts by the order, and the DP (_dp_guard) by its
    column classes.
    """
    l = table_size(group, variant, size)
    if algorithm == "leibniz":
        _leibniz_guard(l)
        return
    if algorithm == "auto":
        _cell_guard(l)
    matrix = CayleyMatrix(group, variant, *_element_lists(group, variant, l))
    classes = Counter(matrix.cols)
    if op == "det" and len(classes) < l:
        return
    if algorithm == "factored":
        if op == "det":
            _factored_guard(group.order)
    elif algorithm == "auto":
        _dp_guard(matrix, list(classes.values()))


def _next_layer(
    layer: dict[int, dict[int, int]],
    steps: Sequence[tuple[int, int, int, int]],
    signed: bool,
    weights: Sequence[Sequence[int]],
    orbit: Sequence[tuple[int, int, int]] | None,
    ops: Sequence[tuple[int, tuple]],
    modulus: int,
) -> dict[int, dict[int, int]]:
    """The subset DP's layer after one more row (see _subset_dp).

    steps holds (class, radix, span, variable label) per column class, and
    weights[x][v] is the packed x_v translated by x.  Without orbit each
    push adds weights[0][v]; with it each push is carried back to its
    representative by the translation and sign that orbit names.
    """
    nxt: dict[int, dict[int, int]] = {}
    unmoved = weights[0]
    for state, poly in layer.items():
        moved = {0: poly}  # poly translated by each element it is pushed with
        for c, r, span, v in steps:
            if state // r % span == span - 1:  # class used up
                continue
            # signed implies distinct columns: state is a bitmask, c a column
            negate = signed and (state >> (c + 1)).bit_count() & 1
            dest, src, w = state + r, poly, unmoved[v]
            if orbit is not None:
                dest, x, sign = orbit[dest]
                negate = negate ^ (sign < 0)
                src = moved.get(x)
                if src is None:
                    mult, masks = ops[x]
                    src = moved[x] = {key * mult % modulus: coeff
                                      for key, coeff in zip(_shift_digits(poly, masks), poly.values())}
                w = weights[x][v]  # digits never carry, so translation is additive
            target = nxt.get(dest)
            if target is None:
                if negate:
                    nxt[dest] = {key + w: -coeff for key, coeff in src.items()}
                else:
                    nxt[dest] = {key + w: coeff for key, coeff in src.items()}
                continue
            get = target.get
            if negate:
                for key, coeff in src.items():
                    key += w
                    target[key] = get(key, 0) - coeff
            else:
                for key, coeff in src.items():
                    key += w
                    target[key] = get(key, 0) + coeff
    if signed:  # drop cancelled terms before they are carried further
        nxt = {st: {k: c for k, c in p.items() if c} for st, p in nxt.items()}
    return nxt


def _orbit_means(
    poly: dict[int, int], images: Callable[[int], list[int]], chis: Sequence[int],
) -> dict[int, int]:
    """Mean of the signed translates of poly over the whole group, by key orbit.

    images(key)[x] is the key translated by the element with label x, and
    chis[x] = chi(x) = +-1 is a character of the group.  The mean M = (1/|G|)
    sum_x chi(x) sigma_x(poly) satisfies M[sigma_x K] = chi(x) M[K], so it is
    returned as {K: M[K]} for one key K of each key orbit that meets poly,
    with M[K] = (1/|G|) sum_x chi(x) poly[sigma_(-x) K], which is also
    sum_x chi(x) poly[sigma_x K] / |G| since chi(-x) = chi(x).  The
    division is exact; a remainder raises AssertionError.
    """
    order = len(chis)
    zeros = itertools.repeat(0)
    seen: set[int] = set()
    out = {}
    for key in poly:
        if key in seen:
            continue
        keys = images(key)
        seen.update(keys)
        q, r = divmod(sum(map(operator.mul, chis, map(poly.get, keys, zeros))), order)
        if r:
            raise AssertionError(f"orbit mean at packed key {key} is not integral")
        if q:
            out[key] = q
    return out


def _subset_dp(matrix: CayleyMatrix, signed: bool) -> IntPolynomial:
    """Permanent (or, signed, determinant) by dynamic programming over column subsets.

    Rows are placed in order.  After row i the state maps the set of columns
    taken so far to the sum of the monomials of those partial placements.
    Two columns agree exactly when their elements do, so the classes of
    identical columns are read off the column elements, and row r holds the
    entry r + a in each class a.  Identical columns are interchangeable, so
    a state only counts the columns taken from each class (packed mixed
    radix; when all columns differ it is the bitmask of the columns taken),
    the permanent gains the factor prod m_c! at the end, and the determinant
    is zero.  Exponent vectors are packed base B = l+1 (a power of two above
    l on a reduced non-cyclic table, see _Symmetry) into one int (Kronecker
    substitution: no exponent exceeds l, so digits never carry), so
    multiplying by x_k adds B^k.  Placing row i in column j passes the taken
    columns to its right, popcount(mask >> (j+1)) inversions, which gives the
    sign.  This is the subset form of Ryser's inclusion-exclusion (Nijenhuis
    & Wilf 1978).

    A table that is the plain table with its rows and columns permuted
    (_plain_sign) and has more than ORBIT_MIN_PAIRS unreduced pairs runs on
    the plain table's _Symmetry record, which says how sigma_x acts on
    packed keys, and keeps one state per orbit of column masks under every
    translation of the group: its partial sums obey P_(T_x S) = sign(T_x, S)
    sigma_x(P_S), where sigma_x moves every variable label by x and
    sign(T_x, S) is -1 to the number of pairs of S that T_x reverses; a key
    is never B^n - 1.  A representative R stores
    W_R, the sum of the P_S of its orbit, each translated back to R
    (|orbit(R)| P_R), up to a translation that fixes R: each push from R
    lands in R u {j}, which is translated back to its own representative,
    by one of the translations that do so when there are several.  Every
    translation fixes the full mask, so the mean of its W over the whole
    group, with the sign character chi(x) of the column permutation
    ((-1)^((n/o)(o-1)) for an element of order o), is the result whichever
    translation each state was kept under (an exact division); unpacking
    maps the labels back through phi, and the determinant picks up the sign
    of the column relabeling and the table's own _plain_sign.
    """
    l, nvars, group = matrix.size, matrix.nvars, matrix.group
    _cell_guard(l)
    classes = Counter(matrix.cols)  # column element -> columns, in column order
    if signed and len(classes) < l:
        return IntPolynomial.zero(nvars)
    sizes = list(classes.values())
    sign = _dp_guard(matrix, sizes)
    sym = _symmetry(group, signed) if sign else None
    base = l + 1 if sym is None else sym.base
    powers = [base**i for i in range(nvars)]
    if sym is None:
        add = group.add_table
        rows = [[add[r][a] for a in classes] for r in matrix.rows]
        weights, orbit, ops, modulus = [powers], None, [], 0
    else:
        rows, sizes = sym.grid, [1] * l
        weights, orbit, ops, modulus = sym.weights, sym.orbit, sym.ops, sym.modulus
    radix = [1]
    for m in sizes:
        radix.append(radix[-1] * (m + 1))
    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    for row in rows:
        steps = [(c, radix[c], m + 1, v) for c, (m, v) in enumerate(zip(sizes, row))]
        layer = _next_layer(layer, steps, signed, weights, orbit, ops, modulus)
    final = layer[radix[-1] - 1]
    if sym is None:
        ways = math.prod(map(math.factorial, sizes))
        terms = {tuple([packed // p % base for p in powers]): coeff * ways
                 for packed, coeff in final.items()}
        return IntPolynomial(nvars, terms)
    # every translation fixes the full mask: unpack the mean key orbit by key
    # orbit, translating the digits of one key and mapping labels back
    sign = sign * sym.sign if signed else 1
    terms = {}
    for key, c in _orbit_means(final, sym.images, sym.chis).items():
        digits = [key // p % base for p in powers]
        for exponent, chi in zip(sym.exponents, sym.chis):
            terms[exponent(digits)] = chi * sign * c
    return IntPolynomial(nvars, terms)


def permanent(matrix: CayleyMatrix, algorithm: str = "auto") -> IntPolynomial:
    """Permanent as an integer polynomial; algorithm in {auto, leibniz}.

    auto is the subset DP; leibniz expands all l! permutations (l <= 10) and
    serves as the independent oracle.
    """
    if algorithm == "auto":
        return _subset_dp(matrix, signed=False)
    if algorithm == "leibniz":
        return _accumulate_leibniz(matrix, signed=False)
    raise ValueError(f"unknown permanent algorithm {algorithm!r}")


def _factored_guard(n: int) -> None:
    estimate = n * math.comb(2 * n - 1, n)
    if estimate > FACTORED_GUARD:
        raise GuardExceeded("factored determinant", estimate, FACTORED_GUARD)


def _det_factored(matrix: CayleyMatrix) -> IntPolynomial:
    """Determinant via the character factorization, on packed ints, one key per translation orbit.

    det(plain) = sign(inversion permutation) * prod_chi v_chi with the linear
    forms v_chi = sum_i chi(g_i) x_i; a table whose row and column elements
    each list the group once is the plain one permuted, and its determinant
    takes _plain_sign too (the hat and n x n toeplitz tables: prod_chi
    v_chi), while a table with repeated columns has determinant 0.
    A coefficient is a sum of at most n! roots of unity, kept as one int
    under zeta_e -> 2^B (zeta_packing has the bound): chi(g_i) = zeta^t is a
    shift by t*B, each layer is reduced mod Phi_e(2^B), and a balanced
    residue of 2^(B-1) or more in absolute value (a coefficient that is not
    a rational integer) raises ValueError.

    Monomials are packed base n+1 over the labels of _relabeling, so the
    translation sigma: x_a -> x_(a+g) is key * (n+1)^s mod (n+1)^n - 1.
    Each form is an eigenvector, sigma v_chi = zeta^(-chi(g)) v_chi, so the
    product of the first k forms obeys coef(sigma^t m) = zeta^(t C_k)
    coef(m), C_k the sum of their chi(g) exponents, and the loop keeps one
    representative key per orbit.  The next product is sum_u zeta^(u C)
    sigma^u R (C = C_(k+1)), where R scatters each representative r over
    the labels modulo its stabilizer, the first n |orbit(r)| / e.  A target
    sigma^h(m) of R folds into its representative m with the twist
    zeta^(-h C), and m is weighted by the sum of zeta^(u C) over its
    stabilizer, which is |Stab(m)| or 0.  At the end every key is expanded
    from its representative, with one unpack per (representative, twist).
    The loop shares only the relabeling with the subset DP, so the two
    routes check each other.  The guard counts the n * C(2n-1, n)
    coefficient products of the unreduced multiplications (a product of k
    forms has C(k+n-1, n-1) terms), an upper bound on the work done here.
    """
    group = matrix.group
    n = group.order
    if len(set(matrix.cols)) < matrix.size:  # repeated columns
        return IntPolynomial.zero(n)
    sign = _plain_sign(matrix) * group.inversion_sign()
    if not sign:
        raise ValueError("factored determinant needs row and column elements that each list the group once")
    _factored_guard(n)
    e = group.exponent
    s = n // e
    bits, modulus = zeta_packing(e, math.factorial(n))
    phi, g, _ = _relabeling(group)
    els = group.elements()
    by_label = [els[a] for a in sorted(range(n), key=phi.__getitem__)]
    base = n + 1
    powers = [base**i for i in range(n)]
    ring, rotate = base**n - 1, base**s  # sigma(key) = key * rotate % ring
    prod, sizes, total = {0: 1}, {0: 1}, 0  # representative -> coefficient, orbit size; C_k
    for chi in els:
        total = (total + group.char_exponent(chi, els[g])) % e
        # label L: B^L, and per twist h the shift of chi(g_L) zeta^(-h C)
        steps = [(w, [(t - h * total) % e * bits for h in range(e)])
                 for w, t in zip(powers, [group.char_exponent(chi, a) for a in by_label])]
        stabilized = [steps[:o * s] for o in range(e + 1)]
        where: dict[int, tuple[int, int]] = {}  # key -> (m, h) with key = sigma^h(m)
        new_sizes: dict[int, int] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for r, v in prod.items():
            for w, shifts in stabilized[sizes[r]]:
                q = r + w
                hit = where.get(q)
                if hit is None:  # q opens an orbit and represents it
                    where[q] = hit = (q, 0)
                    x, h = q, 1
                    while h < e and (x := x * rotate % ring) != q:  # never rotates C1's x_0
                        where[x] = (q, h)
                        h += 1
                    new_sizes[q] = h
                m, h = hit
                acc[m] = get(m, 0) + (v << shifts[h])
        prod = {}
        for m, v in acc.items():
            o = new_sizes[m]
            # the stabilizer's weight is 0 unless |orbit| C = 0 mod e; a zero residue adds nothing
            if o * total % e == 0 and (v := v * (e // o) % modulus):
                prod[m] = v
        sizes = new_sizes
    # coef(sigma^t m) = zeta^(t C) coef(m): each twist is unpacked, in one batch, for the
    # representatives whose orbits reach it, so every value passes the integrality test
    twists = [t * total % e for t in range(e)]
    values = {}
    for t, j in enumerate(twists):
        if j not in values:
            reps = [m for m in prod if sizes[m] > t]
            values[j] = dict(zip(reps, unpack_zeta_integers([prod[m] << j * bits for m in reps],
                                                            bits, modulus)))
    place = [powers[p] for p in phi]  # the exponent of x_a is the digit at label phi(a)
    terms = {}
    for m in prod:
        key = m
        for j in twists[:sizes[m]]:
            if c := values[j][m]:
                terms[tuple([key // w % base for w in place])] = c * sign
            key = key * rotate % ring
    return IntPolynomial(n, terms)


def determinant(matrix: CayleyMatrix, algorithm: str = "auto") -> IntPolynomial:
    """Determinant as an integer polynomial; algorithm in {auto, leibniz, factored}.

    auto is the signed subset DP, which returns zero on the repeated columns
    of extended, block2n and stretched toeplitz tables; factored
    short-circuits those to zero too, and an explicit leibniz run (l <= 10)
    sums all l! signed terms, so it computes the cancellation honestly.
    """
    if algorithm == "auto":
        return _subset_dp(matrix, signed=True)
    if algorithm == "leibniz":
        return _accumulate_leibniz(matrix, signed=True)
    if algorithm == "factored":
        return _det_factored(matrix)
    raise ValueError(f"unknown determinant algorithm {algorithm!r}")


def _count_table(add: Sequence[Sequence[int]], elements: Sequence[int],
                 degree: int) -> list[dict[int, list[tuple[int, ...]]]]:
    """table[t][x]: the count tuples over elements with count total t <= degree and element sum x."""
    table: list[dict[int, list[tuple[int, ...]]]] = [{0: [()]}] + [{}] * degree  # read, not grown
    for g in elements:
        grown: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in range(degree + 1)]
        for t, by_sum in enumerate(table):
            for x, tuples in by_sum.items():
                for c in range(degree - t + 1):
                    grown[t + c].setdefault(x, []).extend([tup + (c,) for tup in tuples])
                    x = add[x][g]
        table = grown
    return table


def hall_support(group: FiniteAbelianGroup, degree: int) -> set[tuple[int, ...]]:
    """Exponent vectors of the given degree whose weighted element sum is zero.

    These are exactly the monomials the permanent of the (possibly extended)
    table can contain.  A join: the counts of g_m..g_(n-1) (m = ceil(n/2))
    and those of g_0..g_(m-2) are tabled by count total and element sum
    (_count_table); the count of g_(m-1) is walked from each tabled head,
    and each walked leaf takes the tabled tails that bring the sum back to
    zero.  Every vector is listed once, so the work is the two tables, the
    leaves and the output.  Heads are taken by increasing total, and the
    tails of a total no later head can complete are dropped as they go.
    The guard counts the work in units of about 0.06 us (2 vCPUs): one per
    degree-d vector, which bound the output, and 16 (about 1 us) per
    (d+1)-long table list of a tabled element, per tabled tuple and per
    head-walk step, all in closed form (a table over k elements holds
    C(d+k+1, k) - 1 tuples, and the walk takes at most C(d+m, m) steps).
    """
    if degree < 0:
        raise ValueError(f"hall_support: need degree >= 0, got {degree}")
    n = group.order
    m = (n + 1) // 2
    tabled = ((n - 1) * (degree + 1) + math.comb(degree + n - m + 1, n - m) + math.comb(degree + m, m - 1) - 2
              + math.comb(degree + m, m))
    size = math.comb(degree + n - 1, n - 1) + 16 * tabled
    if size > ENUM_GUARD:
        raise GuardExceeded("support enumeration", size, ENUM_GUARD)
    add = group.add_table
    neg = group.neg_table
    # the tails first, so the heads reuse the tuples its inner layers freed (C10 peak -4%)
    tails = _count_table(add, range(m, n), degree)
    heads = _count_table(add, range(m - 1), degree)
    g = m - 1
    out: set[tuple[int, ...]] = set()
    for t in range(degree + 1):
        for x, prefixes in heads[t].items():
            for c in range(degree - t + 1):  # x is the sum with c copies of g
                found = tails[degree - t - c].get(neg[x])
                if found:
                    heads_c = [p + (c,) for p in prefixes]
                    out.update(itertools.starmap(operator.add, itertools.product(heads_c, found)))
                x = add[x][g]
        heads[t] = tails[degree - t] = {}  # later heads have larger totals
    return out


def permanent_term_count(group: FiniteAbelianGroup) -> int:
    """Number of distinct monomials in the permanent of the plain table."""
    return len(hall_support(group, group.order))


def determinant_term_count(group: FiniteAbelianGroup) -> int:
    """Number of distinct monomials in the determinant of the plain table."""
    refuse_before_table(group, "det")
    return determinant(build_table(group, "plain")).term_count()


# ---------------------------------------------------------------------------
# checkers

def _dual_weight_character(group: FiniteAbelianGroup) -> Element:
    """Sum of all characters of the group (as an index tuple); values are +-1."""
    add = group.add_table
    psi = 0
    for chi in range(group.order):  # characters share the element indexing
        psi = add[psi][chi]
    return group.element(psi)


def check_invariance(group: FiniteAbelianGroup) -> CheckReport:
    """Translation action on variables: the permanent is invariant, the
    determinant is semi-invariant with character psi = sum of all characters
    (so gamma . det = psi(gamma) * det with psi(gamma) = +-1)."""
    t0 = time.perf_counter()
    for op, variant in INVARIANCE_TABLES:  # both guards before the table is built
        refuse_before_table(group, op, variant)
    failures: list[dict] = []
    table = build_table(group, "plain")
    per = permanent(table)
    det = determinant(table)
    neg_det = -det  # psi(gamma) * det where psi(gamma) = -1, built once
    psi = _dual_weight_character(group)
    for gamma in group.elements():
        if apply_group_action(group, gamma, per) != per:
            failures.append({"gamma": list(gamma), "what": "permanent not invariant"})
        t = group.char_exponent(psi, gamma)  # psi(gamma) = zeta_e^t, e the exponent
        if t and 2 * t != group.exponent:
            failures.append({"gamma": list(gamma), "what": f"psi value zeta^{t} is not +-1"})
        elif apply_group_action(group, gamma, det) != (neg_det if t else det):
            failures.append({"gamma": list(gamma), "what": "determinant not semi-invariant"})
    elapsed = time.perf_counter() - t0
    return CheckReport("invariance", {"group": group.spec_string}, failures, elapsed)


def _table_monomial(add: Sequence[Sequence[int]], perm: Sequence[int]) -> tuple[int, ...]:
    """Exponent vector of prod_i x_(g_i + g_perm(i)), given the group's addition table."""
    exp = [0] * len(perm)
    for i, j in enumerate(perm):
        exp[add[i][j]] += 1
    return tuple(exp)


def check_action_identities(
    group: FiniteAbelianGroup,
    samples: int | None = None,
    seed: int = 0,
) -> CheckReport:
    """Structural identities of the translation action on permutations.

    For sigma_gamma the translation permutation (row gamma of the group's
    addition table) and the star action gamma * pi = sigma_gamma pi sigma_gamma:

      - star preserves both sign and table monomial;
      - translating the monomial of pi gives the monomial of pi o sigma_gamma^{-1};
      - pi and pi^{-1} share a monomial (the table is symmetric);
      - every (position, value) pair consistent with a supported monomial is
        realized by some permutation with that monomial.

    Exhaustive over all permutations when samples is None (group order <= 8
    required); otherwise a deterministic sample, with realization verified by
    walking the star-action orbit of each sampled permutation.  Either guard
    is decided before the n x n addition table is built; the sampled one
    counts its n^2 cells plus n^2 star steps per sample.
    """
    t0 = time.perf_counter()
    n = group.order
    exhaustive = samples is None
    if exhaustive:
        if n > 8:
            raise GuardExceeded("exhaustive permutation sweep", math.factorial(n), math.factorial(8))
        perms = list(itertools.permutations(range(n)))
    else:
        if samples < 1:
            raise ValueError(f"sampled action check needs samples >= 1, got {samples}")
        work = n * n * (1 + samples)
        if work > ACTION_GUARD:
            raise GuardExceeded("sampled action steps", work, ACTION_GUARD)
        rng = random.Random(seed)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(samples)]
    els = group.elements()
    add = group.add_table
    neg = group.neg_table
    failures: list[dict] = []

    realized: set[tuple[tuple[int, ...], int, int]] = set()
    orbit_failures: list[dict] = []  # sampled realization witnesses, reported after all others
    for pi in perms:
        mono = _table_monomial(add, pi)
        s_pi = _permutation_sign(pi)
        stars: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (star, its monomial) per gamma
        for g in range(n):
            sg = add[g]
            star = tuple(sg[pi[sg[i]]] for i in range(n))
            star_mono = _table_monomial(add, star)
            if not exhaustive:
                stars.append((star, star_mono))
            if _permutation_sign(star) != s_pi:
                failures.append({"pi": list(pi), "gamma": list(els[g]), "what": "star changed sign"})
            if star_mono != mono:
                failures.append({"pi": list(pi), "gamma": list(els[g]), "what": "star changed monomial"})
            sginv = add[neg[g]]
            translated = _translate_exponents(mono, sg)
            composed = tuple(pi[sginv[i]] for i in range(n))
            if translated != _table_monomial(add, composed):
                failures.append(
                    {"pi": list(pi), "gamma": list(els[g]), "what": "translate/compose mismatch"}
                )
        inv = _invert(pi)
        if _table_monomial(add, inv) != mono:
            failures.append({"pi": list(pi), "what": "inverse changed monomial"})
        if exhaustive:
            for i, j in enumerate(pi):
                realized.add((mono, i, j))
            continue
        # constructive realization along the star orbit of pi: the star by
        # g_alpha - g_i carries position i to the entry g_k - g_i
        positions = {}
        for alpha in range(n):
            positions.setdefault(add[alpha][pi[alpha]], alpha)
        for k, mult in enumerate(mono):
            if not mult:
                continue
            alpha = positions[k]
            for i in range(n):
                star, star_mono = stars[add[alpha][neg[i]]]
                j = add[k][neg[i]]
                if star[i] != j or star_mono != mono:
                    orbit_failures.append(
                        {"monomial": list(mono), "i": i, "j": j, "what": "orbit construction failed"}
                    )

    if exhaustive:
        support = hall_support(group, n)
        for mono in sorted(support):
            for k, mult in enumerate(mono):
                if not mult:
                    continue
                for i in range(n):
                    j = add[k][neg[i]]
                    if (mono, i, j) not in realized:
                        failures.append(
                            {"monomial": list(mono), "i": i, "j": j, "what": "pair not realized"}
                        )
    failures += orbit_failures
    elapsed = time.perf_counter() - t0
    params = {"group": group.spec_string, "mode": "exhaustive" if exhaustive else f"sampled-{len(perms)}"}
    return CheckReport("action-identities", params, failures, elapsed)


def _invert(perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def _translate_exponents(exp: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(exp)
    for i, k in enumerate(exp):
        out[perm[i]] = k
    return tuple(out)


def check_lehmer_congruence(p: int) -> CheckReport:
    """For prime p in {3, 5, 7}: permanent and (hat form) determinant of the
    C_p table both equal sum x_i^p plus p times an integer polynomial."""
    if p not in LEHMER_PRIMES:
        raise ValueError(f"supported primes are {LEHMER_PRIMES}, got {p}")
    t0 = time.perf_counter()
    group = FiniteAbelianGroup((p,))
    hat = build_table(group, "hat")
    per = permanent(hat)
    det = determinant(hat, "factored")
    target = IntPolynomial(
        p, {tuple(p if t == i else 0 for t in range(p)): 1 for i in range(p)}
    )
    failures: list[dict] = []
    for name, poly in (("permanent", per), ("determinant", det)):
        diff = poly - target
        for exp, c in diff.sorted_terms():
            if c % p:
                failures.append(
                    {"polynomial": name, "exponents": list(exp), "coeff": c, "modulus": p}
                )
    elapsed = time.perf_counter() - t0
    return CheckReport("lehmer", {"p": p}, failures, elapsed)


def check_extended_counts(group: FiniteAbelianGroup) -> CheckReport:
    """Distinct-monomial counts of the extended and doubled tables match the
    symmetric-power dimensions at degrees n+1 and 2n."""
    t0 = time.perf_counter()
    n = group.order
    for op, variant in EXTENDED_TABLES:  # both guards before either table is built
        refuse_before_table(group, op, variant)
    failures: list[dict] = []

    per_ext = permanent(build_table(group, "extended"))
    got_ext = per_ext.term_count()
    want_ext = int(sym_series(group, 0, n + 1).coefficient(n + 1))
    if got_ext != want_ext:
        failures.append({"table": "extended", "count": got_ext, "dimension": want_ext})

    per_blk = permanent(build_table(group, "block2n"))
    got_blk = per_blk.term_count()
    want_blk = int(sym_series(group, 0, 2 * n).coefficient(2 * n))
    if got_blk != want_blk:
        failures.append({"table": "block2n", "count": got_blk, "dimension": want_blk})

    elapsed = time.perf_counter() - t0
    return CheckReport("extended-counts", {"group": group.spec_string}, failures, elapsed)


def hall_tables(max_order: int, max_order_ext: int) -> list[tuple[FiniteAbelianGroup, str]]:
    """(group, variant) of each permanent check_hall takes: plain to max_order, then extended."""
    if max_order < 1 or max_order_ext < 1:
        raise ValueError(f"hall check needs orders >= 1, got {max_order} and {max_order_ext}")
    return [(group, variant) for variant, top in (("plain", max_order), ("extended", max_order_ext))
            for group in abelian_groups_up_to(top)]


def check_hall(max_order: int = 6, max_order_ext: int = 5) -> CheckReport:
    """Support of the permanent equals the zero-sum prediction.

    Plain tables at degree n for every abelian group of order <= max_order,
    extended tables at degree n+1 for order <= max_order_ext.
    """
    t0 = time.perf_counter()
    tables = hall_tables(max_order, max_order_ext)
    for group, variant in tables:  # every guard before the first table is built
        refuse_before_table(group, "per", variant)
    failures: list[dict] = []
    for group, variant in tables:
        table = build_table(group, variant)
        got = set(permanent(table).terms)
        want = hall_support(group, table.size)  # a table's degree is its size
        for exp in sorted(got.symmetric_difference(want)):
            failures.append(
                {"group": group.spec_string, "table": variant, "exponents": list(exp),
                 "what": "missing" if exp in want else "unexpected"}
            )
    elapsed = time.perf_counter() - t0
    return CheckReport(
        "hall-support", {"max_order": max_order, "max_order_ext": max_order_ext}, failures, elapsed
    )


def check_toeplitz_conjecture(n: int, l: int) -> CheckReport:
    """Support of the permanent of the l x l toeplitz table over C_n against
    the zero-sum prediction: all degree-l vectors with sum j*k_j = 0 mod n."""
    if n < 1 or l < n:
        raise ValueError(f"need l >= n >= 1, got n={n}, l={l}")
    t0 = time.perf_counter()
    group = FiniteAbelianGroup((n,))
    refuse_before_table(group, "per", "toeplitz", l)
    per = permanent(build_table(group, "toeplitz", size=l))
    got = set(per.terms)
    want = hall_support(group, l)
    failures: list[dict] = []
    for exp in sorted(want - got):
        failures.append({"exponents": list(exp), "what": "predicted monomial missing"})
    for exp in sorted(got - want):
        failures.append({"exponents": list(exp), "what": "unexpected monomial present"})
    if len(want) != sym_dim(n, l, 0):
        failures.append(
            {"what": "prediction size mismatch", "count": len(want), "dimension": sym_dim(n, l, 0)}
        )
    elapsed = time.perf_counter() - t0
    return CheckReport("toeplitz-conjecture", {"n": n, "l": l}, failures, elapsed)
