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
so from order 6 (ORBIT_MIN_ORDER) the program keeps one state per orbit
of column sets under all |G| translations (C12 and C2xC6 in seconds);
other tables, and every table of order 5 or less, keep one per class
count, on the table's own lists (_class_dp, the one unreduced DP).  All
the orbit path reads of that action is one record (_Symmetry: relabeled
grid, per-element key operations and weights, orbit table, characters),
cached per group and shared by the permanent and the determinant.  Those
tables also share one DP per group, op and path, memoized (_plain_dp:
the plain table's sign-free result, the orbit means, or below the
reduction's threshold the class DP's terms), and every one of them
expands or copies it with its own sign.  A bordered table, whose rows
list the group once plus one element and whose columns list it once plus
one (the extended table, the (n+1)-wide toeplitz table, any reordering of
either), runs the class DP below that threshold; above it its permanent
is expanded along that extra row and column (_bordered): every minor is
a translate of the plain DP's one layer-(n-1) state that the plain
permanent's orbit run returns with its result, so the same DP serves it
too.
Every kernel ends alike: its packed exponent keys are unpacked one digit
column at a time (_unpack), and IntPolynomial._of adopts the terms dict it
builds without a copy or a rescan.
A Leibniz expansion that counts permutations one at a time (met in the
middle one column split at a time: every ordering of one half of the
columns on the first rows against every ordering of the other half on the
last rows) is the independent oracle.  When the column elements list the
group once it counts only the (l-1)! that send row 0 to column 0 and adds
up the column translates of that part, one translation orbit of monomials
at a time, reading the translations off the column list alone (so up to
size 11); other tables count all l! (up to size 10).  A determinant's
packed keys carry each permutation's parity in a digit of their own, so the
permanent and the determinant share its one counting loop.
The permanent's monomial support is governed by the zero-sum condition
(degree-n exponent vectors k with sum k_j * g_j = 0), listed by joining
two half tables of count vectors keyed by total and element sum; the determinant
factors into character linear forms, whose product (the determinant's
checker route) keeps one monomial per translation orbit, as each form is an
eigenvector of the translation; one rule finds each product's
representatives from their element sums (the keys of one orbit that share
a sum, gcd(k, e) at most for k forms, are the only ones it rotates), and
its last product keeps only monomials of sum 0.  Each
(op, algorithm) pair has one guard and one kernel (ROUTES); the guard reads
the element lists, never the grid, and permanent, determinant and refuse
all decide it through that table.  The subset DP and factored guards read a
table's shape only through its normal form (CayleyMatrix.listing: column
classes, sign, border, whether a row or a column repeats), decided once per
table; the Leibniz guard makes its own one test of the columns, so the
oracle does not share it.
Checkers for these facts live here.  Every table checker (invariance, the
Lehmer congruence, and the support checks: hall, extended counts, the
toeplitz conjecture) is one planner, plan_tables, over cells (group,
variant[, size]) and a list of (op, algorithm) routes: it builds each
cell's table once and decides each route's guard on it before any kernel
runs, and returns the call that runs the kernels on those plans and hands
the table and its polynomials to the mode's failures function.  The
checker is that call made at once, and the CLI calls the planners and keeps
no list of tables.  A support mode (plan_supports) compares its cells'
permanent support with hall_support(group, size) and that set's size with
the mode's dimension; each mode is its cell list, its record formatter and
its dimension route.
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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import guard
from .groups import Element, FiniteAbelianGroup, _permutation_sign, iter_abelian_groups_up_to
from .molien import _binomial_run, sym_dim, sym_series
from .numtheory import prime_factorization
from .polynom import IntPolynomial, _gather, apply_group_action, unpack_zeta_integers, zeta_packing
from .report import CheckReport

VARIANTS = ("plain", "hat", "extended", "block2n", "toeplitz")

LEIBNIZ_GUARD = math.factorial(10)  # permutations the Leibniz oracle may expand
DP_GUARD = 5 * 10**7  # subset-DP (state, monomial) pairs, and the cells of any table build_table makes
# cells of a grid that is built: `cayley table --group C1 --variant toeplitz --l 2000` (4 * 10^6
# cells) took 1.4 s and 101 MB, 2.9-4.3 s and 90 MB with --json, on 2 vCPUs, growing as the cells
GRID_GUARD = 4 * 10**6
# below this group order the orbit set-up costs more than it saves, even with the orbit table
# built once per shape: order 5 (1002 unreduced (state, monomial) pairs) runs 1.05-1.15 times as
# fast unreduced when warm and 1.5 times on a first call; order 6 (5336 pairs) runs up to 1.6
# times as fast reduced when warm, and within 1.3 times either way on a first call.  At least 2:
# C1 has no orbit record, its key modulus B^n - 1 being 1
ORBIT_MIN_ORDER = 6
# pushes of the factored determinant, (n/e) C(2n-1, n): every order-12 table runs (`cayley det
# --alg factored`: C12 1.3 s and 52 MB, C2xC6 2.0 s and 71 MB, on 2 vCPUs), and C13 (5200300
# pushes; 4.0 s and 197 MB in the library) is refused
FACTORED_GUARD = 3 * 10**6
ENUM_GUARD = 2 * 10**7  # hall_support work units (see there)
# sampled action check: n^2 addition-table cells plus n^2 star steps per sample, about 1-2 us
# each on 2 vCPUs, so an admitted run takes about 1 s (C500 with one sample: 1.1 s)
ACTION_GUARD = 5 * 10**5
LEHMER_PRIMES = (3, 5, 7)


class _Listing(NamedTuple):
    """A table's shape, decided from its two element lists (CayleyMatrix.listing).

    classes maps each column element to its multiplicity, in column order;
    sign is sign(rows) * sign(cols) when both lists list the group once,
    else 0; border is (r*, c*) when the rows list the group once plus r*
    and the columns once plus c*, else None; repeated says whether a row or
    a column repeats, so that the determinant is 0.
    """

    classes: Counter[int]
    sign: int
    border: tuple[int, int] | None
    repeated: bool


@dataclass(frozen=True)
class CayleyMatrix:
    """A table of variable indices over a fixed group: entry (i, j) is the index of rows[i] + cols[j].

    Every variant is the addition table read through its lists of row and
    column elements, which must have one length l >= 1 and hold element
    indices 0..n-1 only; the grid is built from them when first read, and
    only its readers (the printed table and the Leibniz oracle) build it, so
    a grid above GRID_GUARD cells is refused there.  No guard reads it.
    """

    group: FiniteAbelianGroup
    variant: str
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        n, both = self.group.order, self.rows + self.cols
        if not self.rows or len(self.cols) != len(self.rows) or min(both) < 0 or max(both) >= n:
            raise ValueError(f"a table needs l >= 1 row and l column elements in 0..{n - 1},"
                             f" got rows {self.rows} and columns {self.cols}")

    @functools.cached_property
    def listing(self) -> _Listing:
        """The table's shape, the one normal form that the subset DP and factored guards read.

        l distinct elements of 0..n-1 list the group once when l = n, and
        n distinct ones in n+1 places list it once plus the one repeated,
        whose index is the list's sum less that of 0..n-1.
        """
        n, l, classes = self.group.order, self.size, Counter(self.cols)
        rows, cols, listed = len(set(self.rows)), len(classes), n * (n - 1) // 2
        sign = _permutation_sign(self.rows) * _permutation_sign(self.cols) if l == n == rows == cols else 0
        border = (sum(self.rows) - listed, sum(self.cols) - listed) if l == n + 1 and rows == cols == n else None
        return _Listing(classes, sign, border, min(rows, cols) < l)

    @functools.cached_property
    def grid(self) -> tuple[tuple[int, ...], ...]:
        guard("grid cells", len(self.rows) * len(self.cols), GRID_GUARD)
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


def build_table(group: FiniteAbelianGroup, variant: str, size: int | None = None) -> CayleyMatrix:
    """One of the table variants, as its lists of row and column elements; builds no grid.

    size applies to toeplitz only (l >= n, default n).  The plain table lists
    the elements in index order on both sides, the hat table negates its
    column elements, the extended table appends the neutral element to both
    lists and block2n repeats both; the toeplitz table has rows -i mod n and
    columns j mod n.  Any other listing is CayleyMatrix(group, variant, rows,
    cols) itself.  A table of more than DP_GUARD cells is refused from l
    alone, before any list is made, whatever route would take it, so a table
    that is built costs O(l).
    """
    l = table_size(group, variant, size)
    guard("table cells", l * l, DP_GUARD)
    n = group.order
    if variant == "toeplitz":
        return CayleyMatrix(group, variant, tuple(-i % n for i in range(l)), tuple(j % n for j in range(l)))
    listing = list(range(n))
    if variant == "extended":
        listing.append(0)
    elif variant == "block2n":
        listing += listing
    # entry a + b; the hat table's a - b is a plus the column's negative
    cols = [group.neg_table[b] for b in listing] if variant == "hat" else listing
    return CayleyMatrix(group, variant, tuple(listing), tuple(cols))


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


def _unpack(keys: Iterable[int], base: int, powers: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The digit tuple (key // p % base for p in powers) of each packed key, in order.

    Read one digit column at a time and zipped into tuples, so no per-key
    list is built.
    """
    keys = list(keys)
    return zip(*[[key // p % base for key in keys] for p in powers])


def _leibniz_guard(matrix: CayleyMatrix, signed: bool) -> bool:
    """The Leibniz oracle's guard and plan: whether the column elements list the group once, so
    that translations permute them.

    The guard counts the permutations counted, (l-1)! per column row 0 may
    go to: one column when they do, else all l.
    """
    l = matrix.size
    translated = sorted(matrix.cols) == list(range(matrix.nvars))
    guard("Leibniz permutations", math.factorial(l - 1) * (1 if translated else l), LEIBNIZ_GUARD)
    return translated


def _accumulate_leibniz(matrix: CayleyMatrix, signed: bool, translated: bool) -> IntPolynomial:
    """Sum over the l! permutations of the (signed) product of their entries.

    When the column elements c_j list the group once, translating them by
    gamma permutes the columns by tau_gamma (j -> the column of c_j + gamma)
    and shifts every entry by gamma (sigma_gamma: x_a -> x_(a+gamma)), and
    each permutation is tau_gamma after exactly one that sends row 0 to
    column 0.  So only those (l-1)! are counted, into P, and the result is
    the sum over gamma of sign(tau_gamma) sigma_gamma(P), the sign taken for
    a determinant only.  That sum is invariant (a permanent) or
    semi-invariant (a determinant), so it is written one translation orbit
    at a time: a monomial m's coefficient is the sum over gamma of
    sign(tau_gamma) P[sigma_gamma m] (sign(tau_-gamma) = sign(tau_gamma)),
    and sigma_gamma m's is sign(tau_gamma) times that.  The translations are
    read off the column list and the group's addition table alone.  Any
    other table sends row 0 to every column, so all l! are counted and P is
    the sum.  Its guard (_leibniz_guard) decides which, as its plan.

    The count is met in the middle, one column split at a time: for each
    s-subset B of the columns (s = floor(l/2); of columns 1..l-1 when row 0
    goes to column 0) and its complement A, the packed keys (exponent
    vectors base l+1, so x_e is (l+1)^e) of every ordering of B on the last
    s rows and of every ordering of A on the first k = l - s >= 1 rows that
    puts row 0 on a column it may go to are listed once, and every (prefix, suffix) sum is counted by one Counter.update
    per split, one count per permutation.  A determinant's keys carry the
    permutation's parity in a digit 0 of their own (x_e is (l+1)^(e+1)): a
    prefix ordering adds its lex parity xor _cross_parity(A), a suffix
    ordering its lex parity, so a sum's digit 0 is 1 for an odd permutation
    and 0 or 2 for an even one, never carrying as l + 1 >= 3 (l = 1 has one
    even permutation), and it is folded into the sign once at the end.
    Partial products are never merged before the translation, so the subset
    DP is checked against a count of single permutations.  The keys that do
    not cancel are unpacked by _unpack.  Its guard counts the permutations
    counted.
    """
    l, n = matrix.size, matrix.nvars
    base = l + 1
    weights = [[base ** (e + signed) for e in row] for row in matrix.grid]
    s = l // 2
    k = l - s
    head, tail = weights[:k], weights[k:]
    add, getitem, repeat = operator.add, operator.getitem, itertools.repeat

    def keys(rows: list[list[int]], orderings: Iterable[Sequence[int]]) -> list[int]:
        # the packed key of each ordering on these rows
        return list(map(sum, map(map, repeat(getitem), repeat(rows), orderings)))

    odd_k, odd_s = _lex_parities(k), _lex_parities(s)
    even_k = [1 - p for p in odd_k]
    # permutations(A) lists the orderings in blocks of (k-1)!, one per column of row 0, A's lowest
    # first; a translated table keeps column 0 in A and takes its block alone
    taken = math.factorial(k - 1) * (1 if translated else k)
    counts: Counter[int] = Counter()
    for cols in itertools.combinations(range(translated, l), s):
        rest = [c for c in range(l) if c not in cols]
        firsts = keys(head, itertools.islice(itertools.permutations(rest), taken))
        lasts = keys(tail, itertools.permutations(cols))
        if signed:
            firsts = list(map(add, firsts, even_k if _cross_parity(rest) else odd_k))
            lasts = list(map(add, lasts, odd_s))
        counts.update(itertools.starmap(add, itertools.product(firsts, lasts)))
    terms: dict[int, int] = counts
    if signed:
        terms = {}
        for key, count in counts.items():
            monomial, parity = divmod(key, base)
            terms[monomial] = terms.get(monomial, 0) + (-1) ** parity * count
        terms = {key: coeff for key, coeff in terms.items() if coeff}
    powers = [base**i for i in range(n)]
    part = dict(zip(_unpack(terms, base, powers), terms.values()))
    if not translated:
        return IntPolynomial._of(n, part)
    add_table, neg = matrix.group.add_table, matrix.group.neg_table
    where = {c: j for j, c in enumerate(matrix.cols)}
    # sign(tau_gamma), and sigma_gamma, which gives x_b the exponent of x_(b-gamma)
    signs = [_permutation_sign([where[add_table[c][g]] for c in matrix.cols]) if signed else 1 for g in range(n)]
    moves = [_gather(add_table[neg[g]]) for g in range(n)]
    out: dict[tuple[int, ...], int] = {}
    for m0 in part:
        if m0 not in out:
            orbit = [move(m0) for move in moves]
            coeff = sum(map(operator.mul, signs, map(part.get, orbit, repeat(0))))
            out.update(zip(orbit, map(coeff.__mul__, signs)))
    if signed:
        out = {m: c for m, c in out.items() if c}
    return IntPolynomial._of(n, out)


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
        for p, v in prime_factorization(m):
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


def _label_addition(group: FiniteAbelianGroup, phi: Sequence[int]) -> list[list[int]]:
    """The addition table on the labels phi: entry [phi(a)][phi(b)] is phi(a + b)."""
    by_label = sorted(range(group.order), key=phi.__getitem__)
    add = group.add_table
    return [[phi[add[a][b]] for b in by_label] for a in by_label]


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

    Labels are the (phi, g, axes) of _relabeling, mixed radix over a basis:
    axis i has stride t_i and modulus m_i, and adding its basis element adds
    1 to digit i of a label, mod m_i.  The first axis is an element g of
    maximal order e, with stride s = n/e, so it adds s to the whole label mod
    n.  grid is the plain table with entry phi(g_i + g_j) in row i and column
    phi(j); phi adds digit by digit, so translating the columns by x moves
    every entry by x.

    Keys pack exponent vectors over the labels base B, and weights[x][v] is
    the packed x_v translated by the element with label x.  On a key that
    translation is ops[x] = (mult, masks): (y * mult) mod B^n - 1 (modulus)
    for y = _shift_digits(key, masks), along g (digit x // s) a multiplication
    by a power of B, along the other axes a digit shift on fields of w =
    (n+1).bit_length() bits (B = 2^w), two masks and two shifts per axis.  A
    cyclic group has the one empty shift and B = n + 2.  Either way a digit
    holds any exponent up to n + 1, so the bordered permanent on the orbit
    path (_bordered), whose x_0^(n+1) reaches n + 1, adds its border to the
    plain table's keys without repacking them.  B = n + 2 costs C9 its
    one-digit keys (11^9 > 2^30): its plain permanent went from 4.7 to 5.1
    ms and its determinant from 5.0 to 5.6 ms (warm, 2 vCPUs), against a
    repack of every kept layer-(n-1) state and a second set of key
    operations; B = 16 made C9 about 25% slower.  images(key) lists every
    translate of one key in label order, shifting once per complement
    digit.

    orbit[S], for each column mask S = T_x(R), is (R, label of -x, sign): T_x
    translates the columns by x and R is the smallest mask of the orbit of S
    under the whole group, so P_R = sign * sigma_(-x)(P_S), where sign =
    (-1)^(pairs of R that T_x reverses) and x is the first such translation
    in label order.  chis[x] is the sign character of the column permutation
    by x, exponents[x] reads the exponent vector of sigma_x(K), in the
    group's variable order, off the digits of K, and sign is the sign of the
    column relabeling phi.  The signs and characters are
    the determinant's; the permanent reads every one of them as 1.  labels
    is phi, the label of each element.
    """

    grid: list[list[int]]
    base: int
    modulus: int
    weights: list[list[int]]
    ops: list[tuple[int, tuple]]
    orbit: list[tuple[int, int, int]]
    chis: list[int]
    exponents: list[Callable[[Sequence[int]], tuple[int, ...]]]
    images: Callable[[int], list[int]]
    sign: int
    labels: list[int]


@functools.lru_cache(maxsize=64)
def _symmetry(group: FiniteAbelianGroup) -> _Symmetry:
    """The _Symmetry of the plain table of a group on the orbit path, shared by per and det.

    Every square table whose row and column elements each list the group
    once is the plain table with its rows and columns permuted (its
    listing has a sign, CayleyMatrix.listing), so plain, hat, n x n
    toeplitz and reordered tables all run on this one record.  Its set-up
    parts read one table, perms[x][y], the label of x + y
    (_label_addition).
    """
    n = group.order
    phi, _, axes = _relabeling(group)
    perms = _label_addition(group, phi)
    neg = [perm.index(0) for perm in perms]  # the label of -x, for each label x
    base = 1 << (n + 1).bit_length() if len(axes) > 1 else n + 2
    width = base.bit_length() - 1
    modulus = base**n - 1
    s, e = axes[0]
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

    # the orbit table: each orbit of masks translated from its smallest mask, x in label order
    orbit: list = [None] * (1 << n)
    for rep in range(1 << n):
        if orbit[rep] is not None:
            continue
        cols = [y for y in range(n) if rep >> y & 1]
        for x, perm in enumerate(perms):
            seen = flips = 0  # T_x(rep) so far, and the pairs it reverses
            for y in map(perm.__getitem__, cols):
                flips += (seen >> y).bit_count()
                seen |= 1 << y
            if orbit[seen] is None:
                orbit[seen] = (rep, neg[x], -1 if flips & 1 else 1)

    return _Symmetry(
        [perms[p] for p in phi], base, modulus, [[base**p for p in perm] for perm in perms],
        [(mult, masks) for mult in mults for masks in shifts], orbit,
        [_permutation_sign(perm) for perm in perms],
        # the exponent of x_a in sigma_x(K) is the digit of K at label sigma_(-x)(phi(a))
        [_gather([perms[neg[x]][p] for p in phi]) for x in range(n)],
        images, _permutation_sign(phi), phi,
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
            for j, c in enumerate(_binomial_run(l // o, 1, l // o + 1)):
                states[j * o] += count * c
        order = sum(profile.values())
        states = [x // order for x in states]
    else:
        states = _binomial_run(sizes.count(1), 1, sizes.count(1) + 1)
        for m in sizes:
            if m > 1:  # states[k] becomes the sum of states[k-m..k]
                sums = list(itertools.accumulate([0] * m + states + [0] * m, initial=0))
                states = list(map(operator.sub, sums[m + 1:], sums))
    pairs, monomials = 0, 1  # monomials = C(k+v-1, v-1)
    for k, x in enumerate(states):
        pairs += x * monomials
        monomials = monomials * (k + v) // (k + 1)
    return pairs


def _dp_guard(matrix: CayleyMatrix, signed: bool) -> bool | None:
    """The subset DP's guard and plan: whether the table runs reduced, or None for a determinant that is 0.

    It reads the table's shape from matrix.listing alone.  A repeated row or
    column makes the determinant 0 before any count.  Two columns agree
    exactly when their elements do, so the classes of identical columns are
    the listing's classes.  From order ORBIT_MIN_ORDER, a table that is the
    plain table permuted (its listing has a sign) counts the orbit states
    of the plain table's record, and runs reduced; otherwise it runs
    unreduced on its own classes (_class_dp) and counts their pairs.  A
    bordered table (its listing has a border) runs reduced when the plain
    table does, and then counts the plain table's orbit DP plus the
    border's pushes: C(n+1, 2) border monomials in all (_bordered), each
    times at most the Catalan number C(2n-2, n-1)/n of terms of one
    layer-(n-1) state (its monomials of degree n-1 with one element sum;
    n-1 is prime to n, so translation permutes the n sums and each takes an
    equal share).  No record is built for a table refused here.
    """
    group, l, n, listing = matrix.group, matrix.size, matrix.group.order, matrix.listing
    if signed and listing.repeated:
        return None
    border = listing.border
    reduced = n >= ORBIT_MIN_ORDER and bool(border or listing.sign)
    if not reduced:
        estimate = _dp_pairs(l, list(listing.classes.values()), n, None)
    else:
        estimate = _dp_pairs(n, [1] * n, n, group.order_profile())
        if border:
            estimate += math.comb(n + 1, 2) * math.comb(2 * n - 2, n - 1) // n
    guard("subset DP states", estimate, DP_GUARD)
    return reduced


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
                if signed and sign < 0:  # a permanent ignores the orbit sign
                    negate = not negate
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
    if signed:  # drop cancelled terms before they are carried further; few cancel
        for poly in nxt.values():
            if 0 in poly.values():
                for key in [key for key, coeff in poly.items() if not coeff]:
                    del poly[key]
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


def _last_layers(rows: Sequence[Sequence[int]], sizes: Sequence[int], signed: bool, weights: Sequence[Sequence[int]],
                 orbit: Sequence[tuple[int, int, int]] | None = None, ops: Sequence[tuple[int, tuple]] = (),
                 modulus: int = 0) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """The subset DP over rows (see _subset_dp): its layer before the last row, and its final state."""
    radix = [1]
    for m in sizes:
        radix.append(radix[-1] * (m + 1))
    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    previous = layer
    for row in rows:
        steps = [(c, radix[c], m + 1, v) for c, (m, v) in enumerate(zip(sizes, row))]
        previous, layer = layer, _next_layer(layer, steps, signed, weights, orbit, ops, modulus)
    return previous, layer[radix[-1] - 1]


@functools.lru_cache(maxsize=128)
def _plain_dp(group: FiniteAbelianGroup, signed: bool, reduced: bool) -> tuple[object, dict[int, int] | None]:
    """The subset DP on the plain table: its sign-free result, found, and the layer a permanent's orbit run keeps.

    Every table whose row and column elements each list the group once has
    the plain table's permanent and its determinant times its listing's
    sign (CayleyMatrix.listing), so _subset_dp runs this one DP per group,
    op and path and answers every such table from what it returns.
    Unreduced, found is the terms dict of _class_dp's run on the plain
    table.  Reduced, it is the orbit means, as digit tuples and values, one
    per translation orbit of the support; rows are placed in element order,
    so the last row is element n-1, and a permanent's run also returns
    layer n-1's state F missing one column m, which every bordered table of
    the group expands along its border (_bordered): layer n-1 is one orbit
    state W, the sum of the n translates of the state of its representative
    mask (the columns of labels 0..n-2, so m is the element of label n-1),
    each carried back to it, so F = W / n exactly.  Every other run returns
    None for the layer: below the orbit threshold a bordered table runs
    _class_dp on its own lists.  Kept for 128 runs, 64 groups times per
    and det, as _symmetry keeps 64 groups; the path is part of the key.
    """
    n = group.order
    if not reduced:
        elements = tuple(range(n))
        return _class_dp(CayleyMatrix(group, "plain", elements, elements), signed).terms, None
    sym = _symmetry(group)
    previous, final = _last_layers(sym.grid, [1] * n, signed, sym.weights, sym.orbit, sym.ops, sym.modulus)
    # the permanent's characters are all 1
    means = _orbit_means(final, sym.images, sym.chis if signed else [1] * n)
    found = list(_unpack(means, sym.base, [sym.base**i for i in range(n)])), list(means.values())
    if signed:
        return found, None
    (layer,) = previous.values()
    if any(coeff % n for coeff in layer.values()):
        raise AssertionError("layer n-1 is not n times the state of its representative")
    return found, {key: coeff // n for key, coeff in layer.items()}


def _bordered(group: FiniteAbelianGroup, layer: dict[int, int], r_star: int, c_star: int) -> dict[tuple[int, ...], int]:
    """The terms of the permanent of a bordered table on the orbit path, by expansion along its border.

    The table's rows list the group once plus r*, its columns once plus c*,
    and a permanent does not see their order, so take r* and c* last.  Its
    top left block is the plain table A, its border column x_(a+c*) and its
    border row x_(r*+b), and the expansion along both is

        per = x_(r*+c*) per(A) + sum over a, b of x_(a+c*) x_(r*+b) per(A(a|b)),

    A(a|b) being A without the row of a and the column of b.  Its rows are
    the rows but the last, r = n-1, translated by a - r, so per(A(a|b)) =
    F_(a+b-r), where F_c is the layer-(n-1) state of the plain DP that
    misses column c, and per(A) = sum_c x_(r+c) F_c.  Each pair with
    a + b = c + r meets F_c, so per = sum_c B_c F_c with

        B_c = x_(r*+c*) x_(r+c) + sum over u of x_u x_(s-u),  s = r* + c* + r + c,

    the sum counting each pair {u, s-u} twice when u != s-u, and the corner
    monomial being one of its pairs: B_c has (n + #{u: 2u = s}) / 2
    monomials, and as s meets every element once the border pushes
    C(n+1, 2) monomials in all.  F_c is read off the state F that the plain
    permanent's orbit run returns with its result (_plain_dp), which misses
    column m: F_(m+t) = sigma_t(F), the translation by t through the
    record's key operations.
    """
    n = group.order
    add = group.add_table
    sym = _symmetry(group)
    base, labels = sym.base, sym.labels
    m = labels.index(n - 1)
    place = [base**p for p in labels]  # the packed x_a
    corner, last = add[r_star][c_star], n - 1
    values = list(layer.values())
    scaled = {1: values}  # F's coefficients times each multiplicity met
    out: dict[int, int] = {}
    get = out.get
    for t in range(n):
        mult, masks = sym.ops[labels[t]]
        keys = [key * mult % sym.modulus for key in _shift_digits(layer, masks)]  # the keys of F_(m+t)
        c = add[m][t]
        s = add[corner][add[last][c]]
        # the pairs u + v = s, and the corner, which is one of them
        border = {place[u] + place[v]: 2 - (u == v) for u, v in enumerate(row.index(s) for row in add) if u <= v}
        border[place[corner] + place[add[last][c]]] += 1
        for w, count in border.items():
            if count not in scaled:
                scaled[count] = [count * coeff for coeff in values]
            for key, coeff in zip(keys, scaled[count]):
                key += w
                out[key] = get(key, 0) + coeff
    return dict(zip(_unpack(out, base, place), out.values()))


def _class_dp(matrix: CayleyMatrix, signed: bool) -> IntPolynomial:
    """Permanent (or, signed, determinant) by dynamic programming over column subsets, on the table's own lists.

    Rows are placed in order.  After row i the state maps the set of
    columns taken so far to the sum of the monomials of those partial
    placements.  Row r holds the entry r + a in each column class a (the
    listing's classes).  Identical columns are interchangeable, so a state
    only counts the columns taken from each class (packed mixed radix; when
    all columns differ it is the bitmask of the columns taken), and the
    permanent gains the factor prod m_c! at the end.  Exponent vectors are
    packed base B = l+1 into one int (Kronecker substitution: no exponent
    reaches B, so digits never carry), so multiplying by x_k adds B^k.
    Placing row i in column j passes the taken columns to its right,
    popcount(mask >> (j+1)) inversions, which gives the sign; a signed run
    needs distinct columns.  This is the subset form of Ryser's
    inclusion-exclusion (Nijenhuis & Wilf 1978).  It is the one unreduced
    subset DP: every table its plan does not reduce and whose listing has no
    sign (block2n and stretched toeplitz tables, minors, repeated rows, and
    the bordered tables of order 5 or less) runs it on every call, and the
    plain table's unreduced DP (_plain_dp) is its run on the plain table.
    The tests take it as the oracle of a bordered table on the orbit path.
    """
    l, nvars, add = matrix.size, matrix.nvars, matrix.group.add_table
    classes = matrix.listing.classes  # column element -> columns, in column order
    sizes = list(classes.values())
    powers = [(l + 1) ** i for i in range(nvars)]
    _, final = _last_layers([[add[r][a] for a in classes] for r in matrix.rows], sizes, signed, [powers])
    scale = math.prod(map(math.factorial, sizes))
    coeffs = final.values() if scale == 1 else map(scale.__mul__, final.values())
    return IntPolynomial._of(nvars, dict(zip(_unpack(final, l + 1, powers), coeffs)))


def _subset_dp(matrix: CayleyMatrix, signed: bool, reduced: bool | None) -> IntPolynomial:
    """Permanent (or, signed, determinant) by the subset DP, on the plan _dp_guard decided.

    reduced is that plan: None for a determinant that is 0, else whether
    the table runs on the orbit states.  The table's shape is read from
    matrix.listing.  A table the plan does not reduce and whose listing has
    no sign runs _class_dp on its own lists, the bordered tables of order 5
    or less included.

    A table the plan reduces (the plain table with its rows and columns
    permuted, from order ORBIT_MIN_ORDER) runs on the plain table's
    _Symmetry record, which says how sigma_x acts on packed keys (base n+2,
    or a power of two above n+1 on a non-cyclic group), and keeps one state
    per orbit of column masks under every translation of the group: its
    partial sums obey P_(T_x S) = sign(T_x, S) sigma_x(P_S), where sigma_x
    moves every variable label by x and sign(T_x, S) is -1 to the number of
    pairs of S that T_x reverses; a key is never B^n - 1.  A representative
    R stores W_R, the sum of the P_S of its orbit, each translated back to R
    (|orbit(R)| P_R), up to a translation that fixes R: each push from R
    lands in R u {j}, which is translated back to its own representative,
    by one of the translations that do so when there are several.  Every
    translation fixes the full mask, so the mean of its W over the whole
    group, with the sign character chi(x) of the column permutation
    ((-1)^((n/o)(o-1)) for an element of order o), is the result whichever
    translation each state was kept under (an exact division).  One key of
    each orbit of the mean is unpacked (_unpack), and every translate's
    exponent vector is read off its digits (exponents[x], which maps the
    labels back through phi), with coefficient chi(x) times the mean; the
    determinant picks up the sign of the column relabeling and the table's
    own listing sign.

    One DP serves every table of a group whose row and column elements each
    list the group once (a listing sign), per op and path: _plain_dp runs
    it on the plain table, memoized, and returns what its tail has before
    any sign is applied, the orbit means as digit tuples and values on the
    reduced path, the plain table's terms dict from _class_dp on the
    unreduced one, and every call expands or copies that result with its
    own sign.  A bordered table on the orbit path (the extended table, the
    n+1 toeplitz table and any reordering of either, from order 6) reads
    the layer n-1 that the permanent's orbit run returns and expands along
    its border (_bordered).
    """
    nvars, group, listing = matrix.nvars, matrix.group, matrix.listing
    if reduced is None:
        return IntPolynomial.zero(nvars)
    if not (reduced or listing.sign):
        return _class_dp(matrix, signed)
    if listing.border is not None:
        return IntPolynomial._of(nvars, _bordered(group, _plain_dp(group, False, True)[1], *listing.border))
    found = _plain_dp(group, signed, reduced)[0]
    # the determinant's sign against the plain table's
    flip = listing.sign if signed else 1
    if not reduced:  # a copy of the plain table's terms, with this table's sign
        return IntPolynomial._of(nvars, dict(found) if flip == 1 else {e: -c for e, c in found.items()})
    # every translation fixes the full mask: one key of each orbit of the mean
    # was unpacked; read every translate off its digits, mapping labels back
    sym = _symmetry(group)
    digits, values = found
    sign, chis = (flip * sym.sign, sym.chis) if signed else (1, [1] * nvars)
    terms: dict[tuple[int, ...], int] = {}
    for exponent, chi in zip(sym.exponents, chis):
        terms.update(zip(map(exponent, digits), map((chi * sign).__mul__, values)))
    return IntPolynomial._of(nvars, terms)


def _factored_guard(matrix: CayleyMatrix, signed: bool) -> int:
    """The factored route's guard and plan: the sign _det_factored multiplies by, or 0 for a repeated row or column.

    It reads the table's shape from matrix.listing.  A table with no repeat
    and no sign is a minor (l < n), outside the route's domain.  The guard
    counts the (n/e) C(2n-1, n) pushes of _det_factored's layer loop, a
    binomial capped as _comb_capped caps it: a product of k forms has
    C(k+n-1, k) terms, about one representative in e, and each
    representative is pushed over its n labels modulo its stabilizer.
    """
    listing = matrix.listing
    if listing.repeated:  # the determinant is 0
        return 0
    if not listing.sign:
        raise ValueError(f"factored determinant takes no minor: a table of size {matrix.size} < {matrix.nvars}")
    n = matrix.group.order
    guard("factored determinant", n // matrix.group.exponent * _comb_capped(2 * n - 1, n), FACTORED_GUARD)
    return listing.sign * matrix.group.inversion_sign()


def _det_factored(matrix: CayleyMatrix, signed: bool, sign: int) -> IntPolynomial:
    """Determinant via the character factorization, on packed ints, one key per translation orbit.

    det(plain) = sign(inversion permutation) * prod_chi v_chi with the linear
    forms v_chi = sum_i chi(g_i) x_i; a table whose row and column elements
    each list the group once is the plain one permuted, and its determinant
    takes its listing's sign too (the hat and n x n toeplitz tables: prod_chi
    v_chi).  _factored_guard gives the product of the two signs, or 0 for a
    table with a repeated row or column, whose determinant is 0.
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
    stabilizer, which is |Stab(m)| or 0.
    Each layer keeps, per representative, its coefficient, the label of its
    element sum (read off _label_addition) and, where it is below e, its
    orbit size.  Translating a degree-k monomial by g adds k g to its sum,
    so with labels a s + b (a < e, b < s), d = gcd(k, e) and f = e/d the
    sum labels of an orbit are (a + h k mod e) s + b, one residue of a mod
    d.  A target of sum label a s + b is sigma^h(q), q the key of sum label
    (a mod d) s + b, with h = (a // d) (k/d)^-1 mod f; the d keys
    sigma^(f u)(q) share q's sum, and the first of them to arrive opens
    its orbit into a dictionary of at most d keys (fewer when sigma^(f u)
    returns to it early, its orbit size then f u) and represents it, so the
    target folds into it with the twist h + f u.  A layer with d = 1 has
    free orbits and opens one key per orbit; the last layer (k = n) pushes
    from r only the target of sum 0, as every monomial of the determinant
    sums to 2 sum(G) = 0 and every other coefficient of prod_chi v_chi is 0.
    At the end each twist has one integrality unpack over the
    representatives it reaches; each representative's label digits are
    unpacked once (_unpack), and the exponent vector of sigma^t(m) is read
    off them with one gather (_gather) per twist t, as the subset DP's
    orbit tail reads its translates.
    The loop shares only the relabeling (phi and its _label_addition) with
    the subset DP, so the two routes check each other.
    """
    group = matrix.group
    n = group.order
    if not sign:
        return IntPolynomial.zero(n)
    e = group.exponent
    s = n // e
    bits, modulus = zeta_packing(e, math.factorial(n))
    phi, g, _ = _relabeling(group)
    els = group.elements()
    by_label = [els[a] for a in sorted(range(n), key=phi.__getitem__)]
    plus = _label_addition(group, phi)
    base = n + 1
    powers = [base**i for i in range(n)]
    ring, rotate = base**n - 1, base**s  # sigma(key) = key * rotate % ring
    # representative -> coefficient, its element sum's label, and its orbit size where that is below e
    prod, sums, sizes, total = {0: 1}, {0: 0}, {0: 1}, 0
    for k, chi in enumerate(els, 1):
        total = (total + group.char_exponent(chi, els[g])) % e
        # label L: (L, B^L, and per twist h the shift of chi(g_L) zeta^(-h C))
        steps = [(L, w, [(t - h * total) % e * bits for h in range(e)])
                 for L, (w, t) in enumerate(zip(powers, [group.char_exponent(chi, a) for a in by_label]))]
        stabilized = [steps[:o * s] for o in range(e + 1)]
        d = math.gcd(k, e)
        f = e // d
        # per sum label a s + b of a target: (h, sigma^-h, the sum label (a mod d) s + b of its key)
        turns = [L // s // d * pow(k // d, -1, f) % f for L in range(n)]
        moves = [(h, pow(rotate, -h % e, ring), L // s % d * s + L % s) for L, h in enumerate(turns)]
        spin = pow(rotate, f, ring)  # sigma^f keeps a degree-k sum
        where: dict[int, tuple[int, int]] = {}  # key -> (m, u) with key = sigma^u(m)
        new_sums: dict[int, int] = {}
        new_sizes: dict[int, int] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for r, v in prod.items():
            row = plus[sums[r]]
            span = stabilized[sizes.get(r, e)]
            if k == n:  # the one label that brings r's sum to 0
                L = row.index(0)
                span = span[L:L + 1]
            for L, w, shifts in span:
                h, back, label = moves[row[L]]
                q = (r + w) * back % ring if h else r + w  # skipped at h = 0: C1's ring B - 1 = 1 would clear x_0
                hit = where.get(q)
                if hit is None:  # q opens an orbit and represents it
                    where[q] = hit = (q, 0)
                    x, u = q, f
                    while u < e and (x := x * spin % ring) != q:
                        where[x] = (q, u)
                        u += f
                    if u < e:
                        new_sizes[q] = u
                    new_sums[q] = label
                m, u = hit
                acc[m] = get(m, 0) + (v << shifts[h + u])
        prod = {}
        for m, v in acc.items():
            o = new_sizes.get(m, e)
            # the stabilizer's weight is 0 unless |orbit| C = 0 mod e; a zero residue adds nothing
            if o * total % e == 0 and (v := v * (e // o) % modulus):
                prod[m] = v
        sums, sizes = new_sums, new_sizes
    # coef(sigma^t m) = zeta^(t C) coef(m): each twist is unpacked, in one batch, for the
    # representatives whose orbits reach it, so every value passes the integrality test
    twists = [t * total % e for t in range(e)]
    values = {}
    for t, j in enumerate(twists):
        if j not in values:
            reps = [m for m in prod if sizes.get(m, e) > t]
            values[j] = dict(zip(reps, unpack_zeta_integers([prod[m] << j * bits for m in reps],
                                                            bits, modulus)))
    # the exponent of x_a in sigma^t(m) is the digit of m at label phi(a) - t s
    exponents = [_gather([(p - t * s) % n for p in phi]) for t in range(e)]
    terms = {}
    for m, digits in zip(prod, _unpack(prod, base, powers)):
        for j, exponent in zip(twists[:sizes.get(m, e)], exponents):
            if c := values[j][m]:
                terms[exponent(digits)] = c * sign
    return IntPolynomial._of(n, terms)


# (op, algorithm) -> (guard, kernel).  guard(table, signed) raises GuardExceeded or returns the
# plan kernel(table, signed, plan) runs; signed is op == "det".  auto is the subset DP, leibniz
# counts permutations one at a time as the independent oracle (at most 10!), and factored is the
# determinant's character product
ROUTES = {
    ("per", "auto"): (_dp_guard, _subset_dp),
    ("per", "leibniz"): (_leibniz_guard, _accumulate_leibniz),
    ("det", "auto"): (_dp_guard, _subset_dp),
    ("det", "leibniz"): (_leibniz_guard, _accumulate_leibniz),
    ("det", "factored"): (_factored_guard, _det_factored),
}


def route(op: str, algorithm: str) -> tuple[Callable, Callable]:
    """The (guard, kernel) of ROUTES for op ("per" or "det") and algorithm; ValueError if there is none."""
    found = ROUTES.get((op, algorithm))
    if found is None:
        algorithms = [alg for o, alg in ROUTES if o == op]
        raise ValueError(f"{op} has no algorithm {algorithm!r}; expected one of {', '.join(algorithms)}")
    return found


def refuse(table: CayleyMatrix, op: str, algorithm: str = "auto") -> object:
    """Raise GuardExceeded if the route would refuse the table; else return the plan its kernel runs.

    The guard reads the table's element lists, never its grid.
    """
    decide, _ = route(op, algorithm)
    return decide(table, op == "det")


def _planned(table: CayleyMatrix, op: str, plan: object, algorithm: str = "auto") -> IntPolynomial:
    """The route's kernel run on the plan refuse returned for this table, deciding no guard again."""
    _, kernel = route(op, algorithm)
    return kernel(table, op == "det", plan)


def permanent(matrix: CayleyMatrix, algorithm: str = "auto") -> IntPolynomial:
    """Permanent as an integer polynomial; algorithm in {auto, leibniz} (ROUTES)."""
    return _planned(matrix, "per", refuse(matrix, "per", algorithm), algorithm)


def determinant(matrix: CayleyMatrix, algorithm: str = "auto") -> IntPolynomial:
    """Determinant as an integer polynomial; algorithm in {auto, leibniz, factored} (ROUTES).

    auto and factored return 0 on a repeated row or column (extended,
    block2n and stretched toeplitz tables, and any listing that repeats an
    element), read off the table's listing, and an explicit leibniz run
    (l <= 10 on such tables) sums all l! signed terms, so it computes the
    cancellation honestly.  factored raises ValueError on a minor (l < n
    with no repeat), the only table outside its domain.
    """
    return _planned(matrix, "det", refuse(matrix, "det", algorithm), algorithm)


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


def _comb_capped(a: int, b: int) -> int:
    """C(a, b) exactly below 2^256; above, the first of the rising partial products
    C(a - k + j, j), k = min(b, a - b), that reaches 2^256, a lower bound found in at most 256 steps.

    A size of 2^256 or more prints only as a power of two (errors._render), so the
    guard's message and decision are those of the exact binomial.
    """
    k = min(b, a - b)
    c = 1
    for j in range(1, k + 1):
        c = c * (a - k + j) // j
        if c.bit_length() > 256:
            break
    return c


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
    tabled = ((n - 1) * (degree + 1) + _comb_capped(degree + n - m + 1, n - m) + _comb_capped(degree + m, m - 1)
              - 2 + _comb_capped(degree + m, m))
    guard("support enumeration", _comb_capped(degree + n - 1, n - 1) + 16 * tabled, ENUM_GUARD)
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
    """Number of distinct monomials in the permanent of the plain table.

    The paper's theorem: dim (S^n R)^G, the t^n coefficient of the invariant
    Molien series.  len(hall_support(group, n)) is its oracle (check_hall).
    """
    return sym_series(group, 0, group.order).coefficient(group.order)


def determinant_term_count(group: FiniteAbelianGroup) -> int:
    """Number of distinct monomials in the determinant of the plain table."""
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


def plan_tables(check: str, cells: Iterable[tuple], ops: Sequence[tuple[str, str]],
                params: Callable[[CayleyMatrix], dict], failures: Callable[..., list[dict]],
                first_failure: bool = False) -> Callable[[], list[CheckReport]]:
    """The one table planner: decide every guard of the cells' tables; return the call that checks them.

    A cell is build_table's arguments, (group, variant) or (group, variant,
    size).  Each cell's table is built once and refuse(table, op, algorithm)
    decided for each (op, algorithm) of ops as it is built, and each group is
    made as it is read, so the plan stops at the first refused table and no
    kernel runs before the call.  The call runs each table's kernels in the
    order of ops on those plans (_planned), hands the table and its
    polynomials to failures, and makes one report of each run of cells with
    equal params(table), stopping after the first failing report when
    first_failure is set.
    """
    planned = [(table, [refuse(table, *op) for op in ops]) for table in itertools.starmap(build_table, cells)]

    def run() -> list[CheckReport]:
        reports = []
        for parameters, cell_plans in itertools.groupby(planned, key=lambda cell: params(cell[0])):
            t0 = time.perf_counter()
            found = [record for table, plans in cell_plans for record in failures(
                table, *(_planned(table, op, plan, alg) for (op, alg), plan in zip(ops, plans)))]
            reports.append(CheckReport(check, parameters, found, time.perf_counter() - t0))
            if first_failure and found:
                break
        return reports
    return run


def _invariance_failures(table: CayleyMatrix, per: IntPolynomial, det: IntPolynomial) -> list[dict]:
    group = table.group
    failures: list[dict] = []
    # at x = 1 the table is all ones: its permanent is n!, its determinant 0 (1 for C1)
    for what, poly, want in (("permanent", per, math.factorial(group.order)),
                             ("determinant", det, int(group.order == 1))):
        total = poly.coefficient_sum()
        if total != want:
            failures.append({"what": f"{what} coefficient sum", "sum": total, "expected": want})
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
    return failures


def plan_invariance(groups: Iterable[FiniteAbelianGroup]) -> Callable[[], list[CheckReport]]:
    """Decide check_invariance's guards for every group; return the call that runs the checks on them."""
    return plan_tables("invariance", ((group, "plain") for group in groups), (("per", "auto"), ("det", "auto")),
                       lambda t: {"group": t.group.spec_string}, _invariance_failures)


def check_invariance(group: FiniteAbelianGroup) -> CheckReport:
    """Translation action on variables: the permanent is invariant, the
    determinant is semi-invariant with character psi = sum of all characters
    (so gamma . det = psi(gamma) * det with psi(gamma) = +-1).  Their
    coefficients sum to n! and 0 (1 for C1), the values at the all-ones table,
    which a translation-invariant fault (one wrong orbit mean) still breaks."""
    return plan_invariance([group])()[0]


def _table_monomial(add: Sequence[Sequence[int]], perm: Sequence[int]) -> tuple[int, ...]:
    """Exponent vector of prod_i x_(g_i + g_perm(i)), given the group's addition table."""
    exp = [0] * len(perm)
    for i, j in enumerate(perm):
        exp[add[i][j]] += 1
    return tuple(exp)


class _PermutationFacts(dict):
    """permutation -> (its table monomial, its sign), each computed at its first lookup.

    Equal (monomial, sign) pairs are stored as one tuple, and each permutation
    is kept once, as its first key."""

    def __init__(self, add: Sequence[Sequence[int]]):
        super().__init__()
        self.add = add
        self.shared: dict[tuple, tuple] = {}

    def __missing__(self, perm: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        fact = (_table_monomial(self.add, perm), _permutation_sign(perm))
        fact = self[perm] = self.shared.setdefault(fact, fact)
        return fact


def check_action_identities(
    group: FiniteAbelianGroup,
    samples: int | None = None,
) -> CheckReport:
    """Structural identities of the translation action on permutations.

    For sigma_gamma the translation permutation (row gamma of the group's
    addition table) and the star action gamma * pi = sigma_gamma pi sigma_gamma:

      - star preserves both sign and table monomial;
      - translating the monomial of pi gives the monomial of pi o sigma_gamma^{-1};
      - pi and pi^{-1} share a monomial (the table is symmetric);
      - every (position, value) pair consistent with a monomial met is
        realized by some permutation with that monomial.

    Each star, each pi o sigma_gamma^{-1} and each pi^{-1} is itself a
    permutation of the n labels, and many recur (exhaustively, each is one of
    the n! swept), so the monomial and sign of each distinct permutation are
    computed once per call, at its first lookup, and kept only for that call.
    The first permutation met with each monomial is its witness, and the
    star orbit of the witness realizes every pair of that monomial.  The
    modes differ only in their permutations: all n! when samples is None
    (group order <= 8 required), which also compares the witnesses'
    monomials with hall_support both ways; otherwise `samples` permutations
    drawn by random.Random(0).  Either guard is decided before the n x n addition table is built; the
    sampled one counts its n^2 cells plus n^2 star steps per sample.
    """
    t0 = time.perf_counter()
    n = group.order
    exhaustive = samples is None
    if exhaustive:
        # n! exactly for n <= 57 (below 2^256); from 58 on, 58! (261 bits) as a lower bound, as
        # _comb_capped stops a binomial: a size of 2^256 or more prints only as a power of two
        guard("exhaustive permutation sweep", math.factorial(min(n, 58)), math.factorial(8))
        perms: Iterable[tuple[int, ...]] = itertools.permutations(range(n))
    else:
        if samples < 1:
            raise ValueError(f"sampled action check needs samples >= 1, got {samples}")
        guard("sampled action steps", n * n * (1 + samples), ACTION_GUARD)
        rng = random.Random(0)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(samples)]
    els = group.elements()
    add = group.add_table
    neg = group.neg_table
    failures: list[dict] = []
    facts = _PermutationFacts(add)
    uncompose = [_gather(add[neg[g]]) for g in range(n)]  # seq o sigma_gamma^{-1} per gamma

    witnesses: dict[tuple[int, ...], tuple[int, ...]] = {}  # monomial -> its first permutation
    for pi in perms:
        fact = facts[pi]
        mono, s_pi = fact
        for g, (sg, uncompose_g) in enumerate(zip(add, uncompose)):
            star_fact = facts[tuple([sg[pi[j]] for j in sg])]
            if star_fact is not fact:  # equal facts are one tuple
                if star_fact[1] != s_pi:
                    failures.append({"pi": list(pi), "gamma": list(els[g]), "what": "star changed sign"})
                if star_fact[0] != mono:
                    failures.append({"pi": list(pi), "gamma": list(els[g]), "what": "star changed monomial"})
            if uncompose_g(mono) != facts[uncompose_g(pi)][0]:
                failures.append(
                    {"pi": list(pi), "gamma": list(els[g]), "what": "translate/compose mismatch"}
                )
        if facts[tuple(sorted(range(n), key=pi.__getitem__))][0] != mono:
            failures.append({"pi": list(pi), "what": "inverse changed monomial"})
        witnesses.setdefault(mono, pi)

    # realization along each witness's star orbit: for an entry g_k of pi at
    # position alpha, the star by g_alpha - g_i carries position i to g_k - g_i
    for mono, pi in witnesses.items():
        stars = [tuple([sg[pi[j]] for j in sg]) for sg in add]  # their facts are those met above
        for k, alpha in sorted({add[a][pi[a]]: a for a in range(n)}.items()):
            for i in range(n):
                star = stars[add[alpha][neg[i]]]
                j = add[k][neg[i]]
                if star[i] != j or facts[star][0] != mono:
                    failures.append(
                        {"monomial": list(mono), "i": i, "j": j, "what": "orbit construction failed"}
                    )
    if exhaustive:
        support = hall_support(group, n)
        for mono in sorted(support.difference(witnesses)):
            for k, mult in enumerate(mono):
                if not mult:
                    continue
                for i in range(n):
                    failures.append(
                        {"monomial": list(mono), "i": i, "j": add[k][neg[i]], "what": "pair not realized"}
                    )
        for mono in sorted(witnesses.keys() - support):
            failures.append({"monomial": list(mono), "what": "monomial not zero-sum"})
    elapsed = time.perf_counter() - t0
    params = {"group": group.spec_string, "mode": "exhaustive" if exhaustive else f"sampled-{samples}"}
    return CheckReport("action-identities", params, failures, elapsed)


def _lehmer_cell(p: int) -> tuple:
    if p not in LEHMER_PRIMES:
        raise ValueError(f"supported primes are {LEHMER_PRIMES}, got {p}")
    return FiniteAbelianGroup((p,)), "hat"


def _lehmer_failures(table: CayleyMatrix, per: IntPolynomial, det: IntPolynomial, det_auto: IntPolynomial) -> list[dict]:
    p = table.group.order
    target = IntPolynomial(p, {tuple(p if t == i else 0 for t in range(p)): 1 for i in range(p)})
    return [{"polynomial": name, "exponents": list(exp), "coeff": c, "modulus": p}
            for name, poly in (("permanent", per), ("determinant", det), ("determinant (auto)", det_auto))
            for exp, c in (poly - target).sorted_terms() if c % p]


def plan_lehmer(primes: Iterable[int]) -> Callable[[], list[CheckReport]]:
    """Decide check_lehmer_congruence's guards for every prime; return the call that runs the checks on them."""
    routes = (("per", "auto"), ("det", "factored"), ("det", "auto"))
    return plan_tables("lehmer", map(_lehmer_cell, primes), routes, lambda t: {"p": t.group.order}, _lehmer_failures)


def check_lehmer_congruence(p: int) -> CheckReport:
    """For prime p in {3, 5, 7}: permanent and (hat form) determinant of the
    C_p table both equal sum x_i^p plus p times an integer polynomial.  The
    determinant is read through both of its routes, the factored product
    ("determinant") and the subset DP ("determinant (auto)"), so a fault in
    either one fails the check."""
    return plan_lehmer([p])()[0]


def plan_supports(check: str, cells: Iterable[tuple], params: Callable[[CayleyMatrix], dict],
                  dimension: Callable[[CayleyMatrix], int], records: Callable[..., list[dict]],
                  first_failure: bool = False) -> Callable[[], list[CheckReport]]:
    """plan_tables for a support mode: each cell's permanent against hall_support(group, size).

    Its failures are records(table, missing, unexpected, |hall_support|,
    dimension(table)): missing and unexpected are the sorted vectors of
    hall_support that the permanent lacks and the permanent's vectors outside
    it (a table's degree is its size), and dimension(table) is the mode's
    value for |hall_support|.  A support does not see a coefficient, so one
    more record says when the permanent's coefficients do not sum to l!,
    its value at the all-ones table.  Nothing here branches on the mode.
    """
    def failures(table: CayleyMatrix, per: IntPolynomial) -> list[dict]:
        got = per.terms.keys()
        want = hall_support(table.group, table.size)
        total, whole = per.coefficient_sum(), math.factorial(table.size)
        return records(table, sorted(want - got), sorted(got - want), len(want), dimension(table)) + [
            {"group": table.group.spec_string, "table": table.variant, "size": table.size,
             "what": "permanent coefficient sum", "sum": total, "expected": whole}] * (total != whole)
    return plan_tables(check, cells, (("per", "auto"),), params, failures, first_failure)


def _sym_count(table: CayleyMatrix) -> int:
    """dim (S^l R)^G at the table's size l, the t^l coefficient of the invariant Molien series."""
    return sym_series(table.group, 0, table.size).coefficient(table.size)


def _extended_records(table: CayleyMatrix, missing: list, unexpected: list, count: int, dim: int) -> list[dict]:
    where = {"table": table.variant}
    return ([{**where, "exponents": list(exp), "what": what}
             for what, vectors in (("missing", missing), ("unexpected", unexpected)) for exp in vectors]
            + [{**where, "count": count, "dimension": dim}] * (count != dim))


def plan_extended_counts(groups: Iterable[FiniteAbelianGroup]) -> Callable[[], list[CheckReport]]:
    """Decide check_extended_counts's guards for every group; return the call that runs the checks on them."""
    cells = ((group, variant) for group in groups for variant in ("extended", "block2n"))
    return plan_supports("extended-counts", cells, lambda t: {"group": t.group.spec_string}, _sym_count,
                         _extended_records)


def check_extended_counts(group: FiniteAbelianGroup) -> CheckReport:
    """The permanents of the extended and doubled tables have exactly the
    zero-sum supports at degrees n+1 and 2n, whose sizes are the
    symmetric-power dimensions there."""
    return plan_extended_counts([group])()[0]


def _hall_records(table: CayleyMatrix, missing: list, unexpected: list, count: int, dim: int) -> list[dict]:
    where = {"group": table.group.spec_string, "table": table.variant}
    whats = {**dict.fromkeys(missing, "missing"), **dict.fromkeys(unexpected, "unexpected")}
    return ([{**where, "exponents": list(exp), "what": what} for exp, what in sorted(whats.items())]
            + [{**where, "count": count, "dimension": dim, "what": "count"}] * (count != dim))


def plan_hall(max_order: int, max_order_ext: int) -> Callable[[], list[CheckReport]]:
    """Decide check_hall's guards; return the call that runs the check on them.

    Its tables are the plain table of every group of order <= max_order,
    then the extended table of every group of order <= max_order_ext.  A
    plain table's dimension is permanent_term_count, the paper's theorem.
    """
    if max_order < 1 or max_order_ext < 1:
        raise ValueError(f"hall check needs orders >= 1, got {max_order} and {max_order_ext}")
    cells = ((group, variant) for variant, top in (("plain", max_order), ("extended", max_order_ext))
             for group in iter_abelian_groups_up_to(top))
    return plan_supports("hall-support", cells, lambda _: {"max_order": max_order, "max_order_ext": max_order_ext},
                         lambda t: permanent_term_count(t.group) if t.variant == "plain" else _sym_count(t),
                         _hall_records)


def check_hall(max_order: int = 6, max_order_ext: int = 5) -> CheckReport:
    """Support of the permanent equals the zero-sum prediction, whose size is
    the t^degree coefficient of the invariant Molien series.

    Plain tables at degree n for every abelian group of order <= max_order,
    extended tables at degree n+1 for order <= max_order_ext.
    """
    return plan_hall(max_order, max_order_ext)()[0]


def _conjecture_records(table: CayleyMatrix, missing: list, unexpected: list, count: int, dim: int) -> list[dict]:
    return ([{"exponents": list(exp), "what": "predicted monomial missing"} for exp in missing]
            + [{"exponents": list(exp), "what": "unexpected monomial present"} for exp in unexpected]
            + [{"what": "prediction size mismatch", "count": count, "dimension": dim}] * (count != dim))


def _conjecture_cell(n: int, l: int) -> tuple:
    if n < 1 or l < n:
        raise ValueError(f"need l >= n >= 1, got n={n}, l={l}")
    return FiniteAbelianGroup((n,)), "toeplitz", l


def plan_toeplitz_conjecture(cells: Iterable[tuple[int, int]]) -> Callable[[], list[CheckReport]]:
    """Decide the guards of check_toeplitz_conjecture's (n, l) cells; return the call that
    checks them in order and stops after the first failing cell (a single counterexample is the headline)."""
    return plan_supports("toeplitz-conjecture", itertools.starmap(_conjecture_cell, cells),
                         lambda t: {"n": t.group.order, "l": t.size}, lambda t: sym_dim(t.group.order, t.size, 0),
                         _conjecture_records, first_failure=True)


def check_toeplitz_conjecture(n: int, l: int) -> CheckReport:
    """Support of the permanent of the l x l toeplitz table over C_n against
    the zero-sum prediction: all degree-l vectors with sum j*k_j = 0 mod n."""
    return plan_toeplitz_conjecture([(n, l)])()[0]
