"""Symbolic Cayley tables and their permanents and determinants.

Entries are variables x_k indexed by group element; the table variants are

    plain     n x n,  entry x_(g_i + g_j)      (symmetric)
    hat       n x n,  entry x_(g_i - g_j)      (neutral diagonal)
    extended  (n+1)^2 over the list g_0..g_{n-1}, g_0 (neutral repeated)
    block2n   (2n)^2  over the doubled list g_0..g_{n-1}, g_0..g_{n-1}
    toeplitz  l x l   entry x_((j-i) mod n), single-factor cyclic groups only

Permanents and determinants are computed by one dynamic program over column
subsets.  When the grid carries the translation action (plain, hat and n x n
toeplitz tables in the canonical element order), translation rotates the
columns and shifts the variables, the permanent is invariant and the
determinant semi-invariant, so the program keeps one state per rotation
orbit of column sets (C12 in seconds); other tables keep one per set.  A
Leibniz expansion that counts each of the l! permutations on its own (met
in the middle: row prefixes against precomputed suffix orderings, up to
size 10) is the independent oracle.
The permanent's monomial support is governed by the zero-sum condition
(degree-n exponent vectors k with sum k_j * g_j = 0); the determinant
factors into character linear forms.  Checkers for these facts live here.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import GuardExceeded
from .groups import Element, FiniteAbelianGroup, _permutation_sign
from .molien import sym_dim, sym_series
from .polynom import IntPolynomial, apply_group_action, unpack_zeta_integers, zeta_packing
from .report import CheckReport

VARIANTS = ("plain", "hat", "extended", "block2n", "toeplitz")

LEIBNIZ_GUARD = math.factorial(10)  # permutations the Leibniz oracle may expand
DP_GUARD = 5 * 10**7
# below this many unreduced (state, monomial) pairs the orbit set-up costs more than it
# saves: order 5 (1002 pairs) breaks even when warm and is slower on a first call, order 6
# (5336 pairs) is 1.5 times as fast
ORBIT_MIN_PAIRS = 2000
FACTORED_GUARD = 10**6
ENUM_GUARD = 10**7  # monomials hall_support may enumerate
LEHMER_PRIMES = (3, 5, 7)


@dataclass(frozen=True)
class CayleyMatrix:
    """A table of variable indices over a fixed group."""

    group: FiniteAbelianGroup
    variant: str
    grid: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.grid)

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


def build_table(
    group: FiniteAbelianGroup,
    variant: str,
    size: int | None = None,
    element_order: Sequence[int] | None = None,
) -> CayleyMatrix:
    """Build one of the table variants.

    size applies to toeplitz only (l >= n, default n).  element_order permutes
    the element listing used for rows/columns (relabeling-invariance tests);
    entries always use canonical variable indices, so permanents are reorder
    invariant and determinants pick up the square of the row/column sign.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n = group.order
    listing = list(range(n))
    if element_order is not None:
        if variant == "toeplitz":
            raise ValueError("toeplitz tables have a fixed index layout")
        if sorted(element_order) != listing:
            raise ValueError("element_order must be a permutation of the element indices")
        listing = list(element_order)

    if variant == "toeplitz":
        if not group.is_cyclic_presentation:
            raise ValueError(
                f"toeplitz tables need a single-factor cyclic presentation, got {group}"
                " (present the group as Cn)"
            )
        if size is None:
            size = n
        if size < n:
            raise ValueError(f"toeplitz size must be at least the group order {n}, got {size}")
        grid = tuple(tuple((j - i) % n for j in range(size)) for i in range(size))
        return CayleyMatrix(group, variant, grid)

    if size is not None:
        raise ValueError("size is only meaningful for the toeplitz variant")
    if variant == "extended":
        listing.append(0)
    elif variant == "block2n":
        listing += listing
    # entry a + b; the hat table's a - b is a plus the column's negative
    cols = [group.neg_table[b] for b in listing] if variant == "hat" else listing
    add = group.add_table
    grid = tuple(tuple(add[a][b] for b in cols) for a in listing)
    return CayleyMatrix(group, variant, grid)


def _lex_parities(s: int) -> list[int]:
    """Parity of each permutation of s sorted items, in itertools.permutations order.

    That order is the lex order of Lehmer codes (digit i in 0..s-1-i, the
    count of later entries below entry i), and the inversion count is the
    digit sum.
    """
    return [sum(code) & 1 for code in itertools.product(*(range(s - i) for i in range(s)))]


def _prefix_parity(prefix: Sequence[int]) -> int:
    """Parity of the inversions a permutation's first k entries take part in.

    Those are the inversions inside the prefix plus the pairs (prefix entry p,
    later entry c < p); the columns below p not in the prefix number p minus
    the prefix entries below p, so the second count is sum(prefix) - C(k, 2).
    """
    k = len(prefix)
    inv = sum(a > b for a, b in itertools.combinations(prefix, 2))
    return (inv + sum(prefix) - k * (k - 1) // 2) & 1


def _accumulate_leibniz(matrix: CayleyMatrix, signed: bool) -> IntPolynomial:
    """Sum over all l! permutations of the (signed) product of their entries.

    Meet in the middle: a permutation is a prefix (the columns of the first
    k = l - ceil(l/2) rows) and an ordering of the remaining columns on the
    last s = ceil(l/2) rows.  The packed keys (exponent vectors base l+1, so
    x_e is (l+1)^e) of every ordering of every s-subset of columns are listed
    once, split by the ordering's parity; each prefix then adds its key to
    each key of its complement's list, one count per permutation.  The sign
    is (-1)^(_prefix_parity(prefix) + parity(suffix)).  Partial products are
    never merged, so the subset DP is checked against the full expansion.
    The guard counts the l! permutations.
    """
    l = matrix.size
    perms = math.factorial(l)
    if perms > LEIBNIZ_GUARD:
        raise GuardExceeded("Leibniz permutations", perms, LEIBNIZ_GUARD)
    nvars = matrix.nvars
    base = l + 1
    weights = [[base**e for e in row] for row in matrix.grid]
    s = (l + 1) // 2
    k = l - s
    tail = weights[k:]
    odd = _lex_parities(s)
    even = [1 - p for p in odd]
    # used-column bitmask of a prefix -> (even, odd) keys of its completions
    suffix: dict[int, tuple[list[int], list[int]]] = {}
    for cols in itertools.combinations(range(l), s):
        keys = [sum(w[c] for w, c in zip(tail, order)) for order in itertools.permutations(cols)]
        used = (1 << l) - 1 - sum(1 << c for c in cols)
        suffix[used] = (list(itertools.compress(keys, even)), list(itertools.compress(keys, odd)))
    plus: Counter[int] = Counter()
    minus: Counter[int] = Counter()
    for prefix in itertools.permutations(range(l), k):
        key = sum(w[c] for w, c in zip(weights, prefix))
        evens, odds = suffix[sum(1 << c for c in prefix)]
        if signed and _prefix_parity(prefix):
            evens, odds = odds, evens
        plus.update(map(operator.add, itertools.repeat(key), evens))
        (minus if signed else plus).update(map(operator.add, itertools.repeat(key), odds))
    plus.subtract(minus)
    terms: dict[tuple[int, ...], int] = {}
    for packed, coeff in plus.items():
        exp = []
        for _ in range(nvars):
            packed, digit = divmod(packed, base)
            exp.append(digit)
        terms[tuple(exp)] = coeff
    return IntPolynomial(nvars, terms)


def _column_classes(matrix: CayleyMatrix) -> list[tuple[int, int]]:
    """Classes of identical columns as (first column, size), in column order."""
    first: dict[tuple[int, ...], int] = {}
    sizes: dict[int, int] = {}
    for j in range(matrix.size):
        j0 = first.setdefault(tuple(row[j] for row in matrix.grid), j)
        sizes[j0] = sizes.get(j0, 0) + 1
    return list(sizes.items())


class _Translation(NamedTuple):
    """Columns rotated by s carry every entry to entry + shift (mod n).

    The columns and variables are relabeled by phi first: the table with
    entry phi(grid[i][j]) in column phi(j) has that symmetry.  mults[u] =
    B^(u*shift mod n), B = n + 1, is the rotation by u steps on a key packed
    base B: sigma^u(key) = key * mults[u] mod B^n - 1.
    """

    phi: list[int]
    grid: list[list[int]]
    s: int
    shift: int
    mults: list[int]

    @property
    def rotations(self) -> int:
        return len(self.mults)


def _translation(matrix: CayleyMatrix, classes: Sequence[tuple[int, int]]) -> _Translation | None:
    """The translation symmetry of a square table with distinct columns, if it has one.

    An element g of maximal order e generates the relabeling: phi(r_c + k g)
    = k s + c, with s = n/e and r_c the first element of the c-th coset of
    <g>, so adding g adds s to every label.  A plain table then satisfies
    grid[i][j + s] = grid[i][j] + s and a hat table the same with -s (the
    toeplitz table over C_n is the plain case with phi = id).  The property
    is read off the relabeled grid, not the variant, so a table in another
    element order gets the trivial subgroup (None), as do extended, block2n
    and stretched toeplitz tables.
    """
    n = matrix.nvars
    if matrix.size != n or len(classes) < n or n < 2:
        return None
    group = matrix.group
    e = group.exponent
    s = n // e
    if group.is_cyclic_presentation:  # g = 1 and phi = id
        phi = list(range(n))
        grid = [list(row) for row in matrix.grid]
    else:
        g = next(k for k, a in enumerate(group.elements()) if group.element_order(a) == e)
        add = group.add_table
        phi = [-1] * n
        c = 0
        for r in range(n):
            if phi[r] < 0:  # r is the first element of the next coset of <g>
                x = r
                for k in range(e):
                    phi[x] = k * s + c
                    x = add[x][g]
                c += 1
        grid = []
        for row in matrix.grid:
            new = [0] * n
            for j, v in enumerate(row):
                new[phi[j]] = phi[v]
            grid.append(new)
    for shift in (s, n - s):
        if all(row[s:] + row[:s] == [(v + shift) % n for v in row] for row in grid):
            return _Translation(phi, grid, s, shift, [(n + 1) ** (u * shift % n) for u in range(e)])
    return None


def _rotation_orbits(k: int, n: int, s: int) -> int:
    """Number of orbits of the k-subsets of Z_n under rotation by multiples of s (Burnside)."""
    e = n // s
    fixed = 0
    for t in range(e):
        cycles = math.gcd(t * s, n)  # rotation by t*s has gcd cycles of length n/gcd
        length = n // cycles
        if k % length == 0:
            fixed += math.comb(cycles, k // length)
    return fixed // e


def _dp_state_estimate(
    matrix: CayleyMatrix,
    classes: Sequence[tuple[int, int]],
    translation: _Translation | None,
) -> int:
    """Upper bound on the (state, monomial) pairs the subset DP holds.

    Layer k has at most C(l, k) states (exactly that many when all columns
    differ), or one per rotation orbit of k-subsets under a translation,
    each carrying at most the C(k+v-1, v-1) degree-k monomials in the v
    distinct variables of the table.
    """
    if translation is not None:
        l = matrix.size
        states = [_rotation_orbits(k, l, translation.s) for k in range(l + 1)]
    else:
        states = [1]  # states[k]: ways to take k columns, counted per class
        for _, m in classes:
            grown = [0] * (len(states) + m)
            for k, count in enumerate(states):
                for t in range(m + 1):
                    grown[k + t] += count
            states = grown
    v = len({k for row in matrix.grid for k in row})
    return sum(s * math.comb(k + v - 1, v - 1) for k, s in enumerate(states))


def _rotation_signs(tr: _Translation, rep: int, signed: bool) -> list[int]:
    """Placement sign of each rotation u = 0..e-1 of the column mask rep.

    Rotating a k-set by u*s moves the w = popcount(rep >> (n - u*s)) columns
    that wrap past the other k - w, so a signed placement changes sign by
    (-1)^(w(k-w)).  On the rotations that fix rep the signs form a character.
    """
    if not signed:
        return [1] * tr.rotations
    n, s = len(tr.phi), tr.s
    k = rep.bit_count()
    return [1 - 2 * ((w := (rep >> (n - u * s)).bit_count()) * (k - w) & 1)
            for u in range(tr.rotations)]


def _orbit_table(tr: _Translation, signed: bool) -> list[tuple[int, int, int]]:
    """Per column mask S = T^h(R): (R, mults[-h], placement sign).

    T rotates a mask by s, and R is the smallest mask of the orbit, so
    P_R = sign * sigma^(-h)(P_S).
    """
    n, s = len(tr.phi), tr.s
    full = (1 << n) - 1
    orbit: list = [None] * (full + 1)
    for rep in range(full + 1):
        if orbit[rep] is not None:
            continue
        signs = _rotation_signs(tr, rep, signed)
        x, h = rep, 0
        while orbit[x] is None:
            orbit[x] = (rep, tr.mults[-h], signs[h])  # sigma^(-h) = sigma^(e-h)
            x = (x << s | x >> (n - s)) & full
            h += 1
    return orbit


def _orbit_means(
    poly: dict[int, int], mults: list[int], chis: list[int], modulus: int,
) -> dict[int, tuple[int, int]]:
    """Mean of the signed translates of poly over all e rotations, by key orbit.

    key * mults[t] % modulus is sigma^t(key), and chis[t] = chi(t) = +-1 is
    a character of the rotations.  The mean M = (1/e) sum_t chi(t)
    sigma^t(poly) satisfies M[sigma^t K] = chi(t) M[K], so it is returned as
    {K: (M[K], size of the orbit of K)} for one key K of each key orbit
    that meets poly, with M[K] = (1/e) sum_t chi(t) poly[sigma^(-t) K],
    which is also sum_t chi(t) poly[sigma^t K] / e since chi(-t) = chi(t).
    The division is exact; a remainder raises AssertionError.
    """
    e = len(mults)
    zeros = itertools.repeat(0)
    seen: set[int] = set()
    out = {}
    for key in poly:
        if key in seen:
            continue
        images = [key * m % modulus for m in mults]  # images[t] = sigma^t(key)
        seen.update(images)
        q, r = divmod(sum(map(operator.mul, chis, map(poly.get, images, zeros))), e)
        if r:
            raise AssertionError(f"orbit mean at packed key {key} is not integral")
        if q:
            out[key] = (q, e // images.count(key))
    return out


def _subset_dp(matrix: CayleyMatrix, signed: bool) -> IntPolynomial:
    """Permanent (or, signed, determinant) by dynamic programming over column subsets.

    Rows are placed in order.  After row i the state maps the set of columns
    taken so far to the sum of the monomials of those partial placements.
    Identical columns are interchangeable, so a state only counts the columns
    taken from each class of identical columns (packed mixed radix; when all
    columns differ it is the bitmask of the columns taken), the permanent
    gains the factor prod m_c! at the end, and the determinant is zero.
    Exponent vectors are packed base B = l+1 into one int (Kronecker
    substitution: no exponent exceeds l, so digits never carry), so
    multiplying by x_k adds B^k.  Placing row i in column j passes the taken
    columns to its right, popcount(mask >> (j+1)) inversions, which gives the
    sign.  This is the subset form of Ryser's inclusion-exclusion (Nijenhuis
    & Wilf 1978).

    A table with a translation symmetry (see _translation) and more than
    ORBIT_MIN_PAIRS unreduced pairs keeps one state per rotation orbit of
    column masks: its partial sums obey P_(T^h S) =
    (-1)^(w(k-w)) sigma^h(P_S), where sigma shifts every variable label by
    the table's shift, which on a packed key is multiplication by
    B^shift mod B^n - 1 (digits stay below B, so the key is never B^n - 1).
    A representative R stores W_R, the sum of the P_S of its orbit, each
    translated back to R (|orbit(R)| P_R), up to a rotation that fixes R:
    each push from R lands in R u {j}, which is translated back to its own
    representative, by one of the rotations that do so when there are
    several.  Every rotation fixes the full mask, so the mean of its W over
    all rotations, an exact division, is the result whichever rotation each
    state was kept under; unpacking maps the labels back through phi, and
    the determinant picks up the sign of the column relabeling.
    """
    l = matrix.size
    nvars = matrix.nvars
    classes = _column_classes(matrix)
    if signed and len(classes) < l:
        return IntPolynomial.zero(nvars)
    estimate = _dp_state_estimate(matrix, classes, None)
    tr = _translation(matrix, classes) if estimate > ORBIT_MIN_PAIRS else None
    if tr is not None:
        estimate = _dp_state_estimate(matrix, classes, tr)
    if estimate > DP_GUARD:
        raise GuardExceeded("subset DP states", estimate, DP_GUARD)
    base = l + 1
    grid = matrix.grid
    if tr is not None:
        grid = tr.grid
        modulus = base**l - 1
        orbit = _orbit_table(tr, signed)
    radix = [1]
    for _, m in classes:
        radix.append(radix[-1] * (m + 1))
    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    for row in grid:
        steps = [(c, radix[c], m + 1, base ** row[j]) for c, (j, m) in enumerate(classes)]
        nxt: dict[int, dict[int, int]] = {}
        for state, poly in layer.items():
            moved = {1: poly}  # poly translated by each multiplier it is pushed with
            for c, r, span, w in steps:
                if state // r % span == span - 1:  # class used up
                    continue
                # signed implies distinct columns: state is a bitmask, c a column
                negate = signed and (state >> (c + 1)).bit_count() & 1
                dest, src = state + r, poly
                if tr is not None:
                    dest, mult, sign = orbit[dest]
                    negate = negate ^ (sign < 0)
                    src = moved.get(mult)
                    if src is None:
                        src = moved[mult] = {key * mult % modulus: coeff
                                             for key, coeff in poly.items()}
                    w = w * mult % modulus  # digits never carry, so translation is additive
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
        layer = nxt
    ways = math.prod(math.factorial(m) for _, m in classes)
    powers = [base**i for i in range(nvars)]
    final = layer[radix[-1] - 1]
    if tr is None:
        terms = {tuple([packed // p % base for p in powers]): coeff * ways
                 for packed, coeff in final.items()}
        return IntPolynomial(nvars, terms)
    # every rotation fixes the full mask: unpack the mean key orbit by key
    # orbit, rotating the digits of one key and mapping labels back
    sign = _permutation_sign(tr.phi) if signed else 1
    chis = _rotation_signs(tr, radix[-1] - 1, signed)
    exponents = [operator.itemgetter(*[(p - u * tr.shift) % l for p in tr.phi])
                 for u in range(tr.rotations)]
    terms = {}
    for key, (c, size) in _orbit_means(final, tr.mults, chis, modulus).items():
        digits = [key // p % base for p in powers]
        for exponent, chi in zip(exponents[:size], chis):
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


def _det_factored(matrix: CayleyMatrix) -> IntPolynomial:
    """Determinant via the character factorization, on packed ints.

    det(plain) = sign(inversion permutation) * prod_chi v_chi with the linear
    forms v_chi = sum_i chi(g_i) x_i; the hat table is the plain one with
    columns permuted by the inversion, so its determinant is prod_chi v_chi.
    Monomials are packed base n+1; the loop shares no code with the subset
    DP, so the two routes check each other.  A coefficient is a sum of at
    most n! roots of unity, kept as one int under zeta_e -> 2^B (zeta_packing
    has the bound): chi(g_i) = zeta^t is a shift by t*B, each layer is
    reduced mod Phi_e(2^B), and a balanced residue of 2^(B-1) or more in
    absolute value (a coefficient that is not a rational integer) raises
    ValueError.  The guard counts the n * C(2n-1, n) coefficient products of
    the n multiplications (a product of k forms has C(k+n-1, n-1) terms).
    """
    group = matrix.group
    if matrix.variant not in ("plain", "hat"):
        raise ValueError("factored determinant applies to plain and hat tables only")
    n = group.order
    estimate = n * math.comb(2 * n - 1, n)
    if estimate > FACTORED_GUARD:
        raise GuardExceeded("factored determinant", estimate, FACTORED_GUARD)
    bits, modulus = zeta_packing(group.exponent, math.factorial(n))
    els = group.elements()
    base = n + 1
    powers = [base**i for i in range(n)]
    prod = {0: 1}
    for chi in els:
        steps = [(w, group.char_exponent(chi, a) * bits) for w, a in zip(powers, els)]
        nxt: dict[int, int] = {}
        get = nxt.get
        for w, shift in steps:
            for key, v in prod.items():
                k = key + w
                nxt[k] = get(k, 0) + (v << shift)
        prod = {key: v % modulus for key, v in nxt.items()}
    sign = group.inversion_sign() if matrix.variant == "plain" else 1
    # every value passes the integrality test; only the surviving ones are decoded
    values = unpack_zeta_integers(prod.values(), bits, modulus)
    terms = {tuple([key // w % base for w in powers]): c * sign
             for key, c in zip(prod, values) if c}
    return IntPolynomial(n, terms)


def determinant(matrix: CayleyMatrix, algorithm: str = "auto") -> IntPolynomial:
    """Determinant as an integer polynomial; algorithm in {auto, leibniz, factored}.

    auto is the signed subset DP, which returns zero on the repeated columns
    of extended and block2n tables; factored short-circuits those to zero
    too, and an explicit leibniz run (l <= 10) sums all l! signed terms, so
    it computes the cancellation honestly.
    """
    if algorithm == "auto":
        return _subset_dp(matrix, signed=True)
    if algorithm == "leibniz":
        return _accumulate_leibniz(matrix, signed=True)
    if algorithm == "factored":
        if matrix.variant in ("extended", "block2n"):
            return IntPolynomial.zero(matrix.nvars)
        return _det_factored(matrix)
    raise ValueError(f"unknown determinant algorithm {algorithm!r}")


def hall_support(group: FiniteAbelianGroup, degree: int) -> set[tuple[int, ...]]:
    """Exponent vectors of the given degree whose weighted element sum is zero.

    These are exactly the monomials the permanent of the (possibly extended)
    table can contain.  A backward pass records, for each suffix of the
    elements and each degree, the partial sums that suffix can reach; the
    forward walk then only enters branches that can still close to zero, so
    its work is proportional to the output.
    """
    if degree < 0:
        raise ValueError(f"hall_support: need degree >= 0, got {degree}")
    n = group.order
    size = math.comb(degree + n - 1, n - 1)
    if size > ENUM_GUARD:
        raise GuardExceeded("support enumeration", size, ENUM_GUARD)
    add = group.add_table
    neg = group.neg_table
    multiples = []  # multiples[k][c]: index of c * g_k
    for k in range(n):
        mk = [0]
        for _ in range(degree):
            mk.append(add[mk[-1]][k])
        multiples.append(mk)
    # reach[k][d]: sums of c_k g_k + ... + c_(n-1) g_(n-1) with c_k + ... = d
    reach = [[set() for _ in range(degree + 1)] for _ in range(n + 1)]
    reach[n][0].add(0)
    for k in range(n - 1, -1, -1):
        for d in range(degree + 1):
            here = reach[k][d]
            for c in range(d + 1):
                shift = add[multiples[k][c]]
                here.update(shift[t] for t in reach[k + 1][d - c])

    out: set[tuple[int, ...]] = set()
    comp = [0] * n

    def walk(k: int, d: int, acc: int) -> None:
        # entered only when the elements k.. can still bring acc back to zero
        if k == n - 1:  # so the last count, forced to d, closes the sum
            comp[k] = d
            out.add(tuple(comp))
            return
        row = add[acc]
        mk = multiples[k]
        later = reach[k + 1]
        for c in range(d + 1):
            total = row[mk[c]]
            if neg[total] in later[d - c]:
                comp[k] = c
                walk(k + 1, d - c, total)

    if 0 in reach[0][degree]:
        walk(0, degree, 0)
    return out


def permanent_term_count(group: FiniteAbelianGroup) -> int:
    """Number of distinct monomials in the permanent of the plain table."""
    return len(hall_support(group, group.order))


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


def check_invariance(group: FiniteAbelianGroup) -> CheckReport:
    """Translation action on variables: the permanent is invariant, the
    determinant is semi-invariant with character psi = sum of all characters
    (so gamma . det = psi(gamma) * det with psi(gamma) = +-1)."""
    t0 = time.perf_counter()
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
    walking the star-action orbit of each sampled permutation.
    """
    t0 = time.perf_counter()
    n = group.order
    exhaustive = samples is None
    if exhaustive:  # decided before the n x n addition table is built
        if n > 8:
            raise GuardExceeded("exhaustive permutation sweep", math.factorial(n), math.factorial(8))
        perms = list(itertools.permutations(range(n)))
    else:
        if samples < 1:
            raise ValueError(f"sampled action check needs samples >= 1, got {samples}")
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


def check_hall(max_order: int = 6, max_order_ext: int = 5) -> CheckReport:
    """Support of the permanent equals the zero-sum prediction.

    Plain tables at degree n for every abelian group of order <= max_order,
    extended tables at degree n+1 for order <= max_order_ext.
    """
    from .groups import abelian_groups_up_to

    if max_order < 1 or max_order_ext < 1:
        raise ValueError(f"hall check needs orders >= 1, got {max_order} and {max_order_ext}")
    t0 = time.perf_counter()
    failures: list[dict] = []
    for variant, top in (("plain", max_order), ("extended", max_order_ext)):
        for group in abelian_groups_up_to(top):
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
