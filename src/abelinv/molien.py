"""Isotypic dimensions and Molien-style series for regular representations.

For the cyclic group C_n acting on its regular representation R, the
multiplicity of the weight-i character in S^m(R), Lambda^m(R) and
S^p(R) (x) Lambda^m(R) has a closed form as a Ramanujan-sum weighted divisor
sum.  This module implements those closed forms, independent counting
oracles for them (a dynamic program over degree and weight, no character
sums), the generating series (general finite abelian groups via
character sums over the elements of each order, which have an integer closed
form by Moebius inversion over torsion subgroups, and order profiles for the
invariant part), and the reciprocity/log-identity checkers.

Every series coefficient is an integer sum of character sums times binomial
coefficients, divided once by the group order; a remainder or a negative
quotient means the coefficient is no dimension, and raises.  SERIES_GUARD
refuses a series too large to build before any coefficient is computed.

The four log identities, one row each of IDENTITIES, compare the dimensions
with one sum, sum_d (w(d)/d) log(1 + u_d), where u_d is u(x^d) for a
degree-1 form u whose signs depend only on the parity of d.  One loop
compares each side at total degree N after scaling by N, which makes the
right side the int sum_d w(d) L[c/d], with L = series.sparse_scaled_log1p(u)
built once per check for each sign pattern; the closed forms z/(1-z^2) and
y/(1-y) enter as coefficient formulas.  Fraction appears only in messages
and witnesses.
IDENTITY_GUARD refuses a truncation order whose logs and comparisons are
too large, before any log is built.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from .errors import GuardExceeded
from .groups import FiniteAbelianGroup, element_sum_counts, parse_order_profile
from .numtheory import _divisors, euler_phi, moebius, ramanujan_sum
from .polynom import unpack_zeta_integers, zeta_packing
from .report import CheckReport
from .series import Sparse, TruncatedSeries1, TruncatedSeries2, sparse_scaled_log1p

SeriesSource = Union[FiniteAbelianGroup, Mapping[int, int]]

SERIES_GUARD = 5 * 10**7  # series work, cells * (256 + bits of the largest binomial)
IDENTITY_GUARD = 2 * 10**5  # identity-check work, sparse-log terms plus compared cells


# ---------------------------------------------------------------------------
# closed-form dimensions

def sym_dim(n: int, m: int, i: int) -> int:
    """Multiplicity of weight i in S^m of the regular representation of C_n.

        (1/(n+m)) * sum_{d | gcd(n,m)} c_d(i) * binom((n+m)/d, n/d)

    The Lambda^0 slice of the bigraded closed form: sym_ext_dim_by_parts(m, n, 0, i).
    Defined for n, m >= 0 with (n, m) != (0, 0) and symmetric under swapping
    n and m; n = 0 degenerates to [m divides i].
    """
    if n < 0 or m < 0 or (n == 0 and m == 0):
        raise ValueError(f"sym_dim: need n, m >= 0 and (n, m) != (0, 0), got ({n}, {m})")
    return sym_ext_dim_by_parts(m, n, 0, i)


def ext_dim(n: int, m: int, i: int) -> int:
    """Multiplicity of weight i in Lambda^m of the regular representation of C_n.

        ((-1)^m / n) * sum_{d | gcd(n,m)} (-1)^(m/d) c_d(i) * binom(n/d, m/d)

    The S^0 slice of the bigraded closed form: sym_ext_dim_by_parts(0, n - m, m, i).
    Zero for m > n (the wedge power vanishes).
    """
    if n < 1:
        raise ValueError(f"ext_dim: need n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"ext_dim: need m >= 0, got {m}")
    if m > n:
        return 0
    return sym_ext_dim_by_parts(0, n - m, m, i)


def sym_ext_dim(n: int, p: int, m: int, i: int) -> int:
    """Multiplicity of weight i in S^p (x) Lambda^m of the regular repr of C_n.

        ((-1)^m / (p+n)) * sum_{d | gcd(n,p,m)} (-1)^(m/d) c_d(i)
                            * multinom((n+p)/d; m/d, p/d, (n-m)/d)

    Zero for m > n.
    """
    if n < 1:
        raise ValueError(f"sym_ext_dim: need n >= 1, got {n}")
    if p < 0 or m < 0:
        raise ValueError(f"sym_ext_dim: need p, m >= 0, got p={p}, m={m}")
    if m > n:
        return 0
    return sym_ext_dim_by_parts(p, n - m, m, i)


def sym_ext_dim_by_parts(p: int, q: int, m: int, i: int) -> int:
    """Same dimension in the symmetric parameters (p, q, m), with n = q + m.

        ((-1)^m / (p+q+m)) * sum_{d | gcd(p,q,m)} (-1)^(m/d) c_d(i)
                              * multinom((p+q+m)/d; m/d, p/d, q/d)

    The one closed-form divisor sum behind every point dimension: sym_dim is
    its m = 0 slice and ext_dim its p = 0 slice.  Symmetric under swapping p
    and q; requires p + q + m >= 1.
    """
    if p < 0 or q < 0 or m < 0 or p + q + m < 1:
        raise ValueError(f"sym_ext_dim_by_parts: bad parameters ({p}, {q}, {m})")
    total = p + q + m
    acc = 0
    for d in _divisors(math.gcd(p, q, m)):
        # multinom((p+q+m)/d; m/d, p/d, q/d) as a product of two binomials, sign (-1)^(m + m/d)
        term = ramanujan_sum(d, i) * math.comb(total // d, m // d) * math.comb((p + q) // d, p // d)
        acc += -term if (m + m // d) % 2 else term
    value, rem = divmod(acc, total)
    if rem or value < 0:  # _dimensions raises, with the message every dimension check uses
        _dimensions([acc], total, "value {value} of sym_ext_dim_by_parts{where}", (p, q, m, i))
    return value


# ---------------------------------------------------------------------------
# counting oracles (independent of the closed forms above)

@lru_cache(maxsize=None)
def _sym_weight_counts(n: int, m: int) -> tuple[int, ...]:
    """[r]: degree-m monomials in x_0..x_{n-1} of weight r mod n (row m of the C_n multiset DP)."""
    return tuple(element_sum_counts(FiniteAbelianGroup((n,)), m, True)[m])


@lru_cache(maxsize=None)
def _ext_weight_counts(n: int) -> tuple[tuple[int, ...], ...]:
    """[m][r]: m-subsets of {0..n-1} with sum r mod n (the C_n set DP, every row)."""
    return tuple(map(tuple, element_sum_counts(FiniteAbelianGroup((n,)), n, False)))


def sym_dim_oracle(n: int, m: int, i: int) -> int:
    """Counting oracle for sym_dim: degree-m monomials in x_0..x_{n-1} of weight i mod n."""
    if n < 1:
        raise ValueError(f"sym_dim_oracle: need n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"sym_dim_oracle: need m >= 0, got {m}")
    return _sym_weight_counts(n, m)[i % n]


def ext_dim_oracle(n: int, m: int, i: int) -> int:
    """Counting oracle for ext_dim: m-subsets of {0..n-1} with sum i mod n."""
    if n < 1:
        raise ValueError(f"ext_dim_oracle: need n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"ext_dim_oracle: need m >= 0, got {m}")
    if m > n:
        return 0
    return _ext_weight_counts(n)[m][i % n]


def sym_ext_dim_oracle(n: int, p: int, m: int, i: int) -> int:
    """Counting oracle for sym_ext_dim: cyclic convolution of the monomial and subset weight counts."""
    if n < 1 or p < 0 or m < 0:
        raise ValueError(f"sym_ext_dim_oracle: bad parameters ({n}, {p}, {m})")
    if m > n:
        return 0
    sym = _sym_weight_counts(n, p)
    ext = _ext_weight_counts(n)[m]
    return sum(sym[w] * ext[(i - w) % n] for w in range(n))


def character_order_sums_oracle(group: FiniteAbelianGroup, i: int) -> dict[int, int]:
    """Element-walk oracle for character_order_sums.

    Counts the elements of each order d by the exponent t of chi_i(g^{-1}) =
    zeta_e^t; each histogram is a sum of roots of unity, packed with
    zeta_packing and read back by unpack_zeta_integers, which raises
    ValueError unless the sum is a rational integer.
    """
    if not 0 <= i < group.order:
        raise ValueError(f"character index {i} out of range for {group}")
    e = group.exponent
    chi = group.element(i)
    hist: dict[int, list[int]] = {}
    for a in group.elements():
        row = hist.setdefault(group.element_order(a), [0] * e)
        row[group.char_exponent(chi, group.neg(a))] += 1
    bits, modulus = zeta_packing(e, group.order)
    orders = sorted(hist)
    packed = [sum(c << t * bits for t, c in enumerate(hist[d])) for d in orders]
    return dict(zip(orders, unpack_zeta_integers(packed, bits, modulus)))


# ---------------------------------------------------------------------------
# character sums and series

def character_order_sums(group: FiniteAbelianGroup, i: int) -> dict[int, int]:
    """S_d = sum over elements g of order d of chi_i(g^{-1}), for each d | exponent.

    The k-torsion subgroup G[k] is the product of the cyclic pieces of order
    gcd(k, n_j), so T_k = sum over G[k] of chi_i is prod_j gcd(k, n_j) when
    chi_i is trivial on G[k] (gcd(k, n_j) divides c_j for every factor) and 0
    otherwise.  Moebius inversion over the divisors of d gives
    S_d = sum_{k | d} mu(d/k) T_k; for C_n this is Kluyver's c_d(i).
    """
    if not 0 <= i < group.order:
        raise ValueError(f"character index {i} out of range for {group}")
    chi = group.element(i)

    ds = _divisors(group.exponent)
    sums = {}  # T_k for every k | exponent
    for k in ds:
        pieces = [math.gcd(k, n) for n in group.factors]
        sums[k] = math.prod(pieces) if all(c % g == 0 for c, g in zip(chi, pieces)) else 0
    return {d: sum(mu * sums[k] for k, mu in _moebius_pairs(d)) for d in ds}


@lru_cache(maxsize=None)
def _moebius_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """(k, mu(d/k)) for the divisors k of d with mu(d/k) != 0: the Moebius inversion over d."""
    return tuple((k, mu) for k in _divisors(d) if (mu := moebius(d // k)))


def _order_sums(source: SeriesSource, i: int) -> tuple[int, dict[int, int]]:
    """(group order, {d: S_d}) for a group or an order profile (profiles need i = 0)."""
    if isinstance(source, FiniteAbelianGroup):
        return source.order, character_order_sums(source, i)
    prof = parse_order_profile(source)
    if i != 0:
        raise ValueError("order profiles carry no character data; only i = 0 is defined")
    return sum(prof.values()), prof


def _dimensions(acc: list[int], total: int, what: str, where) -> list[int]:
    """acc[k] / total for every k, unless one of them is no dimension.

    A remainder or a negative quotient is a fault of the code
    (AssertionError), or bad input (ValueError) when `where` is an order
    profile.  The message, what.format(value=acc[k] / total, degree=k,
    where=where) + " is not a dimension", is built only then.
    """
    out = []
    for c in acc:
        q, r = divmod(c, total)
        if r or q < 0:
            msg = what.format(value=Fraction(c, total), degree=len(out), where=where)
            raise (ValueError if isinstance(where, Mapping) else AssertionError)(f"{msg} is not a dimension")
        out.append(q)
    return out


_COEFFICIENT_AT = " of {where}: coefficient {value} at t^{degree}"  # ends the message of a series coefficient


def _power_binomial_coeffs(d: int, k: int, inner: int, cap: int | None = None) -> list[int]:
    """Coefficients of (1 + inner*t^d)^k, truncated at degree cap (required when k < 0).

    The t^(da) coefficient C(k, a) inner^a follows from the one before by
    c_a = c_(a-1) (k - a + 1) inner / a, an exact integer division; for k < 0
    and inner = -1 this is C(|k| + a - 1, a), the expansion of 1/(1 - t^d)^|k|.
    """
    top = d * k if cap is None else (cap if k < 0 else min(d * k, cap))
    out = [0] * (top + 1)
    c = 1
    for a in range(top // d + 1):
        out[d * a] = c
        c = c * (k - a) * inner // (a + 1)
    return out


def _binomial_bits(a: int, b: int) -> int:
    """Integer upper bound on the bits of C(a, b): C(a, k) <= (e a / k)^k, k = min(b, a - b)."""
    k = min(b, a - b)
    return k * ((a // k).bit_length() + 2) if k > 0 else 1


def _guard_series(cells: int, bits: int) -> None:
    """Refuse a series of `cells` coefficients of up to `bits` bits before any list is built.

    Each cell costs a fixed overhead, counted as 256 bits, plus the bigint
    work on its coefficient, which is linear in its bits.
    """
    work = cells * (256 + bits)
    if work > SERIES_GUARD:
        raise GuardExceeded("series coefficients", work, SERIES_GUARD)


def _add_scaled(acc: list[int], scale: int, coeffs: list[int]) -> None:
    for k, c in enumerate(coeffs):
        if c:
            acc[k] += scale * c


def sym_series(source: SeriesSource, i: int = 0, order: int = 10) -> TruncatedSeries1:
    """Symmetric-algebra series (1/|G|) sum_d S_d(chi_i) / (1 - t^d)^(|G|/d).

    Coefficient of t^m is the multiplicity of chi_i in S^m of the regular
    representation; i = 0 gives the invariant Molien series.  Accepts a group
    or a bare order profile (invariants only).  The coefficient is

        (1/|G|) sum_{d | m} S_d(chi_i) C(|G|/d + m/d - 1, m/d),

    summed in integers and divided once by |G|, exactly.
    """
    total, sums = _order_sums(source, i)
    _guard_series(order + 1, _binomial_bits(total + order - 1, order))
    acc = [0] * (order + 1)
    for d, s in sums.items():
        if s:
            _add_scaled(acc, s, _power_binomial_coeffs(d, -(total // d), -1, order))
    return TruncatedSeries1(order, _dimensions(acc, total, f"sym_series (i = {i})" + _COEFFICIENT_AT, source))


def ext_series(source: SeriesSource, i: int = 0, order: int | None = None) -> TruncatedSeries1:
    """Exterior-algebra series (1/|G|) sum_d S_d(chi_i) (1 - (-t)^d)^(|G|/d).

    A polynomial of degree at most |G|; the default truncation keeps all of it.
    Divisible by (1 + t): every summand vanishes at t = -1.  The coefficient
    of t^m is

        ((-1)^m / |G|) sum_{d | m} S_d(chi_i) (-1)^(m/d) C(|G|/d, m/d),

    summed in integers and divided once by |G|, exactly.
    """
    total, sums = _order_sums(source, i)
    if order is None:
        order = total
    _guard_series(order + 1, _binomial_bits(total, min(order, total // 2)))
    acc = [0] * (order + 1)
    for d, s in sums.items():
        if s:
            # (1 - (-t)^d)^k = sum_a binom(k,a) (-1)^((d+1)a) t^(da)
            _add_scaled(acc, s, _power_binomial_coeffs(d, total // d, (-1) ** (d + 1), order))
    return TruncatedSeries1(order, _dimensions(acc, total, f"ext_series (i = {i})" + _COEFFICIENT_AT, source))


def bigraded_series(n: int, i: int, s_order: int, t_order: int) -> TruncatedSeries2:
    """Bigraded series (1/n) sum_{d|n} c_d(i) ((1-(-t)^d)/(1-s^d))^(n/d).

    Coefficient of s^p t^m is sym_ext_dim(n, p, m, i): each summand is an
    outer product of the pure-s expansion of sym_series and the pure-t
    polynomial of ext_series, scaled by c_d(i).  The grid is summed in
    integers and each entry divided once by n, exactly.
    """
    if n < 1:
        raise ValueError(f"bigraded_series: need n >= 1, got {n}")
    _guard_series((s_order + 1) * (t_order + 1),
                  _binomial_bits(n + s_order - 1, s_order) + _binomial_bits(n, min(t_order, n // 2)))
    acc = [[0] * (t_order + 1) for _ in range(s_order + 1)]
    for d in _divisors(n):
        c = ramanujan_sum(d, i)
        if not c:
            continue
        k = n // d
        t_part = _power_binomial_coeffs(d, k, (-1) ** (d + 1), t_order)
        for row, a in zip(acc, _power_binomial_coeffs(d, -k, -1, s_order)):
            if a:
                _add_scaled(row, c * a, t_part)
    return TruncatedSeries2(s_order, t_order, [
        _dimensions(row, n, f"bigraded_series (i = {i}), s^{p} row" + _COEFFICIENT_AT, f"C{n}")
        for p, row in enumerate(acc)
    ])


def _ext_total(source: SeriesSource, i: int) -> int:
    """(1/|G|) sum_{d odd} S_d(chi_i) 2^(|G|/d): the t = 1 value of ext_series."""
    total, sums = _order_sums(source, i)
    acc = sum(s * 2 ** (total // d) for d, s in sums.items() if d % 2)
    return _dimensions([acc], total, f"total exterior dimension (i = {i})" + " of {where}: {value}", source)[0]


def ext_total_dim(n: int, i: int) -> int:
    """Total multiplicity of weight i (any int, taken mod n) across the whole exterior algebra of C_n:

        (1/n) * sum_{d | n, d odd} c_d(i) * 2^(n/d)
    """
    if n < 1:
        raise ValueError(f"ext_total_dim: need n >= 1, got {n}")
    return _ext_total(FiniteAbelianGroup((n,)), i % n)


def ext_total_dim_invariants(profile: Mapping[int, int]) -> int:
    """Invariant dimension of the full exterior algebra from an order profile:

        (1/|G|) * sum_{d odd} count_d * 2^(|G|/d)
    """
    return _ext_total(profile, 0)


def zero_sum_subset_count(group: FiniteAbelianGroup) -> int:
    """Closed-form count of zero-sum subsets of the group (empty set included).

    Equals the invariant dimension of the exterior algebra of the regular
    representation; the counting cross-check is groups.subset_sum_zero_count.
    """
    return _ext_total(group, 0)


# ---------------------------------------------------------------------------
# reciprocity checker

def check_reciprocity(max_total: int = 10, fredman_total: int = 16) -> CheckReport:
    """Swap symmetry of the dimension formulas.

    sym_ext_dim(q+m, p, m, i) == sym_ext_dim(p+m, q, m, i) over all
    p+q+m <= max_total with both sides defined, and
    sym_dim(n, m, i) == sym_dim(m, n, i) over n+m <= fredman_total.
    """
    if max_total < 1 or fredman_total < 1:
        raise ValueError(f"reciprocity check needs totals >= 1, got {max_total} and {fredman_total}")
    t0 = time.perf_counter()
    failures: list[dict] = []
    for total in range(1, max_total + 1):
        for p in range(total + 1):
            for q in range(total + 1 - p):
                m = total - p - q
                if q + m < 1 or p + m < 1:
                    continue
                for i in range(max(q + m, p + m)):
                    lhs = sym_ext_dim(q + m, p, m, i)
                    rhs = sym_ext_dim(p + m, q, m, i)
                    if lhs != rhs:
                        failures.append({"p": p, "q": q, "m": m, "i": i, "lhs": lhs, "rhs": rhs})
    for total in range(1, fredman_total + 1):
        for n in range(total + 1):
            m = total - n
            for i in range(max(n, m)):
                lhs = sym_dim(n, m, i)
                rhs = sym_dim(m, n, i)
                if lhs != rhs:
                    failures.append({"n": n, "m": m, "i": i, "lhs": lhs, "rhs": rhs})
    elapsed = time.perf_counter() - t0
    return CheckReport(
        "reciprocity",
        {"max_total": max_total, "fredman_total": fredman_total},
        failures,
        elapsed,
    )


# ---------------------------------------------------------------------------
# log identities (sparse total-degree-truncated series on the right sides)

def _log_sums(order: int, sums) -> list[Sparse]:
    """For each (weight, signs) in sums, N times sum_{d=1}^{order} (weight(d)/d) log(1 + u_d).

    u_d = sum_j s_j x_j^d with s = signs(d), and N is the total degree of each
    cell, up to order.  With u = sum_j s_j x_j, homogeneous of degree 1, the
    log of 1 + u(x^d) has coefficient L_s[a] / |a| at x^(d a), where L_s is
    sparse_scaled_log1p(u); since N = d |a|, the scaled sum at a cell c is

        sum_{d | c} weight(d) L_signs(d)[c / d],

    an int.  Each sign tuple's table L_s is built once, at the first d that
    needs it and to degree order // d, and shared by every sum and every
    larger d.
    """
    accs: list[Sparse] = [{} for _ in sums]
    tables = {}  # sign tuple -> its table's (exponent, value) terms, grouped by degree
    for d in range(1, order + 1):
        top = order // d
        targets = {}  # sign tuple -> (accumulator, weight) of each sum with weight(d) != 0
        for acc, (weight, signs) in zip(accs, sums):
            w = weight(d)
            if w:
                targets.setdefault(signs(d), []).append((acc, w))
        for s, pairs in targets.items():
            if s not in tables:
                units = {tuple(int(j == k) for j in range(len(s))): c for k, c in enumerate(s)}
                levels = [[] for _ in range(top + 1)]
                for a, v in sparse_scaled_log1p(units, top).items():
                    levels[sum(a)].append((a, v))
                tables[s] = levels
            levels = tables[s]
            for k in range(1, top + 1):
                for a, v in levels[k]:
                    key = a if d == 1 else tuple([d * x for x in a])
                    for acc, w in pairs:
                        acc[key] = acc.get(key, 0) + w * v
    return accs


def _ramanujan_weight(i: int):
    """d -> -c_d(i), d times the weight of the d-th log in every identity below."""
    return lambda d: -ramanujan_sum(d, i)


def _frac(scaled: int, total: int) -> str:
    """The right side scaled / total of a witness, printed as a reduced fraction."""
    return str(Fraction(scaled, total))


class Identity(NamedTuple):
    """sum_c dim(c, i) x^c = -sum_d (c_d(i)/d) log(1 + u_d), u_d = sum_j s_j x_j^d, s = signs(d)."""

    order: int  # default truncation order
    keys: tuple[str, ...]  # the witness names of a cell's exponents, one per variable
    signs: Callable[[int], tuple[int, ...]]
    # (*exponent columns, i) -> dim(c, i) at each cell; it reads this module's dimension
    # function when the check runs, so a patched one is the one checked
    dims: Callable[..., Iterator[int]]
    i_cap: int | None = None  # the largest i compared; None compares every i <= i_max


IDENTITIES = {
    # top-wedge diagonal; for i = 0 also z/(1-z^2) = sum_d (phi(d)/d) log(1 + z^d), coefficient k mod 2
    "A": Identity(20, ("degree",), lambda d: ((-1) ** d,), lambda ks, i: map(ext_dim, ks, ks, repeat(i))),
    # pure-symmetric: the n = 0 row of sym_dim, and the indicator [k | i] (for i = 0, y/(1-y))
    "B": Identity(20, ("degree",), lambda d: (-1,), lambda ks, i: map(sym_dim, repeat(0), ks, repeat(i))),
    "log2var": Identity(20, ("n", "m"), lambda d: (-1, -1),
                        lambda ns, ms, i: map(sym_dim, ns, ms, repeat(i)), 2),
    # z tracks the wedge degree m
    "log3var": Identity(8, ("p", "q", "m"), lambda d: (-1, -1, (-1) ** d),
                        lambda ps, qs, ms, i: map(sym_ext_dim_by_parts, ps, qs, ms, repeat(i)), 2),
}


def _cells(variables: int, order: int) -> list[tuple[int, ...]]:
    """The exponent vectors in `variables` variables of total degree 1..order, in lexicographic order
    within each degree."""
    levels = [[(total,)] for total in range(order + 1)]  # levels[t]: the vectors of total degree t
    for _ in range(variables - 1):
        levels = [[(a, *rest) for a in range(t + 1) for rest in levels[t - a]] for t in range(order + 1)]
    return [cell for level in levels[1:] for cell in level]


def _identity_work(variables: int, order: int, logs: int) -> int:
    """Terms of `logs` sums of sparse logs in v variables, plus the cells they are compared on.

    log(1 + u), u the v monomials of degree d, holds the C(k+v-1, v-1) terms
    of each power u^k with k <= order/d, C(order/d + v, v) - 1 in all; a
    sum runs over d = 1..order (grouped by order // d) and is compared on
    the C(order + v, v) cells of total degree at most order.  The count
    stops once it passes IDENTITY_GUARD, so a huge order is refused at once.
    """
    terms, d = math.comb(order + variables, variables), 1
    while d <= order and logs * terms <= IDENTITY_GUARD:
        q = order // d
        last = order // q  # the largest d' with order // d' == q
        terms += (last - d + 1) * (math.comb(q + variables, variables) - 1)
        d = last + 1
    return logs * terms


def check_identity(which: str, order: int | None = None, i_max: int = 5) -> CheckReport:
    """Compare N times each side of one IDENTITIES row at every cell of total degree N <= order."""
    row = IDENTITIES.get(which)
    if row is None:
        raise ValueError(f"unknown identity {which!r}; expected one of {sorted(IDENTITIES)}")
    if order is None:
        order = row.order
    if order < 1:
        raise ValueError(f"identity check needs order >= 1, got {order}")
    if i_max < 0:
        raise ValueError(f"identity check needs i_max >= 0, got {i_max}")
    i_list = range((i_max if row.i_cap is None else min(i_max, row.i_cap)) + 1)
    sums = [(_ramanujan_weight(i), row.signs) for i in i_list]
    if which == "A":
        sums.append((euler_phi, lambda d: (1,)))  # z/(1-z^2)
    work = _identity_work(len(row.keys), order, len(sums))
    if work > IDENTITY_GUARD:
        raise GuardExceeded("identity series terms", work, IDENTITY_GUARD)
    t0 = time.perf_counter()
    cells = _cells(len(row.keys), order)
    totals = list(map(sum, cells))
    columns = tuple(zip(*cells))  # column j: exponent j of every cell
    logs = _log_sums(order, sums)
    indicator = which == "B"
    failures = []
    for i, rhs in zip(i_list, logs):
        for cell, total, lhs in zip(cells, totals, row.dims(*columns, i)):
            rv = rhs.get(cell, 0)
            if indicator:  # B: three routes, the series, the dimension and [total | i]
                divides = int(i % total == 0)
                if not rv == total * lhs == total * divides:
                    failures.append({"identity": which, "i": i, "degree": total, "series": _frac(rv, total),
                                     "dims": str(lhs), "indicator": str(divides)})
            elif total * lhs != rv:
                failures.append({"identity": which, "i": i, **dict(zip(row.keys, cell)),
                                 "lhs": str(lhs), "rhs": _frac(rv, total)})
    if which == "A":
        for k in totals:
            rv = logs[-1].get((k,), 0)
            if k * (k % 2) != rv:
                failures.append({"identity": "A", "i": 0, "form": "z/(1-z^2)", "degree": k,
                                 "lhs": str(k % 2), "rhs": _frac(rv, k)})
    elapsed = time.perf_counter() - t0
    return CheckReport(f"identity-{which}", {"order": order, "i_max": i_max}, failures, elapsed)
