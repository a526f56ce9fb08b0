"""Exact elementary number theory: divisors, totient, Moebius, Ramanujan sums.

Everything here returns plain Python ints and is exact for arbitrary sizes,
though in practice arguments stay small (hundreds at most).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors: need n >= 1, got {n}")
    return list(_divisors(n))


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division, primes ascending."""
    if n < 1:
        raise ValueError(f"prime_factorization: need n >= 1, got {n}")
    return list(_factorization(n))


@lru_cache(maxsize=None)
def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    ds = [1]
    for p, k in _factorization(n):
        ds += [d * p**e for e in range(1, k + 1) for d in ds]
    return tuple(sorted(ds))


def euler_phi(n: int) -> int:
    """Count of k in 1..n with gcd(k, n) = 1."""
    if n < 1:
        raise ValueError(f"euler_phi: need n >= 1, got {n}")
    phi = n
    for p, _ in _factorization(n):
        phi -= phi // p
    return phi


def moebius(n: int) -> int:
    """Moebius function: 0 on square divisors, else (-1)^(number of primes)."""
    if n < 1:
        raise ValueError(f"moebius: need n >= 1, got {n}")
    fac = _factorization(n)
    if any(k > 1 for _, k in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def ramanujan_sum(n: int, i: int) -> int:
    """Sum of i-th powers of the primitive n-th roots of unity.

    c_n(i) depends on i only through g = gcd(n, i mod n), and the value is
    memoized on (n, g).  The first evaluation of each (n, g) runs two
    classical closed forms which must agree:

        c_n(i) = sum_{d | g} moebius(n/d) * d
        c_n(i) = euler_phi(n) * moebius(n/g) / euler_phi(n/g)

    Disagreement would be an implementation bug, hence AssertionError.
    Special values: c_n(0) = euler_phi(n), c_n(1) = moebius(n), c_1(i) = 1.
    """
    if n < 1:
        raise ValueError(f"ramanujan_sum: need n >= 1, got {n}")
    return _ramanujan(n, math.gcd(n, i % n))  # i = 0 gives g = n


@lru_cache(maxsize=None)
def _ramanujan(n: int, g: int) -> int:
    s1 = sum(moebius(n // d) * d for d in _divisors(g))
    q = n // g
    phi_q = euler_phi(q)
    num = euler_phi(n) * moebius(q)
    if num % phi_q:
        raise AssertionError(f"ramanujan_sum({n}, {g}): phi({q}) does not divide phi({n})*mu({q})")
    s2 = num // phi_q
    if s1 != s2:
        raise AssertionError(f"ramanujan_sum({n}, {g}): closed forms disagree ({s1} vs {s2})")
    return s1


def multinomial(parts: Sequence[int]) -> int:
    """(sum parts)! / prod(part!) for a non-empty list of non-negative ints."""
    parts = list(parts)
    if not parts:
        raise ValueError("multinomial: empty part list")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial: negative part in {parts}")
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out
