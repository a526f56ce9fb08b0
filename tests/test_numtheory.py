"""Arithmetic building blocks: divisors, phi, mu, Ramanujan sums, multinomials."""

from math import comb, gcd, prod

import pytest
from hypothesis import given, strategies as st

from abelinv import divisors, euler_phi, moebius, multinomial, ramanujan_sum
from abelinv.errors import GuardExceeded
from abelinv.numtheory import FACTOR_GUARD, prime_factorization
from abelinv.polynom import unpack_zeta_integers, zeta_packing


def test_divisors_ascending_and_complete():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    for n in range(1, 120):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_prime_factorization_reconstructs():
    assert prime_factorization(1) == []
    assert prime_factorization(360) == [(2, 3), (3, 2), (5, 1)]
    for n in range(2, 300):
        assert prod(p**k for p, k in prime_factorization(n)) == n


def test_prime_factorization_guard():
    # every n below 10^12 factors, and so does n once its cofactor drops below 10^12
    assert prime_factorization(999999999989) == [(999999999989, 1)]
    assert prime_factorization(2**80 * 999999999989) == [(2, 80), (999999999989, 1)]
    # the last trial divisor is 2 * FACTOR_GUARD - 1 = 1999999; 1999993 and 2000003 are the primes around it
    assert prime_factorization(1999993**2) == [(1999993, 2)]
    with pytest.raises(GuardExceeded):
        prime_factorization(2000003**2)
    with pytest.raises(GuardExceeded) as info:
        prime_factorization(2**61 - 1)
    assert info.value.what == "trial divisions"
    assert info.value.limit == FACTOR_GUARD
    with pytest.raises(GuardExceeded):
        divisors(3 * (2**61 - 1))


def test_euler_phi_frozen_values():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 9: 6, 10: 4, 12: 4, 30: 8, 97: 96}
    for n, value in expected.items():
        assert euler_phi(n) == value


def test_phi_divisor_sum_is_n():
    for n in range(1, 201):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_moebius_frozen_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 12: 0, 30: -1, 210: 1}
    for n, value in expected.items():
        assert moebius(n) == value


def test_moebius_divisor_sum_is_indicator():
    for n in range(1, 201):
        assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_ramanujan_special_columns():
    for n in range(1, 60):
        assert ramanujan_sum(n, 0) == euler_phi(n)
        assert ramanujan_sum(n, 1) == moebius(n)


def test_ramanujan_frozen_values():
    # row n=6: phi(6)=2 at i=0, then 1, -1, -2, -1, 1
    assert [ramanujan_sum(6, i) for i in range(6)] == [2, 1, -1, -2, -1, 1]
    assert [ramanujan_sum(4, i) for i in range(4)] == [2, 0, -2, 0]
    assert [ramanujan_sum(5, i) for i in range(5)] == [4, -1, -1, -1, -1]
    assert ramanujan_sum(9, 3) == -3
    assert ramanujan_sum(12, 6) == -4


def test_ramanujan_reflection_and_periodicity():
    for n in range(1, 40):
        for i in range(n):
            assert ramanujan_sum(n, i) == ramanujan_sum(n, n - i)
            assert ramanujan_sum(n, i + 3 * n) == ramanujan_sum(n, i)


def test_ramanujan_divisor_sum_is_scaled_indicator():
    # sum over d | m of c_d(i) collapses to m when m | i, else 0
    for m in range(1, 41):
        for i in range(0, 2 * m + 1):
            total = sum(ramanujan_sum(d, i) for d in divisors(m))
            assert total == (m if i % m == 0 else 0)


def test_ramanujan_matches_root_of_unity_sum():
    # c_n(i) as an exact sum of primitive n-th roots, packed by zeta_n -> 2^bits;
    # unpacking raises ValueError unless the sum is a rational integer
    for n in range(1, 61):
        bits, modulus = zeta_packing(n, n)
        for i in (0, 1, 2, 3, n // 2, n - 1):
            acc = sum(1 << (k * i) % n * bits for k in range(n) if gcd(k, n) == 1)
            assert unpack_zeta_integers([acc], bits, modulus) == [ramanujan_sum(n, i)]


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 100))
def test_ramanujan_multiplicative_in_coprime_moduli(m, n, i):
    if gcd(m, n) != 1:
        return
    assert ramanujan_sum(m * n, i) == ramanujan_sum(m, i) * ramanujan_sum(n, i)


def test_ramanujan_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        ramanujan_sum(0, 1)
    for bad in (divisors, prime_factorization, euler_phi, moebius):
        with pytest.raises(ValueError):
            bad(0)


def test_cached_lists_are_fresh_copies():
    divisors(12).append(5)
    divisors(12)[0] = 7
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    prime_factorization(360).clear()
    assert prime_factorization(360) == [(2, 3), (3, 2), (5, 1)]


def test_ramanujan_depends_on_the_gcd_only():
    for n in range(1, 50):
        by_gcd = {}
        for i in range(n):
            value = ramanujan_sum(n, i)
            assert ramanujan_sum(n, i + 7 * n) == ramanujan_sum(n, -i) == value
            assert by_gcd.setdefault(gcd(n, i), value) == value


def test_multinomial_values():
    assert multinomial([5]) == 1
    assert multinomial([2, 2]) == 6
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([3, 2, 1]) == 60
    assert multinomial([0, 0, 4]) == 1


def test_multinomial_as_two_binomials():
    # the product sym_ext_dim_by_parts uses for multinom(p+q+m; m, p, q)
    for p in range(8):
        for q in range(8):
            for m in range(8):
                assert comb(p + q + m, m) * comb(p + q, p) == multinomial([m, p, q])


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_multinomial_matches_binomial_chain(parts):
    total, acc = 0, 1
    for part in parts:
        total += part
        acc *= comb(total, part)
    assert multinomial(parts) == acc
