"""Truncated power series: integer result containers and the degree-scaled sparse log."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abelinv import TruncatedSeries1, TruncatedSeries2
from abelinv.series import sparse_add_scaled, sparse_mul, sparse_scaled_log1p

ORDER = 12

coeff = st.integers(-6, 6)


def sparse(nvars, with_constant=True):
    """Sparse series in nvars variables of total degree <= ORDER."""
    exps = st.lists(st.integers(0, ORDER), min_size=nvars, max_size=nvars).map(tuple)
    exps = exps.filter(lambda e: sum(e) <= ORDER and (with_constant or any(e)))
    return st.dictionaries(exps, coeff.filter(bool), max_size=6)


def add(*terms):
    """sum of (factor, series) pairs."""
    acc = {}
    for factor, s in terms:
        sparse_add_scaled(acc, s, factor)
    return acc


def test_padding_and_accessors():
    s = TruncatedSeries1(4, [1, 2])
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.coefficient(1) == 2
    assert s.coefficient(4) == 0
    with pytest.raises(ValueError):
        s.coefficient(5)
    with pytest.raises(ValueError):
        TruncatedSeries1(1, [1, 2, 3])
    with pytest.raises(ValueError):
        TruncatedSeries1(-1)


def test_constructors():
    assert TruncatedSeries1.one(3).coeffs == (1, 0, 0, 0)
    assert TruncatedSeries2.one(1, 2).grid == ((1, 0, 0), (0, 0, 0))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries1(3, [1]) + TruncatedSeries1(4, [1])
    with pytest.raises(ValueError):
        TruncatedSeries2(1, 1) + TruncatedSeries2(1, 2)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
def test_non_int_coefficients_rejected(bad):
    with pytest.raises(TypeError):
        TruncatedSeries1(2, [1, bad])
    with pytest.raises(TypeError):
        TruncatedSeries2(1, 1, [[1], [0, bad]])


def test_str_rendering():
    assert str(TruncatedSeries1(3, [1, 1, 2, 4])) == "1 + t + 2*t^2 + 4*t^3"
    assert str(TruncatedSeries1(2)) == "0"
    assert str(TruncatedSeries1(2, [0, 1, -1])) == "t - 1*t^2"


def test_json_payload():
    s = TruncatedSeries1(2, [1, 3, 0])
    assert s.to_json_obj() == {"order": 2, "coeffs": ["1", "3", "0"]}


def test_bivariate_padding_and_addition():
    s2 = TruncatedSeries2(2, 1, [[1, 2], [1]])
    assert s2.grid == ((1, 2), (1, 0), (0, 0))
    assert s2.coefficient(0, 1) == 2
    assert s2.coefficient(2, 1) == 0
    twice = s2 + s2
    assert twice.coefficient(0, 1) == 4
    assert twice == TruncatedSeries2(2, 1, [[2, 4], [2, 0]])
    with pytest.raises(ValueError):
        s2.coefficient(3, 0)
    with pytest.raises(ValueError):
        TruncatedSeries2(0, 1, [[1], [1]])
    with pytest.raises(ValueError):
        TruncatedSeries2(1, 0, [[1, 1]])


def test_bivariate_json_payload():
    obj = TruncatedSeries2(1, 1, [[1, 1], [1, 1]]).to_json_obj()
    assert obj["s_order"] == 1 and obj["t_order"] == 1
    assert obj["coeffs"] == [["1", "1"], ["1", "1"]]


# ------------------------------------------------- sparse series arithmetic


@given(sparse(2), sparse(2))
def test_mul_commutes(a, b):
    assert sparse_mul(a, b, ORDER) == sparse_mul(b, a, ORDER)


@given(sparse(2), sparse(2), sparse(2))
@settings(max_examples=50)
def test_mul_associates_and_distributes(a, b, c):
    assert sparse_mul(sparse_mul(a, b, ORDER), c, ORDER) == sparse_mul(a, sparse_mul(b, c, ORDER), ORDER)
    assert sparse_mul(a, add((1, b), (1, c)), ORDER) == \
        add((1, sparse_mul(a, b, ORDER)), (1, sparse_mul(a, c, ORDER)))


@given(sparse(2))
def test_additive_inverse(a):
    assert add((1, a), (-1, a)) == {}
    assert add((3, a)) == {e: 3 * c for e, c in a.items()}


def fraction_log1p(u, cutoff):
    """log(1 + u) = sum_k (-1)^(k+1) u^k / k to total degree cutoff, with Fraction coefficients."""
    acc = {}
    power, k = dict(u), 1
    while power:
        for exp, c in power.items():
            acc[exp] = acc.get(exp, 0) + Fraction((-1) ** (k + 1) * c, k)
        power, k = sparse_mul(power, u, cutoff), k + 1
    return {exp: c for exp, c in acc.items() if c}


def inhomogeneous(nvars):
    """Series with no constant term whose terms have at least two distinct total degrees."""
    return sparse(nvars, with_constant=False).filter(lambda u: len({sum(e) for e in u}) >= 2)


@given(st.one_of(inhomogeneous(1), inhomogeneous(2)))
@settings(max_examples=60)
def test_scaled_log_is_integral_and_degree_times_log(u):
    got = sparse_scaled_log1p(u, ORDER)
    assert all(type(c) is int for c in got.values())
    want = {exp: sum(exp) * c for exp, c in fraction_log1p(u, ORDER).items()}
    assert got == want


@given(sparse(1, with_constant=False), sparse(1, with_constant=False))
@settings(max_examples=50)
def test_log_turns_products_into_sums(u, v):
    prod = add((1, u), (1, v), (1, sparse_mul(u, v, ORDER)))  # (1 + u)(1 + v) - 1
    assert sparse_scaled_log1p(prod, ORDER) == \
        add((1, sparse_scaled_log1p(u, ORDER)), (1, sparse_scaled_log1p(v, ORDER)))


@given(sparse(2, with_constant=False), sparse(2, with_constant=False))
@settings(max_examples=25)
def test_log_turns_products_into_sums_two_variables(u, v):
    prod = add((1, u), (1, v), (1, sparse_mul(u, v, ORDER)))
    assert sparse_scaled_log1p(prod, ORDER) == \
        add((1, sparse_scaled_log1p(u, ORDER)), (1, sparse_scaled_log1p(v, ORDER)))


def test_log_requires_zero_constant_term():
    with pytest.raises(ValueError):
        sparse_scaled_log1p({(0,): 1}, 4)
    with pytest.raises(ValueError):
        sparse_scaled_log1p({(0, 0): 1, (1, 0): 1}, 4)


def test_log_frozen_expansion():
    # log(1+t) = t - t^2/2 + t^3/3 - ...; k times the t^k coefficient is (-1)^(k+1)
    assert sparse_scaled_log1p({(1,): 1}, 5) == {(1,): 1, (2,): -1, (3,): 1, (4,): -1, (5,): 1}
    # log(1 - x - y) = -sum_k (x + y)^k / k: n + m times the x^n y^m coefficient is -C(n+m, n)
    got = sparse_scaled_log1p({(1, 0): -1, (0, 1): -1}, 6)
    assert got == {(n, k - n): -math.comb(k, n) for k in range(1, 7) for n in range(k + 1)}
    assert sparse_scaled_log1p({(3,): 1, (7,): 2}, 2) == {}
