"""Truncated power series: the integer result containers, and the table of E log(1 + u)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abelinv import TruncatedSeries1, TruncatedSeries2
from abelinv.molien import _cells, _log_table


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


# ------------------------------------------------- the table of E log(1 + u)


def fraction_log1p(u, cutoff):
    """log(1 + u) = sum_k (-1)^(k+1) u^k / k to total degree cutoff, with Fraction coefficients."""
    acc = {}
    power, k = dict(u), 1
    while power:
        for exp, c in power.items():
            acc[exp] = acc.get(exp, 0) + Fraction((-1) ** (k + 1) * c, k)
        product = {}  # power * u, truncated at total degree cutoff
        for e1, c1 in power.items():
            for e2, c2 in u.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                if sum(key) <= cutoff:
                    product[key] = product.get(key, 0) + c1 * c2
        power, k = {exp: c for exp, c in product.items() if c}, k + 1
    return {exp: c for exp, c in acc.items() if c}


def units(signs):
    """u = sum_j s_j x_j as a dict from exponent tuples to coefficients."""
    return {tuple(int(j == k) for j in range(len(signs))): s for k, s in enumerate(signs)}


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=3).map(tuple), st.integers(1, 8))
@settings(max_examples=60)
def test_scaled_log_is_integral_and_degree_times_log(signs, top):
    got = _log_table(signs, top)
    assert all(type(c) is int for c in got.values())
    want = {exp: sum(exp) * c for exp, c in fraction_log1p(units(signs), top).items()}
    assert got == want
    assert list(got) == _cells(len(signs), top)


def test_log_frozen_expansion():
    # log(1+t) = t - t^2/2 + t^3/3 - ...; k times the t^k coefficient is (-1)^(k+1)
    assert _log_table((1,), 5) == {(1,): 1, (2,): -1, (3,): 1, (4,): -1, (5,): 1}
    # log(1 - x - y) = -sum_k (x + y)^k / k: n + m times the x^n y^m coefficient is -C(n+m, n)
    got = _log_table((-1, -1), 6)
    assert got == {(n, k - n): -math.comb(k, n) for k in range(1, 7) for n in range(k + 1)}
    # log(1 + x - y) = sum_k (-1)^(k+1) (x - y)^k / k: the x^n y^m coefficient times n + m
    # is (-1)^(n+m+1) C(n+m, n) (-1)^m = (-1)^(n+1) C(n+m, n)
    got = _log_table((1, -1), 6)
    assert got == {(n, k - n): (-1) ** (n + 1) * math.comb(k, n) for k in range(1, 7) for n in range(k + 1)}
    assert _log_table((-1, -1, 1), 1) == {(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): 1}
