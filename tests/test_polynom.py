"""Cyclotomic polynomials, packed sums of roots of unity and sparse integer polynomials."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from abelinv import IntPolynomial, apply_group_action, cyclotomic_polynomial, parse_group
from abelinv.numtheory import euler_phi
from abelinv.polynom import unpack_zeta_integers, zeta_packing


def test_cyclotomic_polynomial_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_phi():
    for e in range(1, 40):
        assert len(cyclotomic_polynomial(e)) - 1 == euler_phi(e)


def test_cyclotomic_product_over_divisors():
    # prod over d | n of the d-th polynomial gives x^n - 1
    from abelinv import divisors

    for n in range(1, 31):
        acc = [1]
        for d in divisors(n):
            phi_d = cyclotomic_polynomial(d)
            out = [0] * (len(acc) + len(phi_d) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            acc = out
        expected = [-1] + [0] * (n - 1) + [1]
        assert acc == expected


def test_cyclotomic_105_has_coefficient_minus_two():
    assert cyclotomic_polynomial(105)[7] == -2


# Sums of e-th roots of unity as packed ints: zeta^t is 1 << t*bits, a product
# is an int product, and both are taken mod Phi_e(2^bits).


def test_zeta_relations():
    for e, t, value in ((4, 2, -1), (6, 3, -1)):
        bits, modulus = zeta_packing(e, 1)
        assert unpack_zeta_integers([1 << t * bits], bits, modulus) == [value]
    for e in (2, 3, 4, 5, 6, 8, 12):
        bits, modulus = zeta_packing(e, e)
        full = sum(1 << t * bits for t in range(e))
        assert unpack_zeta_integers([full, 1 << e * bits], bits, modulus) == [0, 1]


def test_zeta_power_is_multiplicative():
    # one root on each side: equal residues mean equal power-basis coordinates
    for e in (5, 8, 12):
        bits, modulus = zeta_packing(e, 1)
        for s in range(e):
            for t in range(e):
                lhs = (1 << s * bits) * (1 << t * bits) % modulus
                assert lhs == (1 << (s + t) % e * bits) % modulus


def test_golden_section_relation_in_fifth_roots():
    # s = zeta + zeta^4 satisfies s^2 + s - 1 = 0; the left side has 4 + 2 + 1 terms
    bits, modulus = zeta_packing(5, 7)
    s = (1 << bits) + (1 << 4 * bits)
    val = (s * s + s - 1) % modulus
    assert unpack_zeta_integers([val], bits, modulus) == [0]


def test_integer_detection():
    bits, modulus = zeta_packing(7, 3)
    assert unpack_zeta_integers([3], bits, modulus) == [3]
    with pytest.raises(ValueError):  # a lone zeta_7^2
        unpack_zeta_integers([1 << 2 * bits], bits, modulus)


def test_polynomial_constructors_and_queries():
    p = IntPolynomial.variable(3, 0)
    q = IntPolynomial.constant(3, 2)
    assert (p + q).coefficient([1, 0, 0]) == 1
    assert (p + q).coefficient([0, 0, 0]) == 2
    assert (p + q).coefficient([0, 1, 0]) == 0
    assert IntPolynomial.zero(2).term_count() == 0
    cube = p * p * p
    assert cube.support() == [(3, 0, 0)]
    assert (cube * 2).coefficient_sum() == 2


def test_polynomial_zero_coefficients_dropped():
    p = IntPolynomial(2, {(1, 0): 1, (0, 1): 0})
    assert p.term_count() == 1
    assert (p - p).term_count() == 0


small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-4, 4),
    max_size=5,
).map(lambda d: IntPolynomial(2, d))


@given(small_poly, small_poly, small_poly)
@settings(max_examples=60)
def test_polynomial_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == IntPolynomial.zero(2)


@given(small_poly, small_poly)
def test_coefficient_sum_is_homomorphism(p, q):
    assert (p * q).coefficient_sum() == p.coefficient_sum() * q.coefficient_sum()
    assert (p + q).coefficient_sum() == p.coefficient_sum() + q.coefficient_sum()


def test_str_descending_lexicographic():
    x0, x1, x2 = (IntPolynomial.variable(3, i) for i in range(3))
    p = x0 * x0 * x0 + x1 * x1 * x1 + x2 * x2 * x2 + 3 * (x0 * x1 * x2)
    assert str(p) == "x0^3 + 3*x0*x1*x2 + x1^3 + x2^3"
    assert str(IntPolynomial.zero(3)) == "0"
    assert str(x0 - x1) == "x0 - x1"


def test_json_round_trip_ascending_order():
    x0, x1 = (IntPolynomial.variable(2, i) for i in range(2))
    p = 2 * (x0 * x0) - x1 + IntPolynomial.constant(2, 7)
    obj = p.to_json_obj()
    exps = [tuple(t["exponents"]) for t in obj]
    assert exps == sorted(exps)
    back = IntPolynomial(2, {tuple(t["exponents"]): int(t["coeff"]) for t in obj})
    assert back == p


def test_permute_variables():
    x0, x1, x2 = (IntPolynomial.variable(3, i) for i in range(3))
    p = x0 * x0 * x1
    swapped = p.permute_variables([1, 0, 2])  # x0 <-> x1
    assert swapped == x1 * x1 * x0
    assert p.permute_variables([0, 1, 2]) == p
    with pytest.raises(ValueError):
        p.permute_variables([0, 0, 1])


def _scattered(p, perm):
    """p.permute_variables(perm).terms, one exponent at a time."""
    out = {}
    for exp, c in p.terms.items():
        new = [0] * p.nvars
        for i, k in enumerate(exp):
            new[perm[i]] = k
        out[tuple(new)] = c
    return out


def test_permute_variables_matches_a_naive_scatter():
    rng = random.Random(17)
    for nvars in range(1, 7):
        for _ in range(40):
            terms = {tuple(rng.randrange(4) for _ in range(nvars)): rng.randint(-5, 5)
                     for _ in range(rng.randrange(12))}
            p = IntPolynomial(nvars, terms)
            perm = rng.sample(range(nvars), nvars)
            assert p.permute_variables(perm).terms == _scattered(p, perm)
            assert p.permute_variables(tuple(perm)).terms == _scattered(p, perm)
        for bad in (list(range(1, nvars + 1)), list(range(nvars + 1)), [0] * nvars if nvars > 1 else []):
            with pytest.raises(ValueError, match="not a permutation of the variables"):
                p.permute_variables(bad)


@pytest.mark.parametrize("bad, c", [
    ((1, 0), 1),         # too short
    ((0, 1, 0, 2), 3),   # too long
    ((1, -1, 0), 2),     # negative exponent
    ((0, 2, -1), 0),     # negative exponent, zero coefficient
    ((0, 0), 0),         # wrong length, zero coefficient
    ((), 0),
])
def test_constructor_rejects_bad_exponent_vectors(bad, c):
    good = {(1, 0, 0): 2, (0, 0, 3): -1}
    with pytest.raises(ValueError, match=f"^bad exponent vector {re.escape(repr(bad))} for 3 variables$"):
        IntPolynomial(3, {**good, bad: c})
    with pytest.raises(ValueError, match=f"^bad exponent vector {re.escape(repr(bad))} for 3 variables$"):
        IntPolynomial(3, {bad: c, **good})


def test_constructor_names_the_first_bad_exponent_vector():
    with pytest.raises(ValueError, match=r"^bad exponent vector \(2, -1, 0\) for 3 variables$"):
        IntPolynomial(3, {(0, 1, 2): 1, (2, -1, 0): 0, (1,): 4, (0, 0, -3): 1})


def test_group_translation_action():
    g = parse_group("C2")
    x0, x1 = (IntPolynomial.variable(2, i) for i in range(2))
    p = x0 * x0 * x1
    moved = apply_group_action(g, (1,), p)
    assert moved == x1 * x1 * x0


def test_group_action_composes():
    g = parse_group("C2xC2")
    xs = [IntPolynomial.variable(4, i) for i in range(4)]
    p = xs[0] * xs[1] + 2 * (xs[2] * xs[3] * xs[3])
    for g1 in g.elements():
        for g2 in g.elements():
            once = apply_group_action(g, g2, apply_group_action(g, g1, p))
            both = apply_group_action(g, g.add(g1, g2), p)
            assert once == both
    assert apply_group_action(g, g.zero(), p) == p


def test_group_action_rejects_wrong_width():
    g = parse_group("C3")
    with pytest.raises(ValueError):
        apply_group_action(g, (1,), IntPolynomial.variable(2, 0))


def test_zeta_packing_recovers_integers():
    # zeta_e -> 2^B packs a sum of roots of unity into one int
    bits, modulus = zeta_packing(3, 3)
    assert modulus == (1 << 2 * bits) + (1 << bits) + 1  # Phi_3(2^B)
    cube = 1 << 3 * bits  # zeta_3^3 = 1
    full = 1 + (1 << bits) + (1 << 2 * bits)  # 1 + zeta_3 + zeta_3^2 = 0
    assert unpack_zeta_integers([cube, full, 3], bits, modulus) == [1, 0, 3]
    with pytest.raises(ValueError):  # a lone zeta_3
        unpack_zeta_integers([1 << bits], bits, modulus)
    bits4, modulus4 = zeta_packing(4, 2)
    with pytest.raises(ValueError):  # 1 + zeta_4
        unpack_zeta_integers([1 + (1 << bits4)], bits4, modulus4)
