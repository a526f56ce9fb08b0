"""Finite abelian groups: parsing, element arithmetic, characters, enumeration."""

import math
import time

import pytest
from hypothesis import given, strategies as st

from abelinv import (
    FiniteAbelianGroup,
    GuardExceeded,
    abelian_groups_of_order,
    abelian_groups_up_to,
    build_table,
    parse_group,
    parse_order_profile,
    permutation_sign,
    subset_sum_zero_count,
    zero_sum_subset_count,
)
from abelinv.groups import element_sum_counts
from abelinv.polynom import unpack_zeta_integers, zeta_packing

SMALL_GROUPS = [parse_group(s) for s in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "C2xC3", "C2xC2xC3")]


def test_parse_accepts_case_and_whitespace():
    assert parse_group("c6").factors == (6,)
    assert parse_group(" C2 x c3 ").factors == (2, 3)
    assert parse_group("C2XC2").factors == (2, 2)


@pytest.mark.parametrize("bad", ["", "C0", "C-3", "D4", "C3y", "2x3", "CxC2", "C2x", "C2 C3"])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


def test_spec_string_round_trips():
    for g in SMALL_GROUPS:
        assert parse_group(g.spec_string).factors == g.factors


def test_order_exponent_rank():
    g = parse_group("C2xC6")
    assert g.order == 12
    assert g.exponent == 6
    assert g.rank == 2
    assert {"order": 12, "exponent": 6}.items() <= vars(g).items()  # computed once, then cached
    assert g == parse_group("C2xC6") and hash(g) == hash(parse_group("C2xC6"))
    assert not g.is_cyclic_presentation
    assert parse_group("C12").is_cyclic_presentation


def test_rejects_trivial_factor_list():
    with pytest.raises(ValueError):
        FiniteAbelianGroup(())


def test_element_index_round_trip():
    for g in SMALL_GROUPS:
        for idx, a in enumerate(g.elements()):
            assert g.index(a) == idx
            assert g.element(idx) == a
        assert g.element(0) == g.zero()


def test_element_arithmetic():
    g = parse_group("C2xC3")
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 2)) == (1, 1)
    assert g.sub((0, 1), (1, 2)) == (1, 2)
    assert g.scale((1, 2), 3) == (1, 0)
    assert g.scale((1, 2), -1) == g.neg((1, 2))
    with pytest.raises(ValueError):
        g.add((1, 3), (0, 0))


def test_element_order_matches_iteration():
    for g in SMALL_GROUPS:
        for a in g.elements():
            k, cur = 1, a
            while cur != g.zero():
                cur = g.add(cur, a)
                k += 1
            assert g.element_order(a) == k


def test_order_profile_frozen_and_consistent():
    assert parse_group("C6").order_profile() == {1: 1, 2: 1, 3: 2, 6: 2}
    assert parse_group("C2xC2").order_profile() == {1: 1, 2: 3}
    assert parse_group("C2xC3").order_profile() == parse_group("C6").order_profile()
    for g in SMALL_GROUPS:
        prof = g.order_profile()
        assert sum(prof.values()) == g.order
        assert all(g.exponent % d == 0 for d in prof)


def test_characters_are_additive():
    for g in SMALL_GROUPS:
        e = g.exponent
        chars = g.characters()
        assert len(chars) == g.order
        chi = chars[-1]
        for a in g.elements():
            for b in g.elements():
                lhs = g.char_exponent(chi, g.add(a, b))
                rhs = (g.char_exponent(chi, a) + g.char_exponent(chi, b)) % e
                assert lhs == rhs


def test_character_orthogonality():
    # sum over the group of any nontrivial character vanishes exactly
    for g in SMALL_GROUPS:
        if g.order > 12:
            continue
        bits, modulus = zeta_packing(g.exponent, g.order)  # zeta_e -> 2^bits
        for chi in g.characters():
            acc = sum(1 << g.char_exponent(chi, a) * bits for a in g.elements())
            want = g.order if chi == g.zero() else 0
            assert unpack_zeta_integers([acc], bits, modulus) == [want]


def test_dual_sum_is_pointwise_product():
    g = parse_group("C2xC4")
    e = g.exponent
    for chi1 in g.characters():
        for chi2 in g.characters():
            prod = g.add(chi1, chi2)  # characters share the element indexing
            for a in g.elements():
                lhs = g.char_exponent(prod, a)
                rhs = (g.char_exponent(chi1, a) + g.char_exponent(chi2, a)) % e
                assert lhs == rhs


def test_inversion_permutation_and_sign():
    expected = {"C2": 1, "C3": -1, "C4": -1, "C2xC2": 1, "C5": 1, "C6": 1}
    for spec, sign in expected.items():
        g = parse_group(spec)
        perm = g.inversion_permutation()
        assert sorted(perm) == list(range(g.order))
        assert all(perm[perm[i]] == i for i in range(g.order))
        assert g.inversion_sign() == sign


def test_permutation_sign_basics():
    assert permutation_sign([0, 1, 2]) == 1
    assert permutation_sign([1, 0, 2]) == -1
    assert permutation_sign([1, 2, 0]) == 1
    for bad in ([0, 0, 1], [1], [0, 2], [2, 0, 1, 1], [-1, 0], [0, 1, 3]):
        with pytest.raises(ValueError):
            permutation_sign(bad)


TABLE_GROUPS = abelian_groups_up_to(12) + [parse_group("C2xC6"), parse_group("C6xC2")]


@pytest.mark.parametrize("g", TABLE_GROUPS, ids=str)
def test_element_tables_match_tuple_arithmetic(g):
    els = g.elements()
    for a, x in enumerate(els):
        assert g.neg_table[a] == g.index(g.neg(x))
        for b, y in enumerate(els):
            assert g.add_table[a][b] == g.index(g.add(x, y))
    assert build_table(g, "plain").grid == g.add_table


def test_neg_table_from_residues_matches_the_addition_table():
    # each negative is found where its row of the addition table holds 0, for every group of order <= 16
    for g in abelian_groups_up_to(16):
        assert g.neg_table == tuple(row.index(0) for row in g.add_table), g
    big = parse_group("C1500")
    t0 = time.perf_counter()
    assert big.neg_table[1] == 1499
    assert time.perf_counter() - t0 < 0.1
    assert "add_table" not in vars(big)


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_permutation_sign_is_multiplicative(p, q):
    composed = [p[q[i]] for i in range(6)]
    assert permutation_sign(composed) == permutation_sign(p) * permutation_sign(q)


def test_group_enumeration_counts():
    # one group per multiset of prime-power factors
    expected_counts = {1: 1, 2: 1, 4: 2, 8: 3, 12: 2, 16: 5, 24: 3, 36: 4}
    for order, count in expected_counts.items():
        groups = abelian_groups_of_order(order)
        assert len(groups) == count
        assert all(g.order == order for g in groups)
        profiles = {tuple(sorted(g.order_profile().items())) for g in groups}
        assert len(profiles) == count  # pairwise non-isomorphic


def test_group_enumeration_up_to_bound():
    groups = abelian_groups_up_to(12)
    assert len(groups) == sum(len(abelian_groups_of_order(n)) for n in range(1, 13))
    assert all(g.order <= 12 for g in groups)


def test_subset_sum_zero_counts_small():
    expected = {"C1": 2, "C2": 2, "C3": 4, "C4": 4, "C2xC2": 4, "C5": 8, "C6": 12}
    for spec, count in expected.items():
        assert subset_sum_zero_count(parse_group(spec)) == count


def test_subset_count_matches_direct_enumeration():
    # independent recount with itertools, no Gray-code walk
    import itertools

    from functools import reduce

    for spec in ("C1", "C2", "C3", "C4", "C2xC2", "C6", "C2xC3", "C7", "C3xC3", "C12"):
        g = parse_group(spec)
        zero = g.zero()
        count = 0
        for r in range(g.order + 1):
            for subset in itertools.combinations(g.elements(), r):
                if reduce(g.add, subset, zero) == zero:
                    count += 1
        assert subset_sum_zero_count(g) == count


def test_subset_count_guard():
    # the counting DP is polynomial: order 25 runs, and order 216 exceeds its work bound
    c25 = parse_group("C25")
    assert subset_sum_zero_count(c25) == zero_sum_subset_count(c25)
    with pytest.raises(GuardExceeded):
        subset_sum_zero_count(parse_group("C216"))
    # the bound counts building the addition table, so degree 0 is refused too
    big = parse_group("C100000")
    with pytest.raises(GuardExceeded):
        element_sum_counts(big, 0, True)
    assert "add_table" not in big.__dict__


def test_parse_order_profile():
    assert parse_order_profile({"1": 1, "2": 3}) == {1: 1, 2: 3}
    assert parse_order_profile({3: 2, 1: 1}) == {1: 1, 3: 2}
    with pytest.raises(ValueError):
        parse_order_profile({})
    with pytest.raises(ValueError):
        parse_order_profile({"0": 2})
    with pytest.raises(ValueError):
        parse_order_profile({"1": 1, "2": -1})
    assert parse_order_profile({"1": 1, "2": 3, "3": 2}) == {1: 1, 2: 3, 3: 2}  # S3


@pytest.mark.parametrize("bad", [
    [1, 2],  # not a JSON object
    {"1": 1.5, "2": 1},  # non-int count
    {"1": True, "2": 1},  # bool count
    {"1": 1, "2": "3"},  # string count
    {1.0: 1, 2: 1},  # non-int key
    {"2": 2},  # no neutral element
    {"1": 2, "2": 2},  # two neutral elements
    {"1": 1, "3": 1},  # 3 does not divide 2
])
def test_parse_order_profile_rejects(bad):
    with pytest.raises(ValueError):
        parse_order_profile(bad)


def test_profiles_of_groups_are_consistent():
    for g in SMALL_GROUPS:
        prof = g.order_profile()
        # element orders all divide the exponent, and lcm of orders is the exponent
        assert math.lcm(*prof) == g.exponent
