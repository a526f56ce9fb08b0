"""Isotypic dimensions and generating series, validated against enumeration."""

import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from abelinv import (
    FiniteAbelianGroup,
    GuardExceeded,
    TruncatedSeries1,
    TruncatedSeries2,
    bigraded_series,
    abelian_groups_up_to,
    character_order_sums,
    character_order_sums_oracle,
    check_identity,
    check_reciprocity,
    ext_dim,
    ext_dim_oracle,
    ext_series,
    ext_total_dim,
    ext_total_dim_invariants,
    parse_group,
    ramanujan_sum,
    subset_sum_zero_count,
    sym_dim,
    sym_dim_oracle,
    sym_ext_dim,
    sym_ext_dim_by_parts,
    sym_ext_dim_oracle,
    sym_series,
    zero_sum_subset_count,
)
from abelinv import molien
from abelinv.groups import element_sum_counts
from abelinv.numtheory import euler_phi


def test_sym_dim_frozen_values():
    assert sym_dim(3, 3, 0) == 4
    assert sym_dim(4, 4, 0) == 10
    assert sym_dim(6, 6, 0) == 80
    assert sym_dim(3, 4, 0) == 5
    assert sym_dim(3, 5, 0) == 7
    assert sym_dim(2, 2, 1) == 1


def test_sym_dim_degenerate_row():
    # n = 0 collapses to the divisibility indicator
    assert sym_dim(0, 4, 8) == 1
    assert sym_dim(0, 4, 6) == 0
    assert sym_dim(5, 0, 0) == 1
    assert sym_dim(5, 0, 3) == 0
    with pytest.raises(ValueError):
        sym_dim(0, 0, 0)
    with pytest.raises(ValueError):
        sym_dim(-1, 2, 0)


def test_sym_dim_matches_oracle():
    for n in range(1, 7):
        for m in range(0, 7):
            for i in range(n):
                assert sym_dim(n, m, i) == sym_dim_oracle(n, m, i), (n, m, i)


@given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 40), st.integers())
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_oracles_random_sizes(n, p, m, i):
    assert sym_dim(n, m, i) == sym_dim_oracle(n, m, i)
    assert ext_dim(n, m, i) == ext_dim_oracle(n, m, i)
    assert sym_ext_dim(n, p, m, i) == sym_ext_dim_oracle(n, p, m, i)


def test_sym_dim_swap_symmetry():
    for total in range(1, 13):
        for n in range(1, total):
            m = total - n
            for i in range(min(n, m) + 2):
                assert sym_dim(n, m, i) == sym_dim(m, n, i)


def test_sym_dim_row_sum_counts_all_monomials():
    for n in range(1, 8):
        for m in range(0, 8):
            assert sum(sym_dim(n, m, i) for i in range(n)) == math.comb(n + m - 1, m)


def test_ext_dim_frozen_values():
    assert ext_dim(5, 2, 0) == 2
    assert ext_dim(3, 3, 0) == 1
    assert ext_dim(4, 5, 0) == 0  # wedge above dimension
    assert ext_dim(1, 0, 0) == 1


def test_ext_dim_matches_oracle():
    for n in range(1, 9):
        for m in range(0, n + 1):
            for i in range(n):
                assert ext_dim(n, m, i) == ext_dim_oracle(n, m, i), (n, m, i)


def test_ext_dim_row_sum_counts_subsets():
    for n in range(1, 13):
        for m in range(0, n + 1):
            assert sum(ext_dim(n, m, i) for i in range(n)) == math.comb(n, m)


def test_ext_dim_complement_symmetry():
    # top wedge weight n(n-1)/2 twists the mirror m <-> n-m
    for n in range(1, 10):
        w = n * (n - 1) // 2
        for m in range(n + 1):
            for i in range(n):
                assert ext_dim(n, m, i) == ext_dim(n, n - m, (i + w) % n)


def test_dims_symmetric_in_weight_sign():
    for n in range(1, 9):
        for m in range(0, n + 1):
            for i in range(n):
                assert ext_dim(n, m, i) == ext_dim(n, m, (-i) % n)
                assert sym_dim(n, m, i) == sym_dim(n, m, (-i) % n)


def test_catalan_diagonal():
    # wedge slice at (2n-1, n-1) is weight-independent and Catalan
    for n in range(1, 9):
        catalan = math.comb(2 * (n - 1), n - 1) // n
        for i in range(2 * n - 1):
            assert ext_dim(2 * n - 1, n - 1, i) == catalan


def test_sym_ext_dim_frozen_and_bounds():
    assert sym_ext_dim(3, 1, 1, 0) == 3
    assert sym_ext_dim(3, 0, 0, 0) == 1
    assert sym_ext_dim(4, 2, 5, 0) == 0
    with pytest.raises(ValueError):
        sym_ext_dim(0, 1, 1, 0)
    with pytest.raises(ValueError):
        sym_ext_dim_by_parts(0, 0, 0, 0)


def test_sym_ext_dim_matches_oracle():
    for n in range(1, 6):
        for p in range(0, 6):
            for m in range(0, n + 1):
                for i in range(n):
                    assert sym_ext_dim(n, p, m, i) == sym_ext_dim_oracle(n, p, m, i), (n, p, m, i)


def test_sym_ext_by_parts_swap_symmetry():
    for p in range(0, 7):
        for q in range(0, 7):
            for m in range(0, 5):
                if p + q + m == 0:
                    continue
                for i in range(4):
                    assert sym_ext_dim_by_parts(p, q, m, i) == sym_ext_dim_by_parts(q, p, m, i)


def test_sym_ext_specializations():
    # m = 0 reduces to the symmetric dimension, p = 0 to the wedge dimension
    for n in range(1, 7):
        for k in range(0, 7):
            for i in range(n):
                assert sym_ext_dim(n, k, 0, i) == sym_dim(n, k, i)
        for m in range(0, n + 1):
            for i in range(n):
                assert sym_ext_dim(n, 0, m, i) == ext_dim(n, m, i)


def test_oracle_guard_refuses_huge_enumerations():
    # C(59, 30) monomials are counted, not listed; only the DP's own work is bounded
    for i in range(30):
        assert sym_dim_oracle(30, 30, i) == sym_dim(30, 30, i)
    with pytest.raises(GuardExceeded):
        sym_dim_oracle(1000, 1000, 0)


def test_oracles_match_closed_forms_at_query_sizes():
    for m in (0, 1, 2, 7, 60, 119, 120, 121, 240):
        for i in range(120):
            assert sym_dim_oracle(120, m, i) == sym_dim(120, m, i), (m, i)
    for m in range(121):
        for i in (0, 1, 5, 60, 119):
            assert ext_dim_oracle(120, m, i) == ext_dim(120, m, i), (m, i)


def test_sym_series_cyclic_matches_dims():
    for n in range(1, 7):
        for i in range(n):
            s = sym_series(parse_group(f"C{n}"), i, 8)
            for m in range(9):
                assert s.coefficient(m) == sym_dim(n, m, i)


def test_sym_series_frozen_prefix():
    s = sym_series(parse_group("C3"), 0, 3)
    assert s.coeffs == (1, 1, 2, 4)


def test_ext_series_cyclic_matches_dims():
    for n in range(1, 7):
        for i in range(n):
            s = ext_series(parse_group(f"C{n}"), i)
            assert s.order == n
            for m in range(n + 1):
                assert s.coefficient(m) == ext_dim(n, m, i)


def test_series_count_sums_over_group_elements():
    # coefficient m at index i counts multisets (sym) / subsets (ext) of group
    # elements whose sum is the i-th element
    for spec in ("C2xC2", "C2xC3", "C2xC4", "C3xC3"):
        g = parse_group(spec)
        els = g.elements()
        for i in range(g.order):
            target = els[i]
            s = sym_series(g, i, 4)
            e = ext_series(g, i)
            for m in range(5):
                cnt = sum(
                    1
                    for ms in itertools.combinations_with_replacement(els, m)
                    if reduce(g.add, ms, g.zero()) == target
                )
                assert s.coefficient(m) == cnt, ("sym", spec, i, m)
            for m in range(g.order + 1):
                cnt = sum(
                    1
                    for ss in itertools.combinations(els, m)
                    if reduce(g.add, ss, g.zero()) == target
                )
                assert e.coefficient(m) == cnt, ("ext", spec, i, m)


def test_ext_series_vanishes_at_minus_one():
    for spec in ("C2", "C4", "C5", "C2xC2", "C2xC4", "C3xC3", "C8"):
        g = parse_group(spec)
        for i in range(g.order):
            s = ext_series(g, i)
            assert sum(c * (-1) ** k for k, c in enumerate(s.coeffs)) == 0


def test_ext_series_from_order_profile():
    s = ext_series({1: 1, 2: 3, 3: 2})
    assert s.coeffs == (1, 1, 1, 4, 4, 1, 0)
    # profile of an actual abelian group agrees with its invariant series
    g = parse_group("C2xC2")
    assert ext_series(g.order_profile()) == ext_series(g, 0)
    assert sym_series(g.order_profile(), 0, 6) == sym_series(g, 0, 6)


def test_series_input_validation():
    with pytest.raises(ValueError):
        ext_series({1: 1, 2: 3, 3: 2}, i=1)  # profiles carry no characters
    with pytest.raises(ValueError):
        ext_series({1: 1, 5: 2})  # 5 does not divide 3
    with pytest.raises(ValueError):
        sym_series(parse_group("C3"), 3, 5)  # index out of range
    # the builders adopt their rows unchecked, so each refuses a negative order itself
    with pytest.raises(ValueError, match=r"^series order must be >= 0, got -1$"):
        sym_series(parse_group("C4"), 0, -1)
    with pytest.raises(ValueError, match=r"^series order must be >= 0, got -1$"):
        sym_series({1: 1, 2: 1}, 0, -1)
    with pytest.raises(ValueError, match=r"^series order must be >= 0, got -1$"):
        ext_series(parse_group("C4"), 0, -1)
    for s_order, t_order in ((-1, 3), (3, -1), (-1, -1)):
        with pytest.raises(ValueError, match=r"^series orders must be >= 0$"):
            bigraded_series(4, 0, s_order, t_order)


def test_profile_series_reject_non_dimensions():
    # these pass the profile checks (one neutral element, orders divide the
    # total) but are no group's profile: the averaged series is not integral
    for prof in ({1: 1, 2: 2, 4: 1}, {1: 1, 4: 3}):
        with pytest.raises(ValueError, match="not a dimension"):
            sym_series(prof, 0, 6)
        with pytest.raises(ValueError, match="not a dimension"):
            ext_series(prof)


def test_group_series_reject_non_dimensions(monkeypatch):
    # one wrong character sum leaves the t^0 (s^0 t^0) coefficient (|G| + 1)/|G|
    real_sums, real_ramanujan = molien.character_order_sums, molien.ramanujan_sum

    def bad_sums(group, i):
        sums = real_sums(group, i)
        return {**sums, 1: sums[1] + 1}

    monkeypatch.setattr(molien, "character_order_sums", bad_sums)
    monkeypatch.setattr(molien, "ramanujan_sum", lambda d, i: real_ramanujan(d, i) + (d == 1))
    with pytest.raises(AssertionError, match=r"coefficient 5/4 at t\^0 is not a dimension"):
        sym_series(parse_group("C2xC2"), 0, 6)
    with pytest.raises(AssertionError, match="not a dimension"):
        ext_series(parse_group("C2xC2"), 1)
    with pytest.raises(AssertionError, match=r"coefficient 5/4 at t\^0 is not a dimension"):
        bigraded_series(4, 0, 3, 4)


def test_point_dimensions_reject_non_dimensions(monkeypatch):
    # the same perturbation reaches the one point-dimension divisor sum and the
    # one total exterior sum; each point below has gcd(p, q, m) = 2, so the
    # extra d = 2 multinomial leaves a remainder (the d = 1 term reads no c_1)
    real_sums, real_ramanujan = molien.character_order_sums, molien.ramanujan_sum

    def bad_sums(group, i):
        sums = real_sums(group, i)
        return {**sums, 1: sums[1] + 1}

    monkeypatch.setattr(molien, "character_order_sums", bad_sums)
    monkeypatch.setattr(molien, "ramanujan_sum", lambda d, i: real_ramanujan(d, i) + (d == 2))
    with pytest.raises(AssertionError, match=r"value 5/2 of sym_ext_dim_by_parts\(2, 2, 0, 0\) is not a dimension"):
        sym_dim(2, 2, 0)
    with pytest.raises(AssertionError, match="not a dimension"):
        ext_dim(4, 2, 1)
    with pytest.raises(AssertionError, match="not a dimension"):
        sym_ext_dim(2, 2, 2, 0)
    with pytest.raises(AssertionError, match=r"total exterior dimension \(i = 1\) of C3: 14/3 is not a dimension"):
        ext_total_dim(3, 4)  # i is taken mod n
    with pytest.raises(ValueError, match="not a dimension"):
        ext_total_dim_invariants({1: 1, 2: 5})  # passes the profile checks, but 2^6 / 6 is no integer


def test_series_match_counting_dp_at_query_sizes():
    # the series sizes the benchmark's query stream asks for, against the
    # (degree, group sum) DP rather than another closed form
    for spec, order, i in (("C2xC4xC8", 100, 0), ("C2xC4xC8", 100, 37),
                           ("C4xC12", 80, 0), ("C4xC12", 80, 13),
                           ("C3xC3xC3", 30, 0), ("C3xC3xC3", 30, 26)):
        g = parse_group(spec)
        counts = element_sum_counts(g, order, True)
        assert sym_series(g, i, order).coeffs == tuple(row[i] for row in counts), (spec, i)
    for spec in ("C6xC6", "C2xC10"):
        g = parse_group(spec)
        counts = element_sum_counts(g, g.order, False)
        for i in range(g.order):
            assert ext_series(g, i).coeffs == tuple(row[i] for row in counts), (spec, i)
    for i in (0, 1, 7, 133, 265):
        s = sym_series(parse_group("C266"), i, 200)
        assert s.coeffs == tuple(sym_dim(266, m, i) for m in range(201)), i
    for i in (0, 1, 10, 35, 69):
        grid = bigraded_series(70, i, 40, 30)
        for p in range(41):
            assert grid.grid[p] == tuple(sym_ext_dim(70, p, m, i) for m in range(31)), (i, p)


def test_character_order_sums_cyclic_reduces_to_ramanujan():
    for n in range(1, 13):
        g = parse_group(f"C{n}")
        for i in range(n):
            sums = character_order_sums(g, i)
            assert set(sums) == set(d for d in range(1, n + 1) if n % d == 0)
            for d, value in sums.items():
                assert value == ramanujan_sum(d, i)


def test_character_order_sums_noncyclic_total():
    g = parse_group("C2xC4")
    sums = character_order_sums(g, 0)
    assert sums == {1: 1, 2: 3, 4: 4}
    assert sum(sums.values()) == g.order


def test_character_order_sums_list_no_elements():
    # the residues of i come from the strides; the element tuples stay unbuilt
    g = parse_group("C2x" * 19 + "C2")
    assert character_order_sums(g, 5) == {1: 1, 2: -1}  # chi_5 is nontrivial on 2^20 - 1 elements
    assert "_elements" not in vars(g)


def _assert_sums_match_oracle(g, characters=None):
    for i in range(g.order) if characters is None else characters:
        sums, walked = character_order_sums(g, i), character_order_sums_oracle(g, i)
        assert list(sums.items()) == list(walked.items()), (str(g), i)


def test_character_order_sums_match_oracle():
    extra = ("C6xC4", "C2xC6", "C12xC18", "C3xC9xC2")
    for g in abelian_groups_up_to(40) + [parse_group(s) for s in extra]:
        _assert_sums_match_oracle(g)
    # exponents of three or four primes, one of them repeated: the inversion takes one prime per pass
    for spec in ("C60", "C4xC30", "C4xC6xC10"):
        _assert_sums_match_oracle(parse_group(spec))
    rng = random.Random(0)
    for spec, count in (("C2xC2xC90", 40), ("C2xC6xC630", 8)):  # large walks: a sample of characters
        g = parse_group(spec)
        _assert_sums_match_oracle(g, [0, g.order - 1] + rng.sample(range(1, g.order - 1), count))


@st.composite
def factor_lists(draw, max_order=60):
    factors = [draw(st.integers(1, max_order))]
    while len(factors) < 4 and draw(st.booleans()):
        factors.append(draw(st.integers(1, max_order // math.prod(factors))))
    return tuple(factors)


@given(factor_lists())
@settings(max_examples=40, deadline=None)
def test_character_order_sums_match_oracle_random_presentations(factors):
    _assert_sums_match_oracle(FiniteAbelianGroup(factors))


@given(factor_lists())
@settings(max_examples=40, deadline=None)
def test_subset_count_matches_closed_form_random_presentations(factors):
    g = FiniteAbelianGroup(factors)
    assert subset_sum_zero_count(g) == zero_sum_subset_count(g)


def test_character_order_sums_reject_bad_index():
    g = parse_group("C2xC3")
    for bad in (-1, 6):
        with pytest.raises(ValueError):
            character_order_sums(g, bad)
        with pytest.raises(ValueError):
            character_order_sums_oracle(g, bad)


def test_bigraded_matches_joint_dims():
    for n in (1, 2, 3, 4, 5):
        for i in range(n):
            grid = bigraded_series(n, i, 6, n)
            for p in range(7):
                for m in range(n + 1):
                    assert grid.coefficient(p, m) == sym_ext_dim(n, p, m, i), (n, i, p, m)


@pytest.mark.parametrize("n", [30, 66, 210])
def test_strided_series_match_the_point_dimensions(n):
    # squarefree orders with 8 or 16 divisors: each divisor's run fills every d-th cell (every d-th row),
    # so a stride that drops or doubles a cell shows here
    group = parse_group(f"C{n}")
    for i in (0, 1, n - 1):
        grid = bigraded_series(n, i, 24, 16)
        assert [list(row) for row in grid.grid] == [[sym_ext_dim(n, p, m, i) for m in range(17)] for p in range(25)]
        sym = sym_series(group, i, 40)
        assert list(sym.coeffs) == [sym_dim(n, m, i) for m in range(41)]
        for ext in (ext_series(group, i), ext_series(group, i, 40), ext_series(group, i, n + 5)):
            assert list(ext.coeffs) == [ext_dim(n, m, i) for m in range(ext.order + 1)]
            assert TruncatedSeries1(ext.order, ext.coeffs) == ext
        # the adopted rows are what the checking constructors build
        assert TruncatedSeries1(sym.order, sym.coeffs) == sym
        assert TruncatedSeries2(grid.s_order, grid.t_order, grid.grid) == grid
    with pytest.raises(TypeError):
        TruncatedSeries1(sym.order, (*sym.coeffs[:-1], Fraction(1, 2)))
    with pytest.raises(TypeError):
        TruncatedSeries2(grid.s_order, grid.t_order, (*grid.grid[:-1], (*grid.grid[-1][:-1], 0.5)))


def test_bigraded_series_names_the_row_of_a_coefficient_that_is_no_dimension(monkeypatch):
    # a d = 1 character value off by one leaves t^0 of row s^0 at 1/5; one more C(-5, 1) in the
    # s-part of d = 1 leaves row s^0 whole and t^0 of row s^1 at 6/5
    real_sum, real_run = molien.ramanujan_sum, molien._binomial_run
    monkeypatch.setattr(molien, "ramanujan_sum", lambda d, i: real_sum(d, i) + (d == 1))
    with pytest.raises(AssertionError) as info:
        bigraded_series(5, 2, 4, 3)
    assert str(info.value) == "bigraded_series (i = 2), s^0 row of C5: coefficient 1/5 at t^0 is not a dimension"
    monkeypatch.setattr(molien, "ramanujan_sum", real_sum)
    monkeypatch.setattr(molien, "_binomial_run", lambda k, inner, count: [
        c + (a == 1 and k == -5) for a, c in enumerate(real_run(k, inner, count))])
    with pytest.raises(AssertionError) as info:
        bigraded_series(5, 2, 4, 3)
    assert str(info.value) == "bigraded_series (i = 2), s^1 row of C5: coefficient 6/5 at t^0 is not a dimension"


def test_bigraded_edges_recover_single_series():
    n = 4
    for i in range(n):
        grid = bigraded_series(n, i, 7, n)
        sym = sym_series(parse_group(f"C{n}"), i, 7)
        ext = ext_series(parse_group(f"C{n}"), i)
        for p in range(8):
            assert grid.coefficient(p, 0) == sym.coefficient(p)
        for m in range(n + 1):
            assert grid.coefficient(0, m) == ext.coefficient(m)


def test_ext_total_dim_counts_weighted_subsets():
    assert ext_total_dim(3, 0) == 4
    for n in range(1, 13):
        for i in range(n):
            expected = sum(ext_dim(n, m, i) for m in range(n + 1))
            assert ext_total_dim(n, i) == expected
        # direct subset count by weight
        counts = [0] * n
        for mask in range(1 << n):
            w = sum(j for j in range(n) if mask >> j & 1) % n
            counts[w] += 1
        for i in range(n):
            assert ext_total_dim(n, i) == counts[i]


def test_zero_sum_subset_count_matches_enumeration():
    from abelinv import abelian_groups_up_to

    for g in abelian_groups_up_to(12):
        assert zero_sum_subset_count(g) == subset_sum_zero_count(g), g.spec_string


def test_ext_total_dim_invariants_profile_validation():
    assert ext_total_dim_invariants({1: 1, 2: 3}) == 4
    with pytest.raises(ValueError):
        ext_total_dim_invariants({1: 1, 3: 1})  # 3 does not divide 2
    with pytest.raises(ValueError):
        ext_total_dim_invariants({1: 1, 2: 5})  # 2^6 / 6 is not an integer


def test_reciprocity_guard_counts_every_comparison(monkeypatch):
    with pytest.raises(GuardExceeded) as info:
        check_reciprocity(60, 16)
    assert (info.value.size, info.value.limit) == (1495190 + 1260, molien.RECIPROCITY_GUARD)
    # the closed form against the sweeps' own loops, with every comparison refused
    monkeypatch.setattr(molien, "RECIPROCITY_GUARD", 0)
    for a in range(1, 13):
        for b in range(1, 13):
            want = sum(max(q + m, p + m) for t in range(1, a + 1) for p in range(t + 1)
                       for q in range(t + 1 - p) for m in (t - p - q,) if q + m >= 1 and p + m >= 1)
            want += sum(max(n, t - n) for t in range(1, b + 1) for n in range(t + 1))
            with pytest.raises(GuardExceeded) as info:
                check_reciprocity(a, b)
            assert info.value.size == want, (a, b)


def test_reciprocity_check_passes():
    report = check_reciprocity(max_total=8, fredman_total=12)
    assert report.ok
    assert report.failures == []
    assert report.parameters == {"max_total": 8, "fredman_total": 12}


def test_reciprocity_check_reports_both_sweeps(monkeypatch):
    # the kernel one too large where p > q: each swap with p != q (first sweep) and each
    # n != m of the two-parameter swap (second sweep, sym_dim(n, m, i) reads it at (m, n)) fails
    real = molien.sym_ext_dim_by_parts
    monkeypatch.setattr(molien, "sym_ext_dim_by_parts", lambda p, q, m, i: real(p, q, m, i) + (p > q))
    assert check_reciprocity(max_total=2, fredman_total=1).failures == [
        {"p": 0, "q": 1, "m": 1, "i": 0, "lhs": 1, "rhs": 2},
        {"p": 0, "q": 1, "m": 1, "i": 1, "lhs": 1, "rhs": 2},
        {"p": 1, "q": 0, "m": 1, "i": 0, "lhs": 2, "rhs": 1},
        {"p": 1, "q": 0, "m": 1, "i": 1, "lhs": 2, "rhs": 1},
        {"n": 0, "m": 1, "i": 0, "lhs": 2, "rhs": 1},
        {"n": 1, "m": 0, "i": 0, "lhs": 1, "rhs": 2},
    ]


def test_identity_a_reports_a_wrong_z_over_1_minus_z2_coefficient(monkeypatch):
    # phi(1) one too large adds log(1 + z) to the z/(1-z^2) side: (-1)^(k+1)/k at degree k
    real = molien.euler_phi
    monkeypatch.setattr(molien, "euler_phi", lambda d: real(d) + (d == 1))
    want = [{"identity": "A", "i": 0, "form": "z/(1-z^2)", "degree": k, "lhs": str(k % 2),
             "rhs": str(Fraction(k % 2) + Fraction((-1) ** (k + 1), k))} for k in range(1, 7)]
    assert check_identity("A", order=6).failures == want


@pytest.mark.parametrize("which", ["A", "B", "log2var", "log3var"])
def test_identity_checks_pass(which):
    report = check_identity(which)
    assert report.ok, report.failures[:3]


def test_identity_checks_pass_at_small_order():
    assert check_identity("A", order=6).ok
    assert check_identity("log3var", order=4).ok


def test_identity_guard_counts_log_terms():
    # log(1 + x^d + y^d + z^d) to degree N holds C(N/d + 3, 3) - 1 terms; log3var sums
    # three of them (i = 0, 1, 2) over d and compares the C(N + 3, 3) cells
    want = 3 * (math.comb(11, 3) + sum(math.comb(8 // d + 3, 3) - 1 for d in range(1, 9)))
    assert molien._identity_work(3, 8, 3) == want == 1179
    assert molien._identity_work(1, 20, 7) == 7 * (21 + sum(20 // d for d in range(1, 21)))
    with pytest.raises(GuardExceeded) as info:
        check_identity("log3var", order=120)
    assert info.value.limit == molien.IDENTITY_GUARD
    with pytest.raises(GuardExceeded):
        check_identity("A", order=10**12)
    assert molien._identity_work(2, 200, 3) == 163329 <= molien.IDENTITY_GUARD  # runs, in about 0.4 s


def test_identity_refusal_size_is_the_whole_count():
    # a refused order reports the full grouped count while the cells alone pass the guard; past
    # that, the cells' count alone, which already refuses, is the size
    def plain_sum(v, order, logs):
        return logs * (math.comb(order + v, v) + sum(math.comb(order // d + v, v) - 1 for d in range(1, order + 1)))

    for v, order, logs in ((3, 60, 3), (3, 45, 3), (2, 200, 3), (2, 250, 3), (1, 1000, 7), (3, 1, 1), (1, 97, 2)):
        assert molien._identity_work(v, order, logs) == plain_sum(v, order, logs), (v, order, logs)
    assert molien._identity_work(3, 60, 3) == 267408
    with pytest.raises(GuardExceeded) as info:
        check_identity("log3var", order=60)
    assert info.value.size == 267408
    # the cells alone refuse: C(10^6 + 3, 3) of them, three times
    assert molien._identity_work(3, 10**6, 3) == 3 * math.comb(10**6 + 3, 3) > molien.IDENTITY_GUARD


def test_identity_rejects_unknown_name():
    with pytest.raises(ValueError):
        check_identity("C")
    with pytest.raises(ValueError):
        check_identity("A", i_max=-1)


@pytest.mark.parametrize("which, name, point, keys", [
    ("A", "ext_dim", (5, 5, 2), {"i": 2, "degree": 5}),
    ("B", "sym_dim", (0, 4, 2), {"i": 2, "degree": 4}),
    ("log2var", "sym_dim", (3, 4, 1), {"i": 1, "n": 3, "m": 4}),
    ("log3var", "sym_ext_dim_by_parts", (1, 2, 1, 0), {"i": 0, "p": 1, "q": 2, "m": 1}),
])
def test_identity_checks_report_a_wrong_dimension(monkeypatch, which, name, point, keys):
    real = getattr(molien, name)
    monkeypatch.setattr(molien, name, lambda *args: real(*args) + (args == point))
    true = real(*point)
    if which == "B":  # y^4 has coefficient [4 | 2] = 0 in the series and the indicator
        values = {"series": "0", "dims": "1", "indicator": "0"}
    else:
        values = {"lhs": str(true + 1), "rhs": str(true)}
    assert check_identity(which).failures == [{"identity": which, **keys, **values}]


# sign tuples s of the logs log(1 + sum_j s_j x_j^d), as functions of d
LOG_SIGNS = {
    "A": lambda d: ((-1) ** d,),
    "A z/(1-z^2)": lambda d: (1,),
    "B": lambda d: (-1,),
    "log2var": lambda d: (-1, -1),
    "log3var": lambda d: (-1, -1, (-1) ** d),
}


def fraction_log_sum(order, weight, signs):
    """sum_d (weight(d)/d) log(1 + sum_j s_j x_j^d), s = signs(d), to total degree order, in Fractions."""
    acc = {}
    for d in range(1, order + 1):
        s = signs(d)
        u = {tuple(d * (j == k) for j in range(len(s))): c for k, c in enumerate(s)}
        power, k = u, 1  # log(1 + u) = sum_k (-1)^(k+1) u^k / k
        while power:
            for exp, c in power.items():
                acc[exp] = acc.get(exp, 0) + Fraction(weight(d) * (-1) ** (k + 1) * c, d * k)
            product = {}  # power * u, truncated at total degree order
            for e1, c1 in power.items():
                for e2, c2 in u.items():
                    key = tuple(x + y for x, y in zip(e1, e2))
                    if sum(key) <= order:
                        product[key] = product.get(key, 0) + c1 * c2
            power, k = {exp: c for exp, c in product.items() if c}, k + 1
    return acc


@pytest.mark.parametrize("patterns, order", [
    (("A", "A z/(1-z^2)", "B"), 24),
    (("log2var",), 12),
    (("log3var",), 7),
])
def test_log_sums_match_fraction_reference(patterns, order):
    # one call shares its tables across every weight and sign pattern, as the checkers do
    weights = [molien._ramanujan_weight(i) for i in range(6)] + [euler_phi]
    sums = [(w, LOG_SIGNS[name]) for name in patterns for w in weights]
    for (weight, signs), scaled in zip(sums, molien._log_sums(order, sums)):
        want = fraction_log_sum(order, weight, signs)
        assert all(type(v) is int for v in scaled.values())
        assert all(scaled.get(cell, 0) == sum(cell) * want.get(cell, 0) for cell in set(scaled) | set(want))


@pytest.mark.parametrize("which, order, units, cell, keys, true", [
    ("A", 6, (-1,), (6,), {"degree": 6}, ext_dim(6, 6, 0)),
    ("B", 6, (-1,), (6,), {"degree": 6}, sym_dim(0, 6, 0)),
    ("log2var", 5, (-1, -1), (2, 3), {"n": 2, "m": 3}, sym_dim(2, 3, 0)),
    ("log3var", 4, (-1, -1, -1), (1, 2, 1), {"p": 1, "q": 2, "m": 1}, sym_ext_dim_by_parts(1, 2, 1, 0)),
])
def test_identity_checks_report_a_wrong_series_coefficient(monkeypatch, which, order, units, cell, keys, true):
    # one off-by-one cell of the odd-d table (signs `units`), at the top degree, reaches only d = 1,
    # weight -c_1(0) = -1
    real = molien._log_table

    def perturbed(signs, top):
        out = real(signs, top)
        if signs == units:
            out[cell] += 1
        return out

    monkeypatch.setattr(molien, "_log_table", perturbed)
    rhs = str(Fraction(order * true - 1, order))
    if which == "B":  # the indicator [k | 0] is the y/(1-y) form: one fault, one witness
        want = [{"identity": "B", "i": 0, **keys, "series": rhs, "dims": str(true), "indicator": "1"}]
    else:
        want = [{"identity": which, "i": 0, **keys, "lhs": str(true), "rhs": rhs}]
    assert rhs == {"A": "-1/6", "B": "5/6", "log2var": "9/5", "log3var": "11/4"}[which]
    assert check_identity(which, order, i_max=0).failures == want
