"""Group multiplication tables, symbolic permanents/determinants, checkers."""

import itertools
import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from abelinv import (
    FiniteAbelianGroup,
    GuardExceeded,
    IntPolynomial,
    abelian_groups_up_to,
    build_table,
    check_action_identities,
    check_extended_counts,
    check_hall,
    check_invariance,
    check_lehmer_congruence,
    check_toeplitz_conjecture,
    determinant,
    determinant_term_count,
    ext_dim_oracle,
    hall_support,
    parse_group,
    permanent,
    permanent_term_count,
    permutation_sign,
    sym_dim,
    sym_dim_oracle,
    sym_series,
)
from abelinv import cayley
from abelinv.cayley import (
    DP_GUARD,
    FACTORED_GUARD,
    LEIBNIZ_GUARD,
    VARIANTS,
    _accumulate_leibniz,
    _column_classes,
    _dp_state_estimate,
    _lex_parities,
    _prefix_parity,
    _subset_dp,
    _translation,
)

C2 = parse_group("C2")
C3 = parse_group("C3")
C4 = parse_group("C4")
V4 = parse_group("C2xC2")


def poly(nvars, terms):
    return IntPolynomial(nvars, terms)


# ---------------------------------------------------------------- tables


def test_plain_table_is_symmetric_latin_square():
    for g in (C2, C3, C4, V4, parse_group("C2xC3")):
        t = build_table(g, "plain")
        n = g.order
        assert t.size == n
        for i in range(n):
            assert sorted(t.grid[i]) == list(range(n))
            assert sorted(row[i] for row in t.grid) == list(range(n))
            for j in range(n):
                assert t.grid[i][j] == t.grid[j][i]


def test_plain_c3_grid_frozen():
    assert build_table(C3, "plain").grid == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_hat_table_has_zero_diagonal():
    for g in (C2, C3, C4, V4):
        t = build_table(g, "hat")
        assert all(t.grid[i][i] == 0 for i in range(g.order))


def test_extended_table_repeats_neutral_row_and_column():
    t = build_table(C3, "extended")
    assert t.size == 4
    assert t.grid[3] == t.grid[0]
    assert tuple(row[3] for row in t.grid) == tuple(row[0] for row in t.grid)


def test_block2n_table_tiles_the_plain_table():
    t = build_table(C3, "block2n")
    p = build_table(C3, "plain")
    n = 3
    assert t.size == 2 * n
    for i in range(2 * n):
        for j in range(2 * n):
            assert t.grid[i][j] == p.grid[i % n][j % n]


def test_toeplitz_table_frozen_display():
    t = build_table(C3, "toeplitz", size=5)
    assert t.grid == (
        (0, 1, 2, 0, 1),
        (2, 0, 1, 2, 0),
        (1, 2, 0, 1, 2),
        (0, 1, 2, 0, 1),
        (2, 0, 1, 2, 0),
    )
    assert t.format_table().splitlines()[0] == "x0 x1 x2 x0 x1"


def test_toeplitz_constant_diagonals():
    t = build_table(parse_group("C4"), "toeplitz", size=7)
    for i in range(6):
        for j in range(6):
            assert t.grid[i][j] == t.grid[i + 1][j + 1]


def test_table_validation():
    with pytest.raises(ValueError):
        build_table(C3, "fancy")
    with pytest.raises(ValueError):
        build_table(C3, "plain", size=4)
    with pytest.raises(ValueError):
        build_table(parse_group("C2xC3"), "toeplitz")  # needs the C6 presentation
    with pytest.raises(ValueError):
        build_table(C3, "toeplitz", size=2)
    with pytest.raises(ValueError):
        build_table(C3, "toeplitz", element_order=[2, 1, 0])
    with pytest.raises(ValueError):
        build_table(C3, "plain", element_order=[0, 0, 1])


def test_table_json_payload():
    obj = build_table(C2, "plain").to_json_obj()
    assert obj == {"group": "C2", "variant": "plain", "size": 2, "grid": [[0, 1], [1, 0]]}


# ---------------------------------------------------------------- permanents


def test_permanent_c2_and_c3_frozen():
    assert permanent(build_table(C2, "plain")) == poly(2, {(2, 0): 1, (0, 2): 1})
    got = permanent(build_table(C3, "plain"))
    assert str(got) == "x0^3 + 3*x0*x1*x2 + x1^3 + x2^3"


def test_permanent_extended_c3_frozen():
    got = permanent(build_table(C3, "extended"))
    expected = poly(3, {(4, 0, 0): 2, (2, 1, 1): 10, (1, 3, 0): 4, (1, 0, 3): 4, (0, 2, 2): 4})
    assert got == expected
    assert got.coefficient_sum() == 24  # 4! permutations in total


def test_permanent_algorithms_agree():
    tables = [build_table(g, v) for g in (C2, C3) for v in ("plain", "hat", "extended", "block2n")]
    tables += [build_table(C4, v) for v in ("plain", "hat", "extended")]
    tables += [build_table(C3, "toeplitz", size=l) for l in (3, 4, 5, 6, 7)]
    tables += [build_table(C2, "toeplitz", size=l) for l in (2, 5, 8)]
    for t in tables:
        assert permanent(t, "leibniz") == permanent(t), (t.group.spec_string, t.variant, t.size)


def test_permanent_hat_equals_plain():
    for g in (C2, C3, C4, V4, parse_group("C5"), parse_group("C2xC3")):
        assert permanent(build_table(g, "hat")) == permanent(build_table(g, "plain"))


def test_permanent_invariant_under_relabeling():
    rng = random.Random(7)
    for g in (C3, C4, V4):
        base = permanent(build_table(g, "plain"))
        order = list(range(g.order))
        for _ in range(3):
            rng.shuffle(order)
            assert permanent(build_table(g, "plain", element_order=order)) == base


def test_permanent_coefficient_sum_is_factorial():
    # C12 runs on one subset-DP state per rotation orbit of columns; its term count is
    # the paper's dim (S^n R)^G = sym_dim(12, 12, 0) = 112720
    for g in (C2, C3, C4, V4, parse_group("C12")):
        per = permanent(build_table(g, "plain"))
        assert per.coefficient_sum() == math.factorial(g.order)
        assert per.term_count() == sym_series(g, 0, g.order).coefficient(g.order)


def test_permanent_guards_and_algorithm_dispatch():
    # the Leibniz guard counts permutations: size 10 runs, size 11 is refused
    big = build_table(parse_group("C2"), "toeplitz", size=10)
    assert permanent(big, "leibniz") == permanent(big)
    bigger = build_table(parse_group("C2"), "toeplitz", size=11)
    with pytest.raises(GuardExceeded) as info:
        permanent(bigger, "leibniz")
    assert (info.value.size, info.value.limit) == (math.factorial(11), LEIBNIZ_GUARD)
    assert permanent(bigger).coefficient_sum() == math.factorial(11)  # auto covers every size
    with pytest.raises(ValueError):
        permanent(big, "ryser")
    huge = build_table(parse_group("C17"), "toeplitz")
    with pytest.raises(GuardExceeded):
        permanent(huge)
    with pytest.raises(ValueError):
        permanent(build_table(C2, "plain"), "factored")
    with pytest.raises(ValueError):
        permanent(build_table(C2, "plain"), "newton")


def test_subset_dp_guard_bounds_states():
    # the estimate is sum_k states_k * C(k + v - 1, v - 1): states_k is the number of
    # rotation orbits of k-subsets under a translation (Burnside), else C(l, k)
    plain12 = build_table(parse_group("C12"), "plain")
    classes = _column_classes(plain12)
    assert _dp_state_estimate(plain12, classes, _translation(plain12, classes)) == 14059916 <= DP_GUARD
    assert _dp_state_estimate(plain12, classes, None) == 148321344  # one state per subset
    c2c6 = build_table(parse_group("C2xC6"), "hat")
    classes = _column_classes(c2c6)
    assert _dp_state_estimate(c2c6, classes, _translation(c2c6, classes)) == 26690806 <= DP_GUARD
    plain13 = build_table(parse_group("C13"), "plain")
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded) as info:
        determinant(plain13)
    assert (info.value.size, info.value.limit) == (68705262, DP_GUARD)
    with pytest.raises(GuardExceeded):
        permanent(plain13)
    assert time.perf_counter() - t0 < 1.0
    # identical columns share one state per count taken, so long stretches run
    long_c3 = permanent(build_table(C3, "toeplitz", size=16))
    assert long_c3.term_count() == sym_dim(3, 16, 0)
    assert long_c3.coefficient_sum() == math.factorial(16)


def test_translation_found_on_the_grid():
    # plain and hat tables carry it in the element-order relabeling (shift +s and -s),
    # the n x n toeplitz table over C_n with phi = id; other shapes and orders do not
    c2c6 = parse_group("C2xC6")
    for variant, shift in (("plain", 2), ("hat", 10)):
        table = build_table(c2c6, variant)
        tr = _translation(table, _column_classes(table))
        assert (tr.s, tr.shift, tr.rotations) == (2, shift, 6)
        assert sorted(tr.phi) == list(range(12))
    toeplitz = build_table(parse_group("C5"), "toeplitz")
    tr = _translation(toeplitz, _column_classes(toeplitz))
    assert (tr.phi, tr.s, tr.shift) == ([0, 1, 2, 3, 4], 1, 1)
    for table in (build_table(C4, "extended"), build_table(C4, "block2n"),
                  build_table(C3, "toeplitz", size=4), build_table(C4, "plain", element_order=[0, 2, 1, 3])):
        assert _translation(table, _column_classes(table)) is None, table.variant


def _unreduced_order(group):
    """An element order whose tables have no translation, so the subset DP keeps every subset."""
    n = group.order
    return [0, 2, 1] + list(range(3, n))


def test_orbit_dp_matches_unreduced_dp(monkeypatch):
    # every table with the symmetry takes the orbit path here, however small; relabeling
    # rows and columns together leaves both polynomials unchanged, and orders 1-3 admit
    # no element order without the symmetry, so Leibniz stands in there
    monkeypatch.setattr("abelinv.cayley.ORBIT_MIN_PAIRS", 0)
    for group in abelian_groups_up_to(10) + [parse_group(s) for s in ("C6", "C4xC2")]:
        for variant in ("plain", "hat"):
            table = build_table(group, variant)
            assert (_translation(table, _column_classes(table)) is None) == (group.order == 1)
            if group.order <= 3:
                reference = table
            else:
                reference = build_table(group, variant, element_order=_unreduced_order(group))
                assert _translation(reference, _column_classes(reference)) is None, group
            for signed in (False, True):
                want = (_subset_dp(reference, signed) if group.order > 3
                        else _accumulate_leibniz(reference, signed))
                assert _subset_dp(table, signed) == want, (group.spec_string, variant, signed)


def test_orbit_dp_matches_unreduced_dp_c11():
    group = parse_group("C11")
    reference = build_table(group, "hat", element_order=_unreduced_order(group))
    assert _translation(reference, _column_classes(reference)) is None
    det = determinant(build_table(group, "hat"))
    assert det.term_count() == 32066
    assert det == _subset_dp(reference, signed=True)


def test_wide_toeplitz_permanent_support():
    # n=2 stretched tables: one even-weight monomial per split of l
    per = permanent(build_table(C2, "toeplitz", size=10))
    assert per.term_count() == sym_dim(2, 10, 0)
    assert all((e[1] % 2 == 0) for e in per.support())


# ---------------------------------------------------------------- determinants


def test_determinant_c2_frozen():
    assert determinant(build_table(C2, "plain")) == poly(2, {(2, 0): 1, (0, 2): -1})


def test_determinant_factorization_matches_leibniz():
    for spec in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "C2xC3"):
        g = parse_group(spec)
        for variant in ("plain", "hat"):
            t = build_table(g, variant)
            assert determinant(t, "factored") == determinant(t, "leibniz"), (spec, variant)


def test_determinant_repeated_rows_vanish():
    for g in (C2, C3):
        for variant in ("extended", "block2n"):
            t = build_table(g, variant)
            assert determinant(t).term_count() == 0  # signed DP on repeated columns
            assert determinant(t, "leibniz").term_count() == 0  # literal expansion


def test_factored_determinant_guard():
    # n * C(2n-1, n) coefficient products: every order-10 table runs, order 11 is refused
    assert 10 * math.comb(19, 10) == 923780 <= FACTORED_GUARD
    assert determinant(build_table(parse_group("C10"), "plain"), "factored").term_count() == 7492
    assert determinant(build_table(parse_group("C2xC5"), "hat"), "factored").term_count() == 7492
    for spec in ("C11", "C12"):
        n = parse_group(spec).order
        for variant in ("plain", "hat"):
            with pytest.raises(GuardExceeded) as info:
                determinant(build_table(parse_group(spec), variant), "factored")
            assert (info.value.size, info.value.limit) == (n * math.comb(2 * n - 1, n), FACTORED_GUARD)


def test_determinant_invariant_under_relabeling():
    # rows and columns move together, so the sign change squares away
    rng = random.Random(11)
    for g in (C3, C4):
        base = determinant(build_table(g, "plain"), "leibniz")
        order = list(range(g.order))
        for _ in range(3):
            rng.shuffle(order)
            got = determinant(build_table(g, "plain", element_order=order), "leibniz")
            assert got == base


def test_determinant_toeplitz_square_is_hat():
    for spec in ("C2", "C3", "C4", "C5"):
        g = parse_group(spec)
        t = build_table(g, "toeplitz")
        assert determinant(t, "leibniz") == determinant(build_table(g, "hat"), "leibniz")


small_groups = st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
    lambda factors: math.prod(factors) <= 6
)


@given(small_groups, st.sampled_from(VARIANTS), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_subset_dp_matches_leibniz(factors, variant, stretch):
    group = FiniteAbelianGroup(tuple(factors))
    if variant == "toeplitz":
        n = group.order
        table = build_table(FiniteAbelianGroup((n,)), variant, size=min(8, max(n, stretch)))
    else:
        table = build_table(group, variant)
    assume(table.size <= 8)
    label = (factors, variant, table.size)
    assert permanent(table) == permanent(table, "leibniz"), label
    det = determinant(table, "leibniz")
    assert determinant(table) == det, label
    assert _subset_dp(table, signed=True) == det, label  # the kernel itself, no short-circuit


@pytest.mark.parametrize("spec, variant", [
    ("C9", "plain"), ("C9", "hat"), ("C3xC3", "plain"), ("C3xC3", "hat"), ("C8", "extended"),
    ("C10", "plain"), ("C2xC5", "hat"),
])
def test_subset_dp_matches_leibniz_at_guard_edge(spec, variant):
    # sizes 9 and 10, which the sampled comparison above never reaches
    table = build_table(parse_group(spec), variant)
    per = permanent(table, "leibniz")
    assert per.coefficient_sum() == math.factorial(table.size)  # each permutation counted once
    assert per == permanent(table)
    assert determinant(table, "leibniz") == _subset_dp(table, signed=True)


def test_leibniz_sign_pieces_match_permutation_sign():
    for s in range(1, 8):
        odd = [permutation_sign(p) == -1 for p in itertools.permutations(range(s))]
        assert _lex_parities(s) == odd, s
    for l in range(1, 8):
        suffix_parity = {}  # each ordering of each column subset -> its lex-pattern parity
        for s in range(l + 1):
            for cols in itertools.combinations(range(l), s):
                suffix_parity.update(zip(itertools.permutations(cols), _lex_parities(s)))
        for perm in itertools.permutations(range(l)):
            for k in range(l + 1):  # prefix perm[:k], suffix perm[k:]
                parity = _prefix_parity(perm[:k]) ^ suffix_parity[perm[k:]]
                assert permutation_sign(perm) == (-1) ** parity, (perm, k)


def test_subset_dp_matches_factored_determinant():
    for spec in ("C8", "C2xC2xC2", "C9", "C3xC3", "C10", "C2xC5"):
        g = parse_group(spec)
        for variant in ("plain", "hat"):
            t = build_table(g, variant)
            assert determinant(t) == determinant(t, "factored"), (spec, variant)


def test_determinant_algorithm_dispatch():
    with pytest.raises(ValueError):
        determinant(build_table(C2, "plain"), "ryser")
    # factored short-circuits tables with repeated rows to the zero polynomial
    assert determinant(build_table(C2, "extended"), "factored").term_count() == 0


# ---------------------------------------------------------------- supports and counts


def test_hall_support_c3_frozen():
    assert hall_support(C3, 3) == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}


def test_hall_support_size_matches_invariant_dimension():
    for spec in ("C2", "C3", "C4", "C2xC2", "C5", "C6"):
        g = parse_group(spec)
        series = sym_series(g, 0, 7)
        for degree in range(8):
            assert len(hall_support(g, degree)) == series.coefficient(degree)


def weak_compositions(total, parts):
    """Yield all tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_weak_compositions_count_and_sum():
    for total in range(0, 7):
        for parts in range(1, 5):
            combos = list(weak_compositions(total, parts))
            assert len(combos) == math.comb(total + parts - 1, parts - 1)
            assert len(set(combos)) == len(combos)
            assert all(len(c) == parts and sum(c) == total for c in combos)


def test_dimension_oracles_match_direct_enumeration():
    # the counting DP against listing monomials and subsets one at a time
    for n in range(1, 8):
        for m in range(8):
            sym = [0] * n
            for comp in weak_compositions(m, n):
                sym[sum(j * k for j, k in enumerate(comp)) % n] += 1
            ext = [0] * n
            for sub in itertools.combinations(range(n), m):
                ext[sum(sub) % n] += 1
            for i in range(n):
                assert sym_dim_oracle(n, m, i) == sym[i], (n, m, i)
                assert ext_dim_oracle(n, m, i) == ext[i], (n, m, i)


def _zero_sum_filter(group, degree):
    els = group.elements()
    out = set()
    for comp in weak_compositions(degree, group.order):
        acc = group.zero()
        for a, k in zip(els, comp):
            acc = group.add(acc, group.scale(a, k))
        if acc == group.zero():
            out.add(comp)
    return out


def test_hall_support_matches_brute_force_and_closed_form():
    for g in abelian_groups_up_to(8):
        degrees = range(g.order + 2) if g.order <= 6 else (g.order - 1, g.order)
        for degree in degrees:
            assert hall_support(g, degree) == _zero_sum_filter(g, degree), (g.spec_string, degree)
    for spec in ("C6", "C3xC2", "C1xC4"):  # presentations the list above does not use
        g = parse_group(spec)
        assert hall_support(g, g.order) == _zero_sum_filter(g, g.order), spec
    for spec in ("C10", "C12"):
        g = parse_group(spec)
        assert len(hall_support(g, g.order)) == sym_series(g, 0, g.order).coefficient(g.order)


def test_permanent_support_within_hall_support():
    for spec in ("C2", "C3", "C4", "C2xC2", "C5"):
        g = parse_group(spec)
        per = permanent(build_table(g, "plain"))
        assert set(per.support()) <= hall_support(g, g.order)


def test_term_counts_frozen():
    assert permanent_term_count(C4) == 10
    assert determinant_term_count(C4) == 10
    assert permanent_term_count(parse_group("C6")) == 80
    assert determinant_term_count(parse_group("C6")) == 68
    assert permanent_term_count(V4) == 11
    assert determinant_term_count(V4) == 11


def test_permanent_term_count_matches_polynomial():
    for spec in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "C2xC3"):
        g = parse_group(spec)
        assert permanent_term_count(g) == permanent(build_table(g, "plain")).term_count()


def test_determinant_term_count_matches_polynomial():
    for spec in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6"):
        g = parse_group(spec)
        assert determinant_term_count(g) == determinant(build_table(g, "plain")).term_count()


# ---------------------------------------------------------------- checkers


def test_invariance_check_passes():
    for g in (C3, C4, V4, parse_group("C5"), parse_group("C2xC3")):
        report = check_invariance(g)
        assert report.ok, (g.spec_string, report.failures[:3])


def test_invariance_check_builds_one_table(monkeypatch):
    built = []
    real = cayley.build_table
    monkeypatch.setattr(cayley, "build_table", lambda *args, **kw: built.append(args) or real(*args, **kw))
    assert check_invariance(parse_group("C2xC3")).ok
    assert built == [(parse_group("C2xC3"), "plain")]


@pytest.mark.parametrize("kernel, what", [("permanent", "permanent not invariant"),
                                          ("determinant", "determinant not semi-invariant")])
def test_invariance_check_catches_a_changed_pure_power(monkeypatch, kernel, what):
    # bump the coefficient of x_0^n (x_0 the identity's variable); every gamma
    # except the identity moves that monomial to x_gamma^n, so exactly those
    # gammas fail, in element order, and the other polynomial still passes
    real = getattr(cayley, kernel)

    def bumped(matrix, algorithm="auto"):
        poly = real(matrix, algorithm)
        power = (poly.nvars,) + (0,) * (poly.nvars - 1)
        return IntPolynomial(poly.nvars, {**poly.terms, power: poly.coefficient(power) + 1})

    monkeypatch.setattr(cayley, kernel, bumped)
    for g in (C3, C4, V4, parse_group("C2xC3")):
        identity, *moved = g.elements()
        assert not any(identity)
        assert check_invariance(g).failures == [{"gamma": list(gamma), "what": what} for gamma in moved]


def test_action_identities_exhaustive():
    for g in (C3, C4, V4):
        report = check_action_identities(g)
        assert report.ok, report.failures[:3]
        assert report.parameters["mode"] == "exhaustive"


def test_action_identities_sampled_deterministic():
    g = parse_group("C6")
    r1 = check_action_identities(g, samples=50, seed=3)
    r2 = check_action_identities(g, samples=50, seed=3)
    assert r1.ok and r2.ok
    assert r1.parameters == r2.parameters
    assert r1.parameters["mode"] == "sampled-50"


def test_sampled_realization_still_catches_a_wrong_star_monomial(monkeypatch):
    # the realization pass reads the star monomials of the sign/monomial pass,
    # so one wrong star monomial must fail both checks
    g = parse_group("C6")
    sg = g.add_table[1]
    pi = tuple(random.Random(3).sample(range(6), 6))  # the first permutation sampled with seed 3
    target = tuple(sg[pi[sg[i]]] for i in range(6))
    assert target != pi
    real = cayley._table_monomial

    def wrong_for_target(add, perm):
        mono = real(add, perm)
        return tuple(k + (t == 0) for t, k in enumerate(mono)) if tuple(perm) == target else mono

    monkeypatch.setattr(cayley, "_table_monomial", wrong_for_target)
    report = check_action_identities(g, samples=20, seed=3)
    whats = [f["what"] for f in report.failures]
    assert {"pi": list(pi), "gamma": list(g.elements()[1]), "what": "star changed monomial"} in report.failures
    assert "orbit construction failed" in whats
    assert whats.index("star changed monomial") < whats.index("orbit construction failed")


def test_lehmer_congruence_checks():
    for p in (3, 5):
        report = check_lehmer_congruence(p)
        assert report.ok, report.failures[:3]
        assert report.parameters == {"p": p}
    with pytest.raises(ValueError):
        check_lehmer_congruence(4)


def test_extended_count_checks():
    for spec in ("C1", "C2", "C3", "C2xC2", "C4"):
        report = check_extended_counts(parse_group(spec))
        assert report.ok, (spec, report.failures[:3])


def test_hall_check_small():
    report = check_hall(max_order=4, max_order_ext=4)
    assert report.ok, report.failures[:3]


def test_toeplitz_conjecture_cells():
    assert check_toeplitz_conjecture(2, 9).ok
    assert check_toeplitz_conjecture(3, 5).ok
    assert check_toeplitz_conjecture(4, 5).ok


def test_toeplitz_conjecture_counterexample_is_stable():
    # the 6x6 stretch of the order-4 table misses exactly one predicted monomial
    report = check_toeplitz_conjecture(4, 6)
    assert not report.ok
    assert report.failures == [{"exponents": [0, 0, 6, 0], "what": "predicted monomial missing"}]
    # the missing power needs two rows to land in the one column of its residue
    per = permanent(build_table(C4, "toeplitz", size=6))
    assert per.coefficient([0, 0, 6, 0]) == 0
    assert (0, 0, 6, 0) in hall_support(C4, 6)


def test_toeplitz_conjecture_validation():
    with pytest.raises(ValueError):
        check_toeplitz_conjecture(1, 0)
