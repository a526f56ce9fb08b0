"""Group multiplication tables, symbolic permanents/determinants, checkers."""

import itertools
import math
import random
import time
from collections import Counter

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
    _cross_parity,
    _dp_guard,
    _dp_pairs,
    _lex_parities,
    _plain_sign,
    _relabeling,
    _shift_digits,
    _subset_dp,
    _symmetry,
    refuse_before_table,
)
from abelinv.cli import CONJECTURE_GRID

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
    # from order 6 on the hat table runs on the plain table's orbit record, so Leibniz is the reference
    for g in (C2, C3, C4, V4, parse_group("C5"), parse_group("C2xC3")):
        assert permanent(build_table(g, "hat")) == permanent(build_table(g, "plain"), "leibniz")


def test_permanent_invariant_under_relabeling():
    # reordered tables of order 6 and more take the orbit path, against Leibniz on the plain table
    rng = random.Random(7)
    for g in (C3, C4, V4, parse_group("C6"), parse_group("C2xC3")):
        base = permanent(build_table(g, "plain"), "leibniz")
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


def grid_classes(table):
    """Sizes of the classes of identical columns, read off the grid column by column."""
    return sorted(Counter(zip(*table.grid)).values())


def table_estimate(table, translated):
    """_dp_pairs of a table's size, column classes and variables, counting orbits when translated."""
    v = len({k for row in table.grid for k in row})
    return _dp_pairs(table.size, grid_classes(table), v, table.group.order_profile() if translated else None)


def test_subset_dp_guard_bounds_states():
    # the estimate is sum_k states_k * C(k + v - 1, v - 1): states_k is the number of
    # orbits of k-subsets under every translation of the group (Burnside), else C(l, k)
    plain12 = build_table(parse_group("C12"), "plain")
    assert _plain_sign(plain12) != 0
    assert table_estimate(plain12, True) == 14059916 <= DP_GUARD
    assert table_estimate(plain12, False) == 148321344  # one state per subset
    c2c6 = build_table(parse_group("C2xC6"), "hat")
    assert _plain_sign(c2c6) != 0
    # 12-fold, as C12: 26690806 under the 6-fold rotations of an element of maximal order
    assert table_estimate(c2c6, True) == 14616108 <= DP_GUARD
    plain13 = build_table(parse_group("C13"), "plain")
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded) as info:
        determinant(plain13)
    assert (info.value.size, info.value.limit) == (68705262, DP_GUARD)
    with pytest.raises(GuardExceeded):
        permanent(plain13)
    # refused by its orbit count, so no record is built: it would hold 2^24 column sets
    with pytest.raises(GuardExceeded):
        determinant(build_table(parse_group("C6xC4"), "plain"))
    assert time.perf_counter() - t0 < 1.0
    # identical columns share one state per count taken, so long stretches run
    long_c3 = permanent(build_table(C3, "toeplitz", size=16))
    assert long_c3.term_count() == sym_dim(3, 16, 0)
    assert long_c3.coefficient_sum() == math.factorial(16)


def test_guards_decided_before_the_table_match_the_kernels():
    # the kernels read the column classes off the column elements and the reduction off the two
    # element lists; the grid, read column by column, must show the same classes
    for group in abelian_groups_up_to(13):
        n = group.order
        for variant in VARIANTS:
            if variant == "toeplitz" and not group.is_cyclic_presentation:
                continue
            for size in [None] + ([n + 1, 2 * n + 1] if variant == "toeplitz" else []):
                table = build_table(group, variant, size=size)
                sizes = list(Counter(table.cols).values())
                label = (group.spec_string, variant, size)
                assert sorted(sizes) == grid_classes(table), label
                # the plain table permuted: plain, hat and the n x n toeplitz table
                translated = _plain_sign(table) != 0
                assert translated == (table.size == n and variant in ("plain", "hat", "toeplitz")), label
                assert _dp_pairs(table.size, sizes, n, None) == table_estimate(table, False), label
                if translated:
                    assert _dp_pairs(n, sizes, n, group.order_profile()) == table_estimate(table, True), label
    for spec, variant, op, algorithm in [("C13", "plain", "per", "auto"), ("C2xC2xC2", "block2n", "per", "auto"),
                                         ("C11", "hat", "det", "factored"), ("C11", "plain", "det", "leibniz")]:
        group = parse_group(spec)
        kernel = permanent if op == "per" else determinant
        with pytest.raises(GuardExceeded) as early:
            refuse_before_table(group, op, variant, None, algorithm)
        with pytest.raises(GuardExceeded) as late:
            kernel(build_table(group, variant), algorithm)
        assert (early.value.what, early.value.size) == (late.value.what, late.value.size), spec
    # repeated columns make the determinant 0 before any DP, so nothing is refused
    refuse_before_table(parse_group("C2xC2xC2"), "det", "block2n")
    refuse_before_table(parse_group("C12"), "det")
    # the whole-group orbits admit every presentation of order 12 and no plain table beyond
    wide = [g for g in abelian_groups_up_to(16) if g.order >= 12] + [parse_group(s) for s in ("C12", "C2xC6")]
    for group in wide:
        for op in ("per", "det"):
            if group.order == 12:
                refuse_before_table(group, op)
            else:
                with pytest.raises(GuardExceeded):
                    refuse_before_table(group, op)


def test_cell_guard_refuses_long_tables_before_their_lists():
    # the l^2 cells are counted from l alone: C1 admits l = 7071 and refuses 7072 on, before any
    # element list is made or the class-count estimate is summed
    c1 = parse_group("C1")
    assert 7071**2 <= DP_GUARD < 7072**2
    assert permanent(build_table(c1, "toeplitz", size=7071)).coefficient([7071]) == math.factorial(7071)
    for l in (7072, 10**4, 4 * 10**7):
        t0 = time.perf_counter()
        for op in ("per", "det"):
            with pytest.raises(GuardExceeded) as info:
                refuse_before_table(c1, op, "toeplitz", l)
            assert (info.value.what, info.value.size) == ("subset DP table cells", l * l)
        assert time.perf_counter() - t0 < 1.0, l
    with pytest.raises(GuardExceeded):
        determinant(build_table(c1, "toeplitz", size=10**4))
    # the largest tables the tests and the benchmark take stay admitted
    refuse_before_table(C3, "per", "toeplitz", 16)
    refuse_before_table(C2, "per", "toeplitz", 11)


def test_translation_found_on_the_grid():
    # the record relabels the plain table over a basis: an element of maximal order (stride
    # n/e) and a complement; every other table that lists the group on both sides shares it
    c2c6 = _symmetry(parse_group("C2xC6"), False)
    assert c2c6.phi == [0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11]
    for spec, axes in (("C2xC6", ((2, 6), (1, 2))), ("C2xC2xC2", ((4, 2), (2, 2), (1, 2))),
                       ("C3xC3", ((3, 3), (1, 3))), ("C2xC3", ((1, 6),)), ("C2xC2xC3", ((2, 6), (1, 2))),
                       ("C5", ((1, 5),))):
        n = parse_group(spec).order
        tr = _symmetry(parse_group(spec), False)
        assert tr.axes == axes and sorted(tr.phi) == list(range(n)), spec

        def plus(a, b):
            return sum((a // t + b // t) % m * t for t, m in axes)

        # phi adds digit by digit, so translating the columns by x moves every entry by x
        assert all(row[plus(j, x)] == plus(v, x) for row in tr.grid for j, v in enumerate(row)
                   for x in range(n)), spec
    # order 24 is beyond every table the DP runs, so its record (2^24 column sets) is not built
    phi, _, axes = _relabeling(parse_group("C6xC4"))
    assert axes == ((2, 12), (1, 2)) and sorted(phi) == list(range(24))
    # cyclic presentations get g = 1 and phi = id from the basis itself
    for spec in ("C1", "C2", "C5", "C12"):
        n = parse_group(spec).order
        assert _relabeling(parse_group(spec))[:2] == (list(range(n)), 1 % n), spec
    for variant, element_order in (("toeplitz", None), ("hat", None), ("plain", [0, 2, 1, 3])):
        assert _plain_sign(build_table(C4, variant, element_order=element_order)) != 0, variant
    for table in (build_table(C4, "extended"), build_table(C4, "block2n"), build_table(C3, "toeplitz", size=4)):
        assert _plain_sign(table) == 0, table.variant


def test_key_translations_agree():
    # a packed key is translated in two places, by images for the orbit means and by the
    # per-label op in the DP's pushes; both must give the key of the monomial moved by the
    # translation x_b -> x_(b + a), a = phi^-1(x)
    rng = random.Random(13)
    for group in abelian_groups_up_to(12)[1:] + [parse_group("C2xC2xC3")]:
        n, add = group.order, group.add_table
        sym = _symmetry(group, False)
        phi, base = sym.phi, sym.base
        for _ in range(6):
            exps = [0] * n
            for b in rng.choices(range(n), k=rng.randint(0, n)):
                exps[b] += 1
            key = sum(e * base ** phi[b] for b, e in enumerate(exps))
            images = sym.images(key)
            for a in range(n):
                want = sum(e * base ** phi[add[b][a]] for b, e in enumerate(exps))
                mult, masks = sym.ops[phi[a]]
                by_op = list(_shift_digits([key], masks))[0] * mult % sym.modulus
                assert images[phi[a]] == by_op == want, (group.spec_string, exps, a)


def square_tables(group, rng):
    """The tables that list the group on both sides: plain, hat, a reordered plain and the toeplitz table."""
    order = rng.sample(range(group.order), group.order)
    tables = [build_table(group, v) for v in ("plain", "hat")] + [build_table(group, "plain", element_order=order)]
    return tables + ([build_table(group, "toeplitz")] if group.is_cyclic_presentation else [])


def test_orbit_dp_matches_unreduced_dp(monkeypatch):
    # every table that lists the group on both sides runs on the plain table's record here, however
    # small; the reference is the same table with the reduction out of reach, on its own entries
    rng = random.Random(17)
    for group in abelian_groups_up_to(10)[1:] + [parse_group(s) for s in ("C6", "C4xC2")]:
        for table in square_tables(group, rng):
            label = (group.spec_string, table.variant, table.rows, table.cols)
            for signed in (False, True):
                monkeypatch.setattr(cayley, "ORBIT_MIN_PAIRS", 0)
                assert _dp_guard(table, [1] * group.order) != 0, label
                got = _subset_dp(table, signed)
                monkeypatch.setattr(cayley, "ORBIT_MIN_PAIRS", math.inf)
                assert _dp_guard(table, [1] * group.order) == 0, label
                assert got == _subset_dp(table, signed), (label, signed)


def test_one_orbit_record_per_group_and_signedness():
    # plain, hat and the n x n toeplitz table are the plain table permuted, so they share its record
    _symmetry.cache_clear()
    c8 = parse_group("C8")
    tables = [build_table(c8, v) for v in ("plain", "hat", "toeplitz")]
    for table in tables:
        permanent(table)
        determinant(table)
    assert _symmetry.cache_info().misses == 2
    # the determinant takes the signs of the two lists: the hat and the toeplitz table agree
    assert determinant(tables[1]) == determinant(tables[2]) == determinant(tables[0], "factored") * c8.inversion_sign()


def layer_sizes(monkeypatch):
    """A list that collects the number of states of each subset-DP layer after the first."""
    sizes = []

    def counting(*args):
        layer = next_layer(*args)
        sizes.append(len(layer))
        return layer

    next_layer = cayley._next_layer
    monkeypatch.setattr(cayley, "_next_layer", counting)
    return sizes


def burnside_states(group):
    """Orbits of the k-subsets of G under translation, k = 0..|G|: (1/|G|) sum_(o | k) N_o C(|G|/o, k/o)."""
    n = group.order
    return [sum(count * math.comb(n // o, k // o) for o, count in group.order_profile().items() if k % o == 0)
            // n for k in range(n + 1)]


def numeric_permanent(rows):
    """Ryser's formula over the column subsets in Gray-code order."""
    n = len(rows)
    sums = [0] * n
    total = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        step = 1 if (k ^ k >> 1) >> j & 1 else -1
        sums = [x + step * row[j] for x, row in zip(sums, rows)]
        total += (-1) ** (k ^ k >> 1).bit_count() * math.prod(sums)
    return (-1) ** n * total


def numeric_determinant(rows):
    """Bareiss fraction-free elimination."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def test_numeric_oracles_match_leibniz():
    rng = random.Random(5)
    for n in range(1, 6):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        perms = list(itertools.permutations(range(n)))
        assert numeric_permanent(rows) == sum(math.prod(rows[i][p[i]] for i in range(n)) for p in perms)
        assert numeric_determinant(rows) == sum(permutation_sign(p) * math.prod(rows[i][p[i]] for i in range(n))
                                                for p in perms)


@pytest.mark.parametrize("spec, states", [
    ("C2xC2xC2", [1, 1, 7, 7, 14, 7, 7, 1, 1]),  # 2-fold before: one state per <g>-orbit, g of order 2
    ("C8", [1, 1, 4, 7, 10, 7, 4, 1, 1]),  # cyclic: the rotations are the whole group
    ("C2xC4", None),
    ("C3xC3", None),
    ("C2xC2xC3", None),  # a cyclic factor of order e is not in the presentation
    ("C2xC6", None),
])
def test_orbit_dp_keeps_one_state_per_orbit_of_the_whole_group(spec, states, monkeypatch):
    # order 12 is the first where an element of maximal order (6) has a complement, and no
    # symbolic oracle reaches it, so each polynomial is also evaluated at a seeded integer
    # point against the exact permanent or determinant of the numeric table
    group = parse_group(spec)
    want = burnside_states(group)
    if states is not None:
        assert want == states
    sizes = layer_sizes(monkeypatch)
    rng = random.Random(spec)
    for variant in ("plain", "hat"):
        table = build_table(group, variant)
        for signed in (False, True):
            sizes.clear()
            got = _subset_dp(table, signed)
            assert [1] + sizes == want, (variant, signed)
            point = [rng.randint(-4, 4) for _ in range(group.order)]
            value = sum(c * math.prod(map(pow, point, exp)) for exp, c in got.terms.items())
            rows = [[point[k] for k in row] for row in table.grid]
            assert value == (numeric_determinant if signed else numeric_permanent)(rows), (variant, signed)


def test_orbit_dp_matches_unreduced_dp_c11(monkeypatch):
    hat = build_table(parse_group("C11"), "hat")
    det = determinant(hat)
    assert det.term_count() == 32066
    monkeypatch.setattr(cayley, "ORBIT_MIN_PAIRS", math.inf)  # one state per column set
    assert det == _subset_dp(hat, signed=True)


def test_wide_toeplitz_permanent_support():
    # n=2 stretched tables: one even-weight monomial per split of l
    per = permanent(build_table(C2, "toeplitz", size=10))
    assert per.term_count() == sym_dim(2, 10, 0)
    assert all((e[1] % 2 == 0) for e in per.support())


# ---------------------------------------------------------------- determinants


def test_determinant_c2_frozen():
    assert determinant(build_table(C2, "plain")) == poly(2, {(2, 0): 1, (0, 2): -1})


def test_determinant_factorization_matches_leibniz():
    # key orbits of size 1 to 8 under the translation, stabilized monomials such as
    # (x_0 ... x_(n-1))^k, and C1, whose x_0 is packed as (n+1)^n - 1
    for g in abelian_groups_up_to(8):
        for variant in ("plain", "hat"):
            t = build_table(g, variant)
            assert determinant(t, "factored") == determinant(t, "leibniz"), (g.spec_string, variant)


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
    # the factored route reads the signs off the element lists: rows -i mod n on the toeplitz
    # table, columns -j on the hat table; a stretched table repeats its columns
    for spec in ("C2", "C3", "C4", "C5"):
        g = parse_group(spec)
        t = build_table(g, "toeplitz")
        want = determinant(build_table(g, "hat"), "leibniz")
        assert determinant(t, "leibniz") == want
        assert determinant(t, "factored") == want
        stretched = build_table(g, "toeplitz", size=g.order + 2)
        assert determinant(stretched, "factored") == IntPolynomial.zero(g.order) == determinant(stretched, "leibniz")


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
        lex_parity = {}  # each ordering of each column subset -> its lex-pattern parity
        for s in range(l + 1):
            for cols in itertools.combinations(range(l), s):
                lex_parity.update(zip(itertools.permutations(cols), _lex_parities(s)))
        for perm in itertools.permutations(range(l)):
            for k in range(l + 1):  # prefix perm[:k] on the columns A, suffix perm[k:] on B
                head, rest = sorted(perm[:k]), sorted(perm[k:])
                cross = sum(a > b for a in head for b in rest)
                assert _cross_parity(head) == cross & 1, (head, rest)
                parity = lex_parity[perm[:k]] ^ lex_parity[perm[k:]] ^ _cross_parity(head)
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
    # factored short-circuits tables with repeated columns to the zero polynomial
    assert determinant(build_table(C2, "extended"), "factored").term_count() == 0
    # and needs row and column elements that each list the group once otherwise
    with pytest.raises(ValueError):
        determinant(cayley.CayleyMatrix(C3, "plain", (0, 0, 1), (0, 1, 2)), "factored")


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
    for n, l in CONJECTURE_GRID:  # the cells check conjecture compares with the toeplitz permanent
        g = parse_group(f"C{n}")
        assert hall_support(g, l) == _zero_sum_filter(g, l), (n, l)
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
        assert determinant_term_count(g) == determinant(build_table(g, "plain"), "leibniz").term_count()


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
