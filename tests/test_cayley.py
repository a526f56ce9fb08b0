"""Group multiplication tables, symbolic permanents/determinants, checkers."""

import ast
import functools
import io
import itertools
import math
import random
import time
from collections import Counter
from pathlib import Path

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
from abelinv import cayley, cli
from abelinv.cayley import (
    DP_GUARD,
    FACTORED_GUARD,
    GRID_GUARD,
    LEIBNIZ_GUARD,
    VARIANTS,
    _accumulate_leibniz,
    _class_dp,
    _cross_parity,
    _dp_pairs,
    _lex_parities,
    _relabeling,
    _shift_digits,
    _subset_dp,
    _symmetry,
    _unpack,
    refuse,
)
from abelinv.cli import CONJECTURE_GRID
from abelinv.errors import guard
from abelinv.groups import iter_abelian_groups_up_to

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


@pytest.mark.parametrize("rows, cols", [
    ((0, 1, 2, 3), (0, 1, 2, 3, 0)),  # more columns than rows
    ((0, 1, 2, 3, 0), (0, 1, 2, 3)),  # more rows than columns
    ((0, 1, 2, 7), (0, 1, 2, 3)),  # an element index past the group
    ((0, 1, 2, 3), (-1, 1, 2, 3)),  # a negative index, which a list would read from its end
    ((), ()),  # the empty table
])
def test_a_malformed_listing_is_rejected(rows, cols):
    with pytest.raises(ValueError, match="l >= 1 row and l column elements in 0..3"):
        cayley.CayleyMatrix(C4, "plain", rows, cols)


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
            assert permanent(cayley.CayleyMatrix(g, "plain", tuple(order), tuple(order))) == base


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


def subset_dp(table, signed):
    """The subset-DP kernel itself, on the plan its guard decides for the table."""
    return _subset_dp(table, signed, refuse(table, "det" if signed else "per"))


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
    assert plain12.listing.sign != 0
    assert table_estimate(plain12, True) == 14059916 <= DP_GUARD
    assert table_estimate(plain12, False) == 148321344  # one state per subset
    c2c6 = build_table(parse_group("C2xC6"), "hat")
    assert c2c6.listing.sign != 0
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
                translated = table.listing.sign != 0
                assert translated == (table.size == n and variant in ("plain", "hat", "toeplitz")), label
                assert _dp_pairs(table.size, sizes, n, None) == table_estimate(table, False), label
                if translated:
                    assert _dp_pairs(n, sizes, n, group.order_profile()) == table_estimate(table, True), label
    # each route's guard is decided from the element lists: a refused table's grid is never built
    for spec, variant, op, algorithm, what, size in [
            ("C13", "plain", "per", "auto", "subset DP states", 68705262),
            ("C2xC2xC2", "block2n", "per", "auto", "subset DP states", 83248155),
            ("C13", "hat", "det", "factored", "factored determinant", math.comb(25, 13)),
            ("C12", "plain", "det", "leibniz", "Leibniz permutations", math.factorial(11))]:
        table = build_table(parse_group(spec), variant)
        with pytest.raises(GuardExceeded) as info:
            refuse(table, op, algorithm)
        assert (info.value.what, info.value.size) == (what, size), spec
        assert "grid" not in vars(table), spec
    # repeated columns make the determinant 0 before any DP, so nothing is refused
    refuse(build_table(parse_group("C2xC2xC2"), "block2n"), "det")
    refuse(build_table(parse_group("C12"), "plain"), "det")
    # the whole-group orbits admit every presentation of order 12 and no plain table beyond
    wide = [g for g in abelian_groups_up_to(16) if g.order >= 12] + [parse_group(s) for s in ("C12", "C2xC6")]
    for group in wide:
        table = build_table(group, "plain")
        for op in ("per", "det"):
            if group.order == 12:
                refuse(table, op)
            else:
                with pytest.raises(GuardExceeded):
                    refuse(table, op)
                assert "grid" not in vars(table), group


def test_cell_guard_refuses_long_tables_before_their_lists():
    # build_table counts the l^2 cells from l alone: C1 admits l = 7071 and refuses 7072 on, before
    # any element list is made, whatever route would take the table
    c1 = parse_group("C1")
    assert 7071**2 <= DP_GUARD < 7072**2
    assert permanent(build_table(c1, "toeplitz", size=7071)).coefficient([7071]) == math.factorial(7071)
    for l in (7072, 10**4, 4 * 10**7):
        t0 = time.perf_counter()
        with pytest.raises(GuardExceeded) as info:
            build_table(c1, "toeplitz", size=l)
        assert (info.value.what, info.value.size) == ("table cells", l * l)
        assert time.perf_counter() - t0 < 1.0, l
    # the largest tables the tests and the benchmark take stay admitted
    refuse(build_table(C3, "toeplitz", size=16), "per")
    refuse(build_table(C2, "toeplitz", size=11), "per")


def test_grid_guard_refuses_a_grid_its_lists_admit():
    # only the grid's readers (the printed table, Leibniz) build it; the DP and its guard never do
    c1 = parse_group("C1")
    assert 2000**2 <= GRID_GUARD < 2001**2
    table = build_table(c1, "toeplitz", size=2001)
    with pytest.raises(GuardExceeded) as info:
        table.grid
    assert (info.value.what, info.value.size) == ("grid cells", 2001**2)
    assert permanent(table).coefficient([2001]) == math.factorial(2001)
    assert "grid" not in vars(table)


def test_translation_found_on_the_grid():
    # the record relabels the plain table over a basis: an element of maximal order (stride
    # n/e) and a complement; every other table that lists the group on both sides shares it
    assert _relabeling(parse_group("C2xC6"))[0] == [0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11]
    for spec, axes in (("C2xC6", ((2, 6), (1, 2))), ("C2xC2xC2", ((4, 2), (2, 2), (1, 2))),
                       ("C3xC3", ((3, 3), (1, 3))), ("C2xC3", ((1, 6),)), ("C2xC2xC3", ((2, 6), (1, 2))),
                       ("C5", ((1, 5),))):
        n = parse_group(spec).order
        tr = _symmetry(parse_group(spec))
        phi, _, found = _relabeling(parse_group(spec))
        assert found == axes and sorted(phi) == list(range(n)), spec

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
    for table in (build_table(C4, "toeplitz"), build_table(C4, "hat"),
                  cayley.CayleyMatrix(C4, "plain", (0, 2, 1, 3), (0, 2, 1, 3))):
        assert table.listing.sign != 0, table.variant
    for table in (build_table(C4, "extended"), build_table(C4, "block2n"), build_table(C3, "toeplitz", size=4)):
        assert table.listing.sign == 0, table.variant


def test_key_translations_agree():
    # a packed key is translated in two places, by images for the orbit means and by the
    # per-label op in the DP's pushes; both must give the key of the monomial moved by the
    # translation x_b -> x_(b + a), a = phi^-1(x)
    rng = random.Random(13)
    for group in abelian_groups_up_to(12)[1:] + [parse_group("C2xC2xC3")]:
        n, add = group.order, group.add_table
        sym = _symmetry(group)
        phi, base = _relabeling(group)[0], sym.base
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
    order = tuple(rng.sample(range(group.order), group.order))
    tables = [build_table(group, v) for v in ("plain", "hat")] + [cayley.CayleyMatrix(group, "plain", order, order)]
    return tables + ([build_table(group, "toeplitz")] if group.is_cyclic_presentation else [])


def test_orbit_dp_matches_unreduced_dp(monkeypatch):
    # every table that lists the group on both sides runs on the plain table's record here, however
    # small; the reference is the same table with the reduction out of reach, on its own entries,
    # so no table reads the result another table of its group left
    rng = random.Random(17)
    for group in abelian_groups_up_to(10)[1:] + [parse_group(s) for s in ("C6", "C4xC2")]:
        for table in square_tables(group, rng):
            cayley._plain_dp.cache_clear()
            label = (group.spec_string, table.variant, table.rows, table.cols)
            for signed in (False, True):
                op = "det" if signed else "per"
                monkeypatch.setattr(cayley, "ORBIT_MIN_ORDER", 2)
                assert refuse(table, op) is True, label
                got = subset_dp(table, signed)
                monkeypatch.setattr(cayley, "ORBIT_MIN_ORDER", math.inf)
                assert refuse(table, op) is False, label
                assert got == subset_dp(table, signed), (label, signed)


def test_orbit_table_is_the_translation_orbit_of_each_mask():
    # orbit[S] = (R, y, sign), with x the element of -y: R is the smallest mask of the orbit of S,
    # translating the columns of R by x gives S, and sign is -1 to the pairs of R it reverses;
    # read off the addition table through phi, not off the record's own tables
    for group in abelian_groups_up_to(10)[1:]:
        n, add = group.order, group.add_table
        phi = _relabeling(group)[0]
        element = {p: a for a, p in enumerate(phi)}
        orbit = _symmetry(group).orbit

        def translate(cols, x):
            # the label of each column moved by the element x, in the order of cols
            return [phi[add[element[c]][x]] for c in cols]

        for mask in range(1 << n):
            rep, y, sign = orbit[mask]
            x = group.neg_table[element[y]]
            cols = [c for c in range(n) if mask >> c & 1]
            assert rep == min(sum(1 << c for c in translate(cols, z)) for z in range(n)), (group, mask)
            moved = translate([c for c in range(n) if rep >> c & 1], x)
            assert sum(1 << c for c in moved) == mask, (group, mask)
            flips = sum(a > b for a, b in itertools.combinations(moved, 2))
            assert sign == (-1) ** flips, (group, mask)


def test_one_orbit_record_per_group():
    # plain, hat and the n x n toeplitz table are the plain table permuted, so they share its
    # record, and the permanent and the determinant share it too
    _symmetry.cache_clear()
    c8 = parse_group("C8")
    tables = [build_table(c8, v) for v in ("plain", "hat", "toeplitz")]
    for table in tables:
        permanent(table)
        determinant(table)
    assert _symmetry.cache_info().misses == 1
    # the determinant takes the signs of the two lists: the hat and the toeplitz table agree
    assert c8.inversion_sign() == -1
    assert determinant(tables[1]) == determinant(tables[2]) == -determinant(tables[0], "factored")


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


def kept(group, signed, reduced):
    """The memoized _plain_dp entry (found, layer) of a group, op and path, read without running the DP."""
    misses = cayley._plain_dp.cache_info().misses
    entry = cayley._plain_dp(group, signed, reduced)
    assert cayley._plain_dp.cache_info().misses == misses, ("no entry kept", group.spec_string, signed, reduced)
    return entry


def kept_entries():
    """How many _plain_dp entries are kept."""
    return cayley._plain_dp.cache_info().currsize


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
            cayley._plain_dp.cache_clear()  # the hat table runs its own DP
            sizes.clear()
            got = subset_dp(table, signed)
            assert [1] + sizes == want, (variant, signed)
            point = [rng.randint(-4, 4) for _ in range(group.order)]
            value = sum(c * math.prod(map(pow, point, exp)) for exp, c in got.terms.items())
            rows = [[point[k] for k in row] for row in table.grid]
            assert value == (numeric_determinant if signed else numeric_permanent)(rows), (variant, signed)


def test_orbit_dp_matches_unreduced_dp_c11(monkeypatch):
    hat = build_table(parse_group("C11"), "hat")
    det = determinant(hat)
    assert det.term_count() == 32066
    monkeypatch.setattr(cayley, "ORBIT_MIN_ORDER", math.inf)  # one state per column set
    assert det == subset_dp(hat, signed=True)


def presentations(group, rng):
    """square_tables, plus a seeded reordering whose columns swap its first two rows' elements (sign -1)."""
    rows = tuple(rng.sample(range(group.order), group.order))
    return square_tables(group, rng) + [cayley.CayleyMatrix(group, "plain", rows, rows[1::-1] + rows[2:])]


def test_square_presentations_share_one_dp_per_op():
    # each table's per and det, read from the result another presentation left (unreduced to
    # order 5, by orbit from 6), equal the table's own DP run with nothing kept; kept first from
    # the plain table, then from the last table, whose signs may differ
    rng = random.Random(41)
    for group in abelian_groups_up_to(10)[1:]:
        tables = presentations(group, rng)
        for op in (permanent, determinant):
            fresh = []
            for table in tables:
                cayley._plain_dp.cache_clear()
                fresh.append(op(table))
            for order in (tables, tables[::-1]):
                cayley._plain_dp.cache_clear()
                assert [op(table) for table in order] == (fresh if order is tables else fresh[::-1]), group
        assert {table.listing.sign for table in tables} == {1, -1}, group


def test_a_second_presentation_runs_no_dp(monkeypatch):
    calls = Counter()
    for name in ("_next_layer", "_orbit_means"):
        monkeypatch.setattr(cayley, name, lambda *args, real=getattr(cayley, name), name=name:
                            calls.update([name]) or real(*args))
    for spec in ("C4", "C2xC2", "C5", "C7", "C2xC4", "C3xC3"):
        group = parse_group(spec)
        first, *others = presentations(group, random.Random(spec))
        for op in (permanent, determinant):
            op(first)
            assert calls["_next_layer"] == group.order
            assert calls["_orbit_means"] == (group.order > 5), spec  # the reduced path from order 6
            calls.clear()
            for table in others:
                op(table)
            assert not calls, (spec, op)


def test_orbit_entry_keeps_one_digit_tuple_per_translation_orbit():
    # the reduced entry is sign-free: each kept value is the coefficient of its monomial in the
    # permanent, and in the determinant up to the table's own sign and the relabeling's
    for spec in ("C6", "C2xC3", "C8", "C2xC2xC2", "C3xC3"):
        group = parse_group(spec)
        n, add, neg = group.order, group.add_table, group.neg_table
        sym = _symmetry(group)
        hat = build_table(group, "hat")
        for signed in (False, True):
            poly = (determinant if signed else permanent)(hat)
            digits, values = kept(group, signed, True)[0]
            reps = [sym.exponents[0](d) for d in digits]  # the untranslated monomials
            orbits = {frozenset(tuple(exp[add[a][neg[g]]] for a in range(n)) for g in range(n))
                      for exp in poly.terms}
            assert len(reps) == len(orbits) == len({orbit for orbit in orbits for rep in reps if rep in orbit})
            sign = hat.listing.sign * sym.sign if signed else 1
            assert [poly.terms[rep] for rep in reps] == [sign * v for v in values], (spec, signed)


def test_tables_with_repeated_columns_run_their_dp_on_every_call(monkeypatch):
    # block2n and the toeplitz tables longer than n+1 are not bordered: they keep nothing
    sizes = layer_sizes(monkeypatch)
    for table in (build_table(parse_group("C2xC3"), "block2n"),
                  build_table(C3, "toeplitz", size=5), build_table(C4, "toeplitz", size=9)):
        results = []
        for _ in range(2):
            sizes.clear()
            results.append(permanent(table))
            assert len(sizes) == table.size, table.variant
        assert results[0] == results[1] and not determinant(table), table.variant
    assert kept_entries() == 0


def test_a_bordered_table_reads_the_kept_layer(monkeypatch):
    # on the orbit path the C6 extended table runs the plain table's n rows once, keeps its layer n-1
    # and the plain permanent, and a second call (or the n+1 toeplitz table) runs no row; its
    # determinant is 0.  C3's bordered tables run the class-count DP on their own rows and keep nothing
    sizes = layer_sizes(monkeypatch)
    C6 = parse_group("C6")
    extended, toeplitz = build_table(C6, "extended"), build_table(C6, "toeplitz", size=7)
    first = permanent(extended)
    assert len(sizes) == C6.order
    assert kept(C6, False, True)[1] is not None and kept_entries() == 1
    sizes.clear()
    assert permanent(extended) == permanent(toeplitz) == first
    assert permanent(build_table(C6, "plain")) == permanent(build_table(C6, "plain"), "leibniz")
    assert not sizes and not determinant(extended) and not determinant(toeplitz)
    for table in (build_table(C3, "extended"), build_table(C3, "toeplitz", size=4)):
        sizes.clear()
        assert permanent(table) == permanent(table, "leibniz")
        assert len(sizes) == table.size
    assert kept_entries() == 1  # no entry for C3


def test_small_bordered_tables_run_the_class_count_dp_and_keep_no_layer(monkeypatch):
    # below the orbit threshold every bordered table (extended, n+1 toeplitz, a reordered listing) is
    # a table like any other for _class_dp: each call runs its l rows, and no layer n-1 is kept
    sizes = layer_sizes(monkeypatch)
    rng = random.Random(48)
    for group in abelian_groups_up_to(5):
        n = group.order
        rows, cols = rng.sample(range(n), n) + [rng.randrange(n)], rng.sample(range(n), n) + [rng.randrange(n)]
        tables = [build_table(group, "extended"), cayley.CayleyMatrix(group, "plain", tuple(rows), tuple(cols))]
        if group.is_cyclic_presentation:
            tables.append(build_table(group, "toeplitz", size=n + 1))
        for table in tables:
            assert table.listing.border is not None and refuse(table, "per") is False, group
            for _ in range(2):
                sizes.clear()
                got = permanent(table)
                assert len(sizes) == table.size, group
            assert got == permanent(table, "leibniz"), (group, table.rows, table.cols)
            assert not determinant(table)
        assert kept_entries() == 0, group  # no entry, so no layer


def test_only_the_class_count_dp_and_the_orbit_path_run_the_subset_dp():
    # one unreduced DP: _class_dp runs the layers of every unreduced table, the plain one included,
    # and _plain_dp runs them once, on the orbit record
    callers = Counter()
    for node in ast.walk(ast.parse(Path(cayley.__file__).read_text())):
        if isinstance(node, ast.FunctionDef):
            callers.update(node.name for call in ast.walk(node)
                           if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_last_layers")
    assert callers == {"_class_dp": 1, "_plain_dp": 1}


def test_oracles_read_no_kept_result():
    # a kept result turned wrong changes the subset DP's answer and neither oracle's
    for spec in ("C4", "C6"):
        group = parse_group(spec)
        plain = build_table(group, "plain")
        per, det = permanent(plain), determinant(plain)
        for op in ("per", "det"):
            found = kept(group, op == "det", refuse(plain, op))[0]
            if isinstance(found, dict):
                found.update({exp: 2 * c for exp, c in found.items()})
            else:
                found[1][:] = [2 * v for v in found[1]]
        assert permanent(plain) != per and determinant(plain) != det
        assert permanent(plain, "leibniz") == per
        assert determinant(plain, "leibniz") == determinant(plain, "factored") == det


def test_bordered_path_matches_the_class_count_dp():
    # every extended table of order <= 8 and every n+1 toeplitz table of n <= 9: from order 6 the
    # expansion along its border over the plain orbit DP's layer n-1, below it the class-count DP
    # itself, whose coefficient sum is still checked
    tables = [build_table(g, "extended") for g in abelian_groups_up_to(8)]
    tables += [build_table(parse_group(f"C{n}"), "toeplitz", size=n + 1) for n in range(1, 10)]
    for table in tables:
        label = (table.group.spec_string, table.variant)
        assert table.listing.border == (0, 0), label
        got = permanent(table)
        assert got == _class_dp(table, False), label
        assert got.coefficient_sum() == math.factorial(table.size), label
    for n in range(1, 10):
        group = parse_group(f"C{n}")
        assert permanent(build_table(group, "toeplitz", size=n + 1)) == permanent(build_table(group, "extended"))


def test_reordered_bordered_tables_match_the_class_count_dp(monkeypatch):
    # r* and c* drawn from the whole group, both lists shuffled; on both paths of every group of
    # order 2-8, the orbit path forced down to order 2
    rng = random.Random(45)
    for threshold in (cayley.ORBIT_MIN_ORDER, 2):
        monkeypatch.setattr(cayley, "ORBIT_MIN_ORDER", threshold)
        for group in abelian_groups_up_to(8)[1:]:
            cayley._plain_dp.cache_clear()
            n = group.order
            for _ in range(3):
                r_star, c_star = rng.randrange(n), rng.randrange(n)
                rows, cols = list(range(n)) + [r_star], list(range(n)) + [c_star]
                rng.shuffle(rows)
                rng.shuffle(cols)
                table = cayley.CayleyMatrix(group, "plain", tuple(rows), tuple(cols))
                assert table.listing.border == (r_star, c_star), group
                assert refuse(table, "per") == (n >= threshold), group
                assert permanent(table) == _class_dp(table, False), (group, rows, cols)
                assert refuse(table, "det") is None and not determinant(table)


def mixed_listings(group, rng):
    """Seeded (rows, cols) of every kind: permuted square, bordered, a repeated row, l < n, and random."""
    n = group.order
    elements = list(range(n))
    square = rng.sample(elements, n), rng.sample(elements, n)
    bordered = [rng.sample(elements + [rng.randrange(n)], n + 1) for _ in "rc"]
    listings = [square, bordered]
    if n > 1:
        rows = rng.sample(elements, n)
        i, j = rng.sample(range(n), 2)
        rows[i] = rows[j]
        l = rng.randrange(1, n)
        listings += [(rows, rng.sample(elements, n)), (rng.sample(elements, l), rng.sample(elements, l))]
    l = rng.randint(1, n + 1)
    return listings + [(rng.choices(elements, k=l), rng.choices(elements, k=l))]


def test_mixed_listings_match_the_oracles_on_both_dp_paths(monkeypatch):
    # per group, tables of every kind drawn one after another with the kept results warm, on the
    # unreduced and (from order 2) the reduced path: auto against Leibniz, and the factored
    # determinant wherever it admits the table; it refuses a minor (l < n, no repeat) alone
    rng = random.Random(46)
    for group in abelian_groups_up_to(8):
        n = group.order
        for rows, cols in [listing for _ in range(2) for listing in mixed_listings(group, rng)]:
            table = cayley.CayleyMatrix(group, "plain", tuple(rows), tuple(cols))
            label = (group.spec_string, table.rows, table.cols)
            per, det = permanent(table, "leibniz"), determinant(table, "leibniz")
            for threshold in (math.inf, 2):
                monkeypatch.setattr(cayley, "ORBIT_MIN_ORDER", threshold)
                assert permanent(table) == per, (label, threshold)
                assert determinant(table) == det, (label, threshold)
            if table.size < n and len(set(rows)) == len(set(cols)) == table.size:
                with pytest.raises(ValueError, match="minor"):
                    determinant(table, "factored")
            else:
                assert determinant(table, "factored") == det, label


def test_bordered_guard_counts_the_plain_dp_and_the_border(monkeypatch):
    # on the orbit path the plain table's orbit estimate plus C(n+1, 2) border monomials times
    # Catalan(n-1) terms; below it the class-count DP's own pairs on the table's n+1 columns
    estimates = []
    monkeypatch.setattr(cayley, "guard", lambda what, size, limit: estimates.append(size) or guard(what, size, limit))
    for spec in ("C3", "C7", "C2xC4", "C11", "C12", "C2xC6", "C13"):
        group = parse_group(spec)
        n = group.order
        table = build_table(group, "extended")
        if n >= cayley.ORBIT_MIN_ORDER:
            want = _dp_pairs(n, [1] * n, n, group.order_profile())
            want += math.comb(n + 1, 2) * math.comb(2 * n - 2, n - 1) // n
        else:
            want = _dp_pairs(n + 1, list(table.listing.classes.values()), n, None)
        estimates.clear()
        try:
            refuse(table, "per")
        except GuardExceeded:
            assert n == 13
        assert estimates[-1] == want, spec
        if n == 3:
            assert want == 79  # column classes of sizes 2, 1, 1: 1 + 3*3 + 4*6 + 3*10 + 1*15
    assert estimates[-1] == 87634354


def test_orbit_path_starts_at_orbit_min_order(monkeypatch):
    # C5's square and bordered tables stay on the class-count DP and C6's and C2xC3's take the orbit
    # path; moved down to order 2, C2's take it and C1's, which has no orbit record, still do not
    def tables(spec):
        group = parse_group(spec)
        variants = ("plain", "hat", "extended") + (("toeplitz",) if group.is_cyclic_presentation else ())
        return [build_table(group, v) for v in variants]

    for specs, want in ((("C5",), False), (("C6", "C2xC3"), True)):
        for table in [table for spec in specs for table in tables(spec)]:
            label = (table.group.spec_string, table.variant)
            assert refuse(table, "per") is want, label
            assert refuse(table, "det") is (None if table.listing.repeated else want), label
    monkeypatch.setattr(cayley, "ORBIT_MIN_ORDER", 2)
    for spec, want in (("C1", False), ("C2", True)):
        for table in tables(spec):
            assert refuse(table, "per") is want, (spec, table.variant)


def test_trivial_group_values_on_every_route():
    # C1's tables have the one entry x0 everywhere: per = l! x0^l, det = x0 at l = 1 and 0 beyond
    group = parse_group("C1")
    tables = [build_table(group, v) for v in ("plain", "hat", "extended", "block2n")]
    tables += [build_table(group, "toeplitz", size=l) for l in (1, 2, 3)]
    for table in tables:
        l = table.size
        for op, algorithm in cayley.ROUTES:
            label = (table.variant, l, op, algorithm)
            if op == "per":
                assert permanent(table, algorithm) == poly(1, {(l,): math.factorial(l)}), label
            else:
                assert determinant(table, algorithm) == (poly(1, {(1,): 1}) if l == 1 else poly(1, {})), label


def test_c11_extended_permanent_at_a_point():
    # no symbolic oracle admits this table: its value at a seeded integer point against Ryser
    group = parse_group("C11")
    table = build_table(group, "extended")
    per = permanent(table)
    assert per.coefficient_sum() == math.factorial(12)
    assert per.term_count() == sym_dim(11, 12, 0)
    rng = random.Random(11)
    point = [rng.randint(-3, 3) for _ in range(11)]
    value = sum(c * math.prod(map(pow, point, exp)) for exp, c in per.terms.items())
    assert value == numeric_permanent([[point[k] for k in row] for row in table.grid])


def test_a_second_bordered_table_runs_no_dp(monkeypatch):
    # on the orbit path: the first bordered table runs the plain DP, every later table of the group,
    # bordered or square, reads what it kept
    calls = Counter()
    monkeypatch.setattr(cayley, "_next_layer", lambda *args, real=cayley._next_layer:
                        calls.update(["layer"]) or real(*args))
    for spec in ("C7", "C2xC4", "C3xC3"):
        group = parse_group(spec)
        n = group.order
        calls.clear()
        entries = kept_entries()
        extended = build_table(group, "extended")
        first = permanent(extended)
        assert calls["layer"] == n
        assert kept(group, False, True)[1] is not None and kept_entries() == entries + 1
        calls.clear()
        rows, cols = (1,) + tuple(range(n)), tuple(range(n - 1, -1, -1)) + (2,)
        others = [extended, cayley.CayleyMatrix(group, "plain", rows, cols), build_table(group, "plain")]
        if group.is_cyclic_presentation:
            others.append(build_table(group, "toeplitz", size=n + 1))
        results = [permanent(table) for table in others]
        assert not calls, spec
        assert results[0] == first and results[1] == _class_dp(others[1], False), spec


def test_support_checks_assert_the_coefficient_sum(monkeypatch):
    # a fault that keeps the support, here every coefficient of a permanent set to 1, passes the
    # support comparison and fails the coefficient sum, through either kernel of a bordered table:
    # the class-count DP below the orbit threshold (C1, C3; C3's block2n table too) and the border
    # expansion above it (C6)
    real = cayley._class_dp
    monkeypatch.setattr(cayley, "_class_dp", lambda matrix, signed:
                        IntPolynomial._of(matrix.nvars, dict.fromkeys(real(matrix, signed).terms, 1)))
    record = {"what": "permanent coefficient sum", "sum": 5, "expected": 24}
    assert check_extended_counts(C3).failures == [
        {"group": "C3", "table": "extended", "size": 4, **record},
        {"group": "C3", "table": "block2n", "size": 6, **record, "sum": 10, "expected": 720}]
    assert check_toeplitz_conjecture(3, 4).failures == [{"group": "C3", "table": "toeplitz", "size": 4, **record}]
    assert check_hall(max_order=1, max_order_ext=1).failures == [
        {"group": "C1", "table": "extended", "size": 2, "what": "permanent coefficient sum", "sum": 1, "expected": 2}]
    monkeypatch.setattr(cayley, "_class_dp", real)
    bordered = cayley._bordered
    monkeypatch.setattr(cayley, "_bordered", lambda *args: dict.fromkeys(bordered(*args), 1))
    assert check_toeplitz_conjecture(6, 7).failures == [
        {"group": "C6", "table": "toeplitz", "size": 7, **record, "sum": 132, "expected": 5040}]


def test_wide_toeplitz_permanent_support():
    # n=2 stretched tables: one even-weight monomial per split of l
    per = permanent(build_table(C2, "toeplitz", size=10))
    assert per.term_count() == sym_dim(2, 10, 0)
    assert all((e[1] % 2 == 0) for e in per.terms)


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
    # (n/e) C(2n-1, n) pushes: every presentation of order 12 runs, order 13 is refused
    assert 2 * math.comb(23, 12) == 2704156 <= FACTORED_GUARD < math.comb(25, 13)
    assert determinant(build_table(parse_group("C10"), "plain"), "factored").term_count() == 7492
    assert determinant(build_table(parse_group("C2xC5"), "hat"), "factored").term_count() == 7492
    for spec in ("C12", "C3xC4", "C2xC6", "C2xC2xC3"):
        group = parse_group(spec)
        for variant in ("plain", "hat", "toeplitz") if group.rank == 1 else ("plain", "hat"):
            assert refuse(build_table(group, variant), "det", "factored") in (1, -1), spec
    for spec, size in (("C13", math.comb(25, 13)), ("C2xC2xC2xC2", 8 * math.comb(31, 16))):
        for variant in ("plain", "hat"):
            with pytest.raises(GuardExceeded) as info:
                determinant(build_table(parse_group(spec), variant), "factored")
            assert (info.value.size, info.value.limit) == (size, FACTORED_GUARD)


def test_determinant_invariant_under_relabeling():
    # rows and columns move together, so the sign change squares away
    rng = random.Random(11)
    for g in (C3, C4):
        base = determinant(build_table(g, "plain"), "leibniz")
        order = list(range(g.order))
        for _ in range(3):
            rng.shuffle(order)
            got = determinant(cayley.CayleyMatrix(g, "plain", tuple(order), tuple(order)), "leibniz")
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
    assert subset_dp(table, signed=True) == det, label  # the kernel itself, on its plan


@functools.cache
def leibniz(spec, variant, signed):
    """The Leibniz permanent or determinant of a table, computed once per test session."""
    table = build_table(parse_group(spec), variant)
    return (determinant if signed else permanent)(table, "leibniz")


@pytest.mark.parametrize("spec, variant", [
    ("C9", "plain"), ("C9", "hat"), ("C3xC3", "plain"), ("C3xC3", "hat"), ("C8", "extended"),
    ("C10", "plain"), ("C2xC5", "hat"), ("C11", "plain"), ("C11", "hat"),
])
def test_subset_dp_matches_leibniz_at_guard_edge(spec, variant):
    # sizes 9 to 11, which the sampled comparison above never reaches
    table = build_table(parse_group(spec), variant)
    per = leibniz(spec, variant, False)
    assert per.coefficient_sum() == math.factorial(table.size)  # each permutation counted once
    assert per == permanent(table)
    assert leibniz(spec, variant, True) == subset_dp(table, signed=True)


def reference_expansion(table, signed):
    """Sum over every permutation of the table, one at a time, of its (signed) monomial."""
    terms = Counter()
    for perm in itertools.permutations(range(table.size)):
        exp = [0] * table.nvars
        for row, j in zip(table.grid, perm):
            exp[row[j]] += 1
        terms[tuple(exp)] += permutation_sign(perm) if signed else 1
    return IntPolynomial(table.nvars, terms)


def test_leibniz_matches_a_symmetry_free_expansion():
    # tables whose columns list the group once count only the permutations with row 0 on column 0
    # and add up the column translates of that part; the reference counts every permutation.  A
    # reordered table, and one with repeated rows, read the translations off their own column lists
    rng = random.Random(43)
    for group in abelian_groups_up_to(7) + [parse_group("C6")]:
        n = group.order
        order = tuple(rng.sample(range(n), n))
        tables = [build_table(group, v) for v in ("plain", "hat")] + [
            build_table(FiniteAbelianGroup((n,)), "toeplitz"), cayley.CayleyMatrix(group, "plain", order, order[::-1]),
            cayley.CayleyMatrix(group, "plain", tuple(rng.choices(range(n), k=n)), order)]
        for table in tables:
            for signed in (False, True):
                got = (determinant if signed else permanent)(table, "leibniz")
                assert got == reference_expansion(table, signed), (group.spec_string, table.rows, table.cols, signed)


@pytest.mark.parametrize("spec", ["C8", "C2xC4", "C2xC2xC2", "C9", "C3xC3", "C10", "C2xC5", "C11"])
def test_leibniz_matches_numeric_oracles_at_a_point(spec):
    # orders 8-11, past the symmetry-free expansion: each polynomial evaluated at a seeded integer
    # point against Ryser's permanent and Bareiss' determinant of the numeric table
    group = parse_group(spec)
    rng = random.Random(spec)
    for variant in ("plain", "hat", "toeplitz") if group.rank == 1 else ("plain", "hat"):
        table = build_table(group, variant)
        for signed in (False, True):
            got = leibniz(spec, variant, signed)
            point = [rng.randint(-4, 4) for _ in range(group.order)]
            value = sum(c * math.prod(map(pow, point, exp)) for exp, c in got.terms.items())
            rows = [[point[k] for k in row] for row in table.grid]
            assert value == (numeric_determinant if signed else numeric_permanent)(rows), (variant, signed)
            # at the all-ones point: l! permutations, and a determinant with equal rows
            assert got.coefficient_sum() == (0 if signed else math.factorial(group.order)), (variant, signed)


def test_leibniz_guard_counts_the_permutations_it_counts():
    # (l-1)! when the column elements list the group once, whatever the rows; l! otherwise
    c11 = parse_group("C11")
    for table in (build_table(c11, "plain"), build_table(c11, "toeplitz"),
                  cayley.CayleyMatrix(c11, "plain", (0,) * 11, tuple(range(10, -1, -1)))):
        refuse(table, "per", "leibniz")
    for table, size in ((build_table(parse_group("C12"), "hat"), math.factorial(11)),
                        (build_table(C2, "toeplitz", size=11), math.factorial(11)),
                        (build_table(parse_group("C10"), "extended"), math.factorial(11))):
        with pytest.raises(GuardExceeded) as info:
            refuse(table, "det", "leibniz")
        assert (info.value.size, info.value.limit) == (size, LEIBNIZ_GUARD)


def test_leibniz_kernel_runs_the_plan_its_guard_decided(monkeypatch):
    # the plan is whether the columns list the group once; the route reads no part of the subset DP
    # and no part of the table's listing
    c4 = parse_group("C4")
    tables = [build_table(c4, v) for v in ("plain", "hat", "extended", "toeplitz")]
    tables += [build_table(C2, "toeplitz", size=5), cayley.CayleyMatrix(c4, "plain", (0, 1, 2, 3), (3, 1, 0, 2))]
    expected = [(permanent(t), determinant(t)) for t in tables]

    def forbidden(*args):
        raise AssertionError("the Leibniz route read a part of the subset DP")

    for name in ("_Symmetry", "_symmetry", "_relabeling", "_plain_dp"):
        monkeypatch.setattr(cayley, name, forbidden)
    # nor the normal form the other guards read: a property overrides the value each table cached
    monkeypatch.setattr(cayley.CayleyMatrix, "listing", property(forbidden))
    for table, (per, det) in zip(tables, expected):
        plans = {op: refuse(table, op, "leibniz") for op in ("per", "det")}
        assert plans == dict.fromkeys(plans, sorted(table.cols) == list(range(table.nvars))), table
        assert cayley._planned(table, "per", plans["per"], "leibniz") == per, table
        assert cayley._planned(table, "det", plans["det"], "leibniz") == det, table


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
    # every group of order <= 10, plain and hat, and the n x n toeplitz tables: layers of degree
    # prime to the exponent and not, strides n/e = 1, 2, 3 and 4, and stabilized monomials
    for g in abelian_groups_up_to(10) + [parse_group(s) for s in ("C6", "C10")]:
        for variant in ("plain", "hat", "toeplitz") if g.rank == 1 else ("plain", "hat"):
            t = build_table(g, variant)
            assert determinant(t) == determinant(t, "factored"), (g.spec_string, variant)


@pytest.mark.parametrize("spec", ["C12", "C2xC6"])
def test_factored_determinant_at_order_12(spec):
    # order 12 first has layers of degree k with gcd(k, e) = 6: C12 at k = 6, where each free orbit's
    # 12 keys fall into 2 sums of 6 keys, and C2xC6 at k = 6 with stride n/e = 2.  No symbolic oracle
    # reaches it, so each determinant is evaluated at a seeded integer point against the numeric
    # table's (Bareiss)
    group = parse_group(spec)
    rng = random.Random(spec)
    for variant in ("plain", "hat"):
        table = build_table(group, variant)
        det = determinant(table, "factored")
        point = [rng.randint(-4, 4) for _ in range(group.order)]
        value = sum(c * math.prod(map(pow, point, exp)) for exp, c in det.terms.items())
        assert value == numeric_determinant([[point[k] for k in row] for row in table.grid]), variant


def test_determinant_algorithm_dispatch():
    with pytest.raises(ValueError):
        determinant(build_table(C2, "plain"), "ryser")
    # factored short-circuits a table with a repeated row or column to the zero polynomial, as auto
    # does before any DP
    assert determinant(build_table(C2, "extended"), "factored").term_count() == 0
    repeated_row = cayley.CayleyMatrix(C3, "plain", (0, 0, 1), (0, 1, 2))
    assert refuse(repeated_row, "det") is None
    assert determinant(repeated_row, "factored") == IntPolynomial.zero(3) == determinant(repeated_row, "leibniz")
    # and refuses only a minor (l < n), outside its domain
    with pytest.raises(ValueError, match="minor"):
        determinant(cayley.CayleyMatrix(C3, "plain", (0, 1), (0, 2)), "factored")


# ---------------------------------------------------------------- supports and counts


def test_hall_support_c3_frozen():
    assert hall_support(C3, 3) == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}


def test_support_guard_binomials_stop_at_2_to_the_256():
    # exact below 2^256, where the guard's message prints digits; a lower bound of at least 2^256
    # above it, which prints as "2^k or more" and is refused all the same
    for a in range(0, 420, 7):
        for b in range(a + 1):
            got, exact = cayley._comb_capped(a, b), math.comb(a, b)
            assert got == exact if exact.bit_length() <= 256 else 2**256 <= got <= exact, (a, b)
    assert 2**256 <= cayley._comb_capped(2 * 10**6 - 1, 10**6 - 1) < 2**300  # about 260 steps


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
        assert set(per.terms) <= hall_support(g, g.order)


def test_term_counts_frozen():
    assert permanent_term_count(C4) == 10
    assert determinant_term_count(C4) == 10
    assert permanent_term_count(parse_group("C6")) == 80
    assert determinant_term_count(parse_group("C6")) == 68
    assert permanent_term_count(V4) == 11
    assert determinant_term_count(V4) == 11


def test_permanent_term_count_matches_the_support_oracle():
    # the series coefficient (the paper's theorem) against the zero-sum enumeration
    for g in abelian_groups_up_to(10):
        assert permanent_term_count(g) == len(hall_support(g, g.order)), g.spec_string


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
    # gammas fail, in element order, and the other polynomial still passes; the
    # checker runs the auto route's kernel on the plan its own guard returned
    op = {"permanent": "per", "determinant": "det"}[kernel]
    guard, real = cayley.ROUTES[op, "auto"]

    def bumped(matrix, signed, plan):
        poly = real(matrix, signed, plan)
        power = (poly.nvars,) + (0,) * (poly.nvars - 1)
        return IntPolynomial(poly.nvars, {**poly.terms, power: poly.coefficient(power) + 1})

    monkeypatch.setitem(cayley.ROUTES, (op, "auto"), (guard, bumped))
    for g in (C3, C4, V4, parse_group("C2xC3")):
        identity, *moved = g.elements()
        assert not any(identity)
        # the bumped coefficient also moves the polynomial's value at x = 1, the all-ones table
        want = math.factorial(g.order) if kernel == "permanent" else 0
        total = {"what": f"{kernel} coefficient sum", "sum": want + 1, "expected": want}
        assert check_invariance(g).failures == [total] + [{"gamma": list(gamma), "what": what} for gamma in moved]


@pytest.mark.parametrize("spec, total", [("C6", 722), ("C2xC3", 726), ("C7", 5041), ("C8", 40322)])
def test_invariance_check_catches_a_changed_orbit_mean(monkeypatch, spec, total):
    # the orbit tail writes each mean to every translate, so one wrong mean leaves the permanent
    # translation invariant; only its value at the all-ones table, n!, shows the fault
    real = cayley._orbit_means

    def bumped(poly, images, chis):
        out = real(poly, images, chis)
        out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(cayley, "_orbit_means", bumped)
    g = parse_group(spec)
    want = {"what": "permanent coefficient sum", "sum": total, "expected": math.factorial(g.order)}
    assert want in check_invariance(g).failures


def counted_guards(monkeypatch):
    """Wrap the guard of every auto and factored route; the list records each decision's signedness."""
    calls = []
    for key, (guard, kernel) in list(cayley.ROUTES.items()):
        if key[1] in ("auto", "factored"):
            def counted(table, signed, guard=guard):
                calls.append(signed)
                return guard(table, signed)
            monkeypatch.setitem(cayley.ROUTES, key, (counted, kernel))
    return calls


def test_checkers_decide_each_guard_once(monkeypatch):
    # each checker runs its kernels on the plans its own pre-guard returned
    calls = counted_guards(monkeypatch)
    assert check_invariance(parse_group("C6")).ok
    assert calls == [False, True]
    calls.clear()
    assert check_lehmer_congruence(5).ok  # the auto permanent, the factored and the auto determinant
    assert calls == [False, True, True]
    calls.clear()
    assert check_extended_counts(C3).ok
    assert calls == [False, False]
    calls.clear()
    assert check_hall(4, 3).ok
    # one plain table per group of order <= 4, one extended table per group of order <= 3
    assert calls == [False] * (len(list(iter_abelian_groups_up_to(4))) + len(list(iter_abelian_groups_up_to(3))))


@pytest.mark.parametrize("argv, guards, builds", [
    (["check", "invariance", "--group", "C6"], [False, True], 1),
    (["check", "extended", "--group", "C3"], [False, False], 2),
    (["check", "hall", "--max-order", "4", "--max-order-ext", "3"], [False] * 8, 8),
    (["check", "conjecture", "--n", "3", "--l", "4"], [False], 1),
    (["check", "lehmer"], [False, True, True] * 3, 3),
    (["check", "lehmer", "--p", "5"], [False, True, True], 1),
])
def test_cli_checks_build_and_guard_each_table_once(monkeypatch, argv, guards, builds):
    # the checker plans its tables, and the CLI decides no guard of its own on top
    calls = counted_guards(monkeypatch)
    built = []
    real = cayley.build_table
    monkeypatch.setattr(cayley, "build_table", lambda *args, **kw: built.append(args) or real(*args, **kw))
    assert cli.run(argv, io.StringIO()) == 0
    assert (calls, len(built)) == (guards, builds)


def test_check_conjecture_guards_every_grid_table_before_the_first_kernel(monkeypatch):
    events = []
    guard, kernel = cayley.ROUTES["per", "auto"]

    def counted_guard(table, signed):
        events.append(("guard", table.variant))
        return guard(table, signed)

    def counted_kernel(table, signed, plan):
        events.append(("kernel", table.variant))
        return kernel(table, signed, plan)

    monkeypatch.setitem(cayley.ROUTES, ("per", "auto"), (counted_guard, counted_kernel))
    assert cli.run(["check", "conjecture"], io.StringIO()) == 1
    # all 18 cells are planned; the grid runs 17, halting at its (4, 6) counterexample
    assert events == [("guard", "toeplitz")] * len(CONJECTURE_GRID) + [("kernel", "toeplitz")] * 17
    events.clear()
    # `check all` plans the conjecture mode with the others, before its first mode runs
    assert cli.run(["check", "all"], io.StringIO()) == 1
    first_kernel = next(i for i, (what, _) in enumerate(events) if what == "kernel")
    assert events[:first_kernel].count(("guard", "toeplitz")) == len(CONJECTURE_GRID)


def test_check_all_builds_and_guards_every_table_before_the_first_kernel(monkeypatch):
    # every route guard and kernel, the factored determinant's included, and every table build
    events = []
    for key, (guard, kernel) in list(cayley.ROUTES.items()):
        def counted_guard(table, signed, guard=guard):
            events.append("guard")
            return guard(table, signed)

        def counted_kernel(table, signed, plan, kernel=kernel):
            events.append("kernel")
            return kernel(table, signed, plan)
        monkeypatch.setitem(cayley.ROUTES, key, (counted_guard, counted_kernel))
    real = cayley.build_table
    monkeypatch.setattr(cayley, "build_table", lambda *args, **kw: events.append("build") or real(*args, **kw))
    assert cli.run(["check", "all"], io.StringIO()) == 1
    first_kernel = events.index("kernel")
    assert set(events[first_kernel:]) == {"kernel"}
    assert Counter(events) == {"build": 51, "guard": 64, "kernel": 63}


def test_lehmer_check_reports_a_negated_factored_determinant(monkeypatch):
    # the check reads the determinant through the factored route as "determinant"; negated, each pure
    # power x_i^p keeps coefficient -c - 1 against the target's 1, which p does not divide
    det = determinant(build_table(parse_group("C5"), "hat"), "factored")
    guard, real = cayley.ROUTES["det", "factored"]
    monkeypatch.setitem(cayley.ROUTES, ("det", "factored"), (guard, lambda *args: -real(*args)))
    powers = [tuple(5 * (t == i) for t in range(5)) for i in range(5)]
    assert check_lehmer_congruence(5).failures == [
        {"polynomial": "determinant", "exponents": list(exp), "coeff": -det.coefficient(exp) - 1, "modulus": 5}
        for exp in sorted(powers)]


def test_lehmer_check_reports_a_negated_dp_determinant(monkeypatch):
    # the check also reads the determinant through the subset DP, as "determinant (auto)": with the
    # orbit tail's sign negated (the reduced path, so C7 alone) each pure power x_i^7 keeps
    # coefficient -c - 1 against the target's 1, which 7 does not divide; C3 and C5 run unreduced
    det = determinant(build_table(parse_group("C7"), "hat"), "factored")
    real = cayley._symmetry
    monkeypatch.setattr(cayley, "_symmetry", lambda group: real(group)._replace(sign=-real(group).sign))
    powers = [tuple(7 * (t == i) for t in range(7)) for i in range(7)]
    assert check_lehmer_congruence(7).failures == [
        {"polynomial": "determinant (auto)", "exponents": list(exp), "coeff": -det.coefficient(exp) - 1, "modulus": 7}
        for exp in sorted(powers)]
    assert check_lehmer_congruence(3).ok and check_lehmer_congruence(5).ok


def test_library_and_cli_refuse_a_huge_extended_check_alike():
    # the extended table is built and guarded before the block2n table is built, as the CLI does
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded) as info:
        check_extended_counts(parse_group("C5000"))
    assert time.perf_counter() - t0 < 1.0
    assert info.value.what == "subset DP states"


def test_hall_check_refuses_at_its_first_refused_table():
    # the groups are made as the guards read them, so no list of all 226610 groups of order
    # <= 100000 (about 2 s) comes first
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded) as info:
        check_hall(100000, 5)
    assert time.perf_counter() - t0 < 1.0
    assert info.value.size == 68705262  # C13's plain permanent, the first order the DP guard refuses


def test_action_identities_exhaustive():
    for g in (C3, C4, V4):
        report = check_action_identities(g)
        assert report.ok, report.failures[:3]
        assert report.parameters["mode"] == "exhaustive"


def test_exhaustive_actions_report_a_supported_vector_no_permutation_realizes(monkeypatch):
    real = cayley.hall_support
    monkeypatch.setattr(cayley, "hall_support", lambda g, d: real(g, d) | {(2, 1, 0)})  # 1 != 0 in C3
    report = check_action_identities(C3)
    assert report.failures == [{"monomial": [2, 1, 0], "i": i, "j": (k - i) % 3, "what": "pair not realized"}
                               for k in (0, 1) for i in range(3)]


def test_exhaustive_actions_report_a_permutation_monomial_outside_the_support(monkeypatch):
    real = cayley.hall_support
    monkeypatch.setattr(cayley, "hall_support", lambda g, d: real(g, d) - {(0, 3, 0)})
    report = check_action_identities(C3)
    assert report.failures == [{"monomial": [0, 3, 0], "what": "monomial not zero-sum"}]


def test_action_identities_sampled_deterministic():
    g = parse_group("C6")
    r1 = check_action_identities(g, samples=50)
    r2 = check_action_identities(g, samples=50)
    assert r1.ok and r2.ok
    assert r1.parameters == r2.parameters
    assert r1.parameters["mode"] == "sampled-50"


def test_sampled_realization_still_catches_a_wrong_star_monomial(monkeypatch):
    # the realization pass reads the star monomials of the sign/monomial pass,
    # so one wrong star monomial must fail both checks
    g = parse_group("C6")
    sg = g.add_table[1]
    pi = tuple(random.Random(0).sample(range(6), 6))  # the first permutation sampled
    target = tuple(sg[pi[sg[i]]] for i in range(6))
    assert target != pi
    real = cayley._table_monomial

    def wrong_for_target(add, perm):
        mono = real(add, perm)
        return tuple(k + (t == 0) for t, k in enumerate(mono)) if tuple(perm) == target else mono

    monkeypatch.setattr(cayley, "_table_monomial", wrong_for_target)
    report = check_action_identities(g, samples=20)
    whats = [f["what"] for f in report.failures]
    assert {"pi": list(pi), "gamma": list(g.elements()[1]), "what": "star changed monomial"} in report.failures
    assert "orbit construction failed" in whats
    assert whats.index("star changed monomial") < whats.index("orbit construction failed")


def test_sampled_actions_report_a_wrong_inverse_monomial(monkeypatch):
    g = parse_group("C6")
    pi = tuple(random.Random(0).sample(range(6), 6))  # the first permutation sampled
    inverse = tuple(sorted(range(6), key=pi.__getitem__))
    assert inverse != pi
    real = cayley._table_monomial

    def wrong_for_inverse(add, perm):
        mono = real(add, perm)
        return tuple(k + (t == 0) for t, k in enumerate(mono)) if tuple(perm) == inverse else mono

    monkeypatch.setattr(cayley, "_table_monomial", wrong_for_inverse)
    report = check_action_identities(g, samples=20)
    assert [f for f in report.failures if f["what"] == "inverse changed monomial"] == [
        {"pi": list(pi), "what": "inverse changed monomial"}]


def _flip_sign_of(monkeypatch, target):
    """Make cayley._permutation_sign wrong at one permutation; returns the wrong sign."""
    real = cayley._permutation_sign

    def flipped(perm):
        return -real(perm) if tuple(perm) == target else real(perm)

    monkeypatch.setattr(cayley, "_permutation_sign", flipped)
    return flipped


def _star_sign_failures(group, perms, sign):
    """The star-sign records, recomputed for every (pi, gamma) with no shared facts."""
    add, els = group.add_table, group.elements()
    failures = []
    for pi in perms:
        for g, sg in enumerate(add):
            star = tuple(sg[pi[sg[i]]] for i in range(len(pi)))
            if sign(star) != sign(pi):
                failures.append({"pi": list(pi), "gamma": list(els[g]), "what": "star changed sign"})
    return failures


def test_fact_cache_reports_every_star_with_a_wrong_sign(monkeypatch):
    # each permutation's sign is computed once per call and then read from the
    # call's facts: a wrong sign of one star must still fail at every (pi, gamma)
    # whose star it is, in loop order, and nowhere else
    g = parse_group("C6")
    sg = g.add_table[1]
    rng = random.Random(0)
    perms = [tuple(rng.sample(range(6), 6)) for _ in range(20)]  # the permutations sampled
    target = tuple(sg[perms[0][sg[i]]] for i in range(6))
    assert target not in perms
    sign = _flip_sign_of(monkeypatch, target)
    hits = [{"pi": list(pi), "gamma": list(g.elements()[x]), "what": "star changed sign"}
            for pi in perms for x, row in enumerate(g.add_table)
            if tuple(row[pi[row[i]]] for i in range(6)) == target]
    assert hits[0] == {"pi": list(perms[0]), "gamma": list(g.elements()[1]), "what": "star changed sign"}
    report = check_action_identities(g, samples=20)
    assert report.failures == hits == _star_sign_failures(g, perms, sign)


def test_exhaustive_fact_cache_matches_a_recomputing_loop(monkeypatch):
    # exhaustively the wrong-signed star is also swept as a pi, so all of its stars fail too
    g = parse_group("C4")
    sg = g.add_table[1]
    target = tuple(sg[sg[i]] for i in range(4))  # the star of the identity, the first permutation
    sign = _flip_sign_of(monkeypatch, target)
    expected = _star_sign_failures(g, list(itertools.permutations(range(4))), sign)
    assert {tuple(f["pi"]) for f in expected} > {target}
    assert check_action_identities(g).failures == expected


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


def test_hall_check_compares_the_support_size_with_the_series(monkeypatch):
    real = cayley.sym_series
    trivial = parse_group("C1")  # its series is 1/(1 - t): adds 1 to every coefficient
    monkeypatch.setattr(cayley, "sym_series", lambda g, i, order: real(g, i, order) + real(trivial, 0, order))
    report = check_hall(max_order=2, max_order_ext=1)
    assert report.failures == [
        {"group": "C1", "table": "plain", "count": 1, "dimension": 2, "what": "count"},
        {"group": "C2", "table": "plain", "count": 2, "dimension": 3, "what": "count"},
        {"group": "C1", "table": "extended", "count": 1, "dimension": 2, "what": "count"},
    ]


def test_hall_check_reads_the_plain_dimension_through_permanent_term_count(monkeypatch):
    real = cayley.permanent_term_count
    monkeypatch.setattr(cayley, "permanent_term_count", lambda group: real(group) + 1)
    assert check_hall(6, 5).failures == [
        {"group": g.spec_string, "table": "plain", "count": real(g), "dimension": real(g) + 1, "what": "count"}
        for g in iter_abelian_groups_up_to(6)]


def test_extended_check_reports_a_vector_the_prediction_drops(monkeypatch):
    real = cayley.hall_support
    dropped = max(real(V4, 5))
    monkeypatch.setattr(cayley, "hall_support", lambda g, d: real(g, d) - {dropped} if d == 5 else real(g, d))
    dimension = sym_series(V4, 0, 5).coefficient(5)
    assert check_extended_counts(V4).failures == [
        {"table": "extended", "exponents": list(dropped), "what": "unexpected"},
        {"table": "extended", "count": dimension - 1, "dimension": dimension},
    ]


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


def well_formed_tables():
    """Plain, hat and extended tables of every group of order <= 8, and toeplitz tables with l <= 9."""
    for group in abelian_groups_up_to(8):
        for variant in ("plain", "hat", "extended"):
            yield build_table(group, variant)
    for n in range(1, 9):
        for l in range(n, 10):
            yield build_table(FiniteAbelianGroup((n,)), "toeplitz", l)


def assert_well_formed(p):
    for key, coeff in p.terms.items():
        assert type(key) is tuple and len(key) == p.nvars
        assert all(type(e) is int and e >= 0 for e in key)
        assert type(coeff) is int and coeff
    assert IntPolynomial(p.nvars, p.terms) == p


def test_every_route_returns_a_well_formed_polynomial():
    # the kernels hand their dicts to IntPolynomial unchecked, so check the shape here
    routes = set()
    for table in well_formed_tables():
        rotation = list(range(1, table.nvars)) + [0]
        for op, algorithm in cayley.ROUTES:
            try:
                poly = (permanent if op == "per" else determinant)(table, algorithm)
            except GuardExceeded:
                continue
            routes.add((op, algorithm))
            for p in (poly, -poly, poly.permute_variables(rotation)):
                assert_well_formed(p)
    assert routes == set(cayley.ROUTES)


def test_unpack_reads_every_key():
    rng = random.Random(26)
    base, nvars = 14, 13
    powers = [base**i for i in range(nvars)]
    keys = [rng.randrange(base**nvars) for _ in range(20000)]
    assert list(_unpack(keys, base, powers)) == [tuple([key // p % base for p in powers]) for key in keys]
