"""The one refusal rule, errors.guard, and the limits decided through it."""

import ast
import io
import math
import re
from pathlib import Path

import pytest

from abelinv import cayley, cli, groups, molien, numtheory
from abelinv.cayley import build_table, check_action_identities, hall_support, refuse
from abelinv.errors import GuardExceeded, guard
from abelinv.groups import element_sum_counts, parse_group

SRC = Path(__file__).resolve().parent.parent / "src" / "abelinv"

C3 = parse_group("C3")
C3_PLAIN = build_table(C3, "plain")


def test_guard_admits_its_limit_and_refuses_one_more():
    assert guard("x", 7, 7) == 7
    assert guard("x", 0, 7) == 0
    with pytest.raises(GuardExceeded) as info:
        guard("work units", 8, 7)
    assert (info.value.what, info.value.size, info.value.limit) == ("work units", 8, 7)
    assert str(info.value) == "work units: size 8 exceeds guard 7"


def _factor_prime():
    numtheory._factorization.cache_clear()  # a kept result would decide no guard
    return numtheory.prime_factorization(10007)


def _dim():
    args = cli._PARSER.parse_args(["dim", "a", "--group", "C5", "--m", "3"])
    return cli._cmd_dim(args, io.StringIO())


# (module, limit constant, what, a small input that reaches the guard).  The tables of the route
# guards are built before the limit is set, so that build_table's own DP_GUARD test does not answer
LIMITS = [
    (cayley, "GRID_GUARD", "grid cells", lambda: build_table(C3, "extended").grid),
    (cayley, "DP_GUARD", "table cells", lambda: build_table(parse_group("C1"), "toeplitz", 7)),
    (cayley, "DP_GUARD", "subset DP states", lambda: refuse(C3_PLAIN, "per")),
    (cayley, "LEIBNIZ_GUARD", "Leibniz permutations", lambda: refuse(C3_PLAIN, "det", "leibniz")),
    (cayley, "FACTORED_GUARD", "factored determinant", lambda: refuse(C3_PLAIN, "det", "factored")),
    (cayley, "ENUM_GUARD", "support enumeration", lambda: hall_support(C3, 3)),
    (cayley, "ACTION_GUARD", "sampled action steps", lambda: check_action_identities(C3, samples=2)),
    (groups, "SUM_COUNT_GUARD", "element-sum counting", lambda: element_sum_counts(C3, 3, True)),
    (cli, "DIM_GUARD", "dimension binomial bits", _dim),
    (molien, "SERIES_GUARD", "series coefficients", lambda: molien.sym_series(C3, 0, 5)),
    (molien, "RECIPROCITY_GUARD", "reciprocity comparisons", lambda: molien.check_reciprocity(3, 4)),
    (molien, "IDENTITY_GUARD", "identity series terms", lambda: molien.check_identity("log3var", 3)),
    (numtheory, "FACTOR_GUARD", "trial divisions", _factor_prime),
]


@pytest.mark.parametrize("module, name, what, call", LIMITS, ids=[case[2] for case in LIMITS])
def test_each_limit_admits_an_estimate_equal_to_it_and_refuses_it_one_below(monkeypatch, module, name, what, call):
    # the estimate the input's guard decides at the real limit, read through the module's guard
    estimates = []
    monkeypatch.setattr(module, "guard", lambda w, size, limit: estimates.append((w, size)) or guard(w, size, limit))
    call()
    sizes = {size for w, size in estimates if w == what}
    if not sizes:  # trial division calls the rule only past its last divisor, to refuse: read it there
        monkeypatch.setattr(module, name, 0)
        with pytest.raises(GuardExceeded) as info:
            call()
        sizes = {info.value.size}
    (estimate,) = sizes
    assert estimate > 1
    monkeypatch.setattr(module, name, estimate)
    call()
    monkeypatch.setattr(module, name, estimate - 1)
    with pytest.raises(GuardExceeded) as info:
        call()
    assert (info.value.what, info.value.size, info.value.limit) == (what, estimate, estimate - 1)


def test_exhaustive_action_sweep_admits_8_factorial_and_refuses_9_factorial():
    # its limit is 8! itself, no constant: order 8 is admitted at the limit, order 9 refused
    assert check_action_identities(parse_group("C2xC2xC2")).ok
    with pytest.raises(GuardExceeded) as info:
        check_action_identities(parse_group("C9"))
    assert (info.value.what, info.value.size, info.value.limit) == (
        "exhaustive permutation sweep", math.factorial(9), math.factorial(8))


def test_guard_exceeded_is_constructed_only_by_the_rule():
    makers = [path.name for path in sorted(SRC.glob("*.py")) if re.search(r"GuardExceeded\(", path.read_text())]
    assert makers == ["errors.py"]


def test_a_tables_shape_is_read_off_its_lists_only_by_its_listing_and_the_leibniz_guard():
    # the subset DP and factored guards read the shape through CayleyMatrix.listing alone; the input
    # check and the Leibniz oracle's own column test are the only other readers of the two lists
    readers = set()
    for node in ast.walk(ast.parse((SRC / "cayley.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id in ("Counter", "set", "sorted")
                        and any(isinstance(arg, ast.Attribute) and arg.attr in ("rows", "cols") for arg in call.args)):
                    readers.add(node.name)
    assert {"listing", "_leibniz_guard"} <= readers <= {"listing", "__post_init__", "_leibniz_guard"}
