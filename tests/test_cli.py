"""Command line interface: golden outputs, JSON schemas, exit codes."""

import io
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

import abelinv
from abelinv import cayley, molien, parse_group
from abelinv.cli import build_parser, run
from abelinv.errors import GuardExceeded
from abelinv.molien import sym_dim, sym_series


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, buf)
    return code, buf.getvalue()


def ok(argv):
    code, text = invoke(argv)
    assert code == 0, (argv, code, text)
    return text


# ---------------------------------------------------------------- dim


def test_dim_golden_values():
    assert ok(["dim", "a", "--group", "C6", "--m", "6", "--i", "0"]).strip() == "80"
    assert ok(["dim", "a", "--group", "C3", "--m", "3"]).strip() == "4"
    assert ok(["dim", "b", "--group", "C5", "--m", "2"]).strip() == "2"
    assert ok(["dim", "sw", "--group", "C3", "--p", "1", "--m", "1"]).strip() == "3"


def test_dim_json_payload():
    obj = json.loads(ok(["--json", "dim", "a", "--group", "C4", "--m", "4", "--i", "0"]))
    assert obj == {"kind": "a", "group": "C4", "n": 4, "m": 4, "i": 0, "value": 10}


@pytest.mark.parametrize("argv", [
    ["dim", "a", "--group", "C6", "--m", "6", "--i", "7"],
    ["dim", "a", "--group", "C6", "--m", "6", "--i", "-1"],
    ["dim", "sw", "--group", "C6", "--p", "1", "--m", "2", "--i", "6"],
    ["series", "bigraded", "--group", "C4", "--i", "9", "--order", "4"],
    ["oracle", "a", "--n", "4", "--m", "6", "--i", "9"],
    ["oracle", "dims", "--n", "4", "--p", "1", "--m", "2", "--i", "-3"],
])
def test_weight_out_of_range_exits_2(argv, capsys):
    assert invoke(argv) == (2, "")
    assert "out of range for C" in capsys.readouterr().err


def test_dim_requires_cyclic_presentation():
    code, _ = invoke(["dim", "a", "--group", "C2xC2", "--m", "2"])
    assert code == 2


# ---------------------------------------------------------------- series


def test_series_sym_human_and_json():
    assert ok(["series", "sym", "--group", "C3", "--i", "0", "--order", "3"]).strip() == "1 + t + 2*t^2 + 4*t^3"
    obj = json.loads(ok(["--json", "series", "sym", "--group", "C3", "--i", "0", "--order", "3"]))
    assert obj["series"] == {"order": 3, "coeffs": ["1", "1", "2", "4"]}


def test_series_ext_defaults_to_group_order():
    obj = json.loads(ok(["--json", "series", "ext", "--group", "C2xC2"]))
    assert obj["series"]["coeffs"] == ["1", "1", "0", "1", "1"]


def test_series_frontier_finishes_quickly():
    t0 = time.perf_counter()
    text = ok(["series", "sym", "--group", "C120", "--order", "2000"])
    assert time.perf_counter() - t0 < 2.0
    top = ok(["dim", "a", "--group", "C120", "--m", "2000", "--i", "0"]).strip()
    assert text.rstrip().endswith(f" + {top}*t^2000")
    obj = json.loads(ok(["--json", "series", "sym", "--group", "C120", "--order", "2000"]))
    assert obj["series"]["coeffs"][2000] == top


@pytest.mark.parametrize("argv", [
    ["series", "sym", "--group", "C120", "--order", "100000"],
    ["series", "bigraded", "--group", "C70", "--order", "3000"],
    ["series", "ext", "--group", "C2", "--order", "5000000"],
])
def test_series_guard_refuses_quickly(argv, capsys):
    t0 = time.perf_counter()
    assert invoke(argv) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert "series coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("identity, order", [("log3var", 120), ("log2var", 10**9), ("all", 10**6)])
def test_identity_guard_refuses_quickly(identity, order, capsys):
    t0 = time.perf_counter()
    assert invoke(["check", "identity", "--identity", identity, "--order", str(order)]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert "identity series terms" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "invariance", "--max-order", "13"],  # refused at C13, after seconds of smaller groups
    ["check", "hall", "--max-order", "13"],
    ["check", "all", "--max-order", "8"],  # refused at C8 block2n, in the last group-sweeping mode
    ["check", "extended", "--max-order", "8"],
])
def test_check_sweep_refuses_before_its_first_group(argv, capsys):
    # every group's guard, and for check all every mode's, is decided before the first one runs
    t0 = time.perf_counter()
    assert invoke(argv) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("refused: subset DP states: size ")


@pytest.mark.parametrize("identity, order", [("log3var", 54), ("B", 3569)])
def test_identity_frontier_passes_within_budget(identity, order):
    # the largest orders IDENTITY_GUARD admits; under 1 s each on 2 vCPUs
    t0 = time.perf_counter()
    text = ok(["check", "identity", "--identity", identity, "--order", str(order)])
    assert time.perf_counter() - t0 < 10.0
    assert text.startswith("PASS ")


@pytest.mark.parametrize("identity, order", [("log3var", 55), ("B", 3570)])
def test_identity_first_refused_order_exits_quickly(identity, order, capsys):
    t0 = time.perf_counter()
    assert invoke(["check", "identity", "--identity", identity, "--order", str(order)]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert "identity series terms" in capsys.readouterr().err


def test_series_profile_file(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"1": 1, "2": 3, "3": 2}))
    obj = json.loads(ok(["--json", "series", "ext", "--profile", str(profile)]))
    assert obj["series"]["coeffs"] == ["1", "1", "1", "4", "4", "1", "0"]
    assert obj["profile"] == {"1": 1, "2": 3, "3": 2}


@pytest.mark.parametrize("data", [
    [1, 2],  # not an object
    {"1": 1.5, "2": 1},  # non-int count
    {"1": True, "2": 1},  # bool count
    {"2": 2},  # no neutral element
    {"1": 1, "2": 2, "4": 1},  # gives the non-integral coefficient 1/2 at t^2
])
def test_series_bad_profile_exits_2(tmp_path, capsys, data):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(data))
    for kind in ("sym", "ext"):
        code, text = invoke(["series", kind, "--profile", str(profile), "--order", "6"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")


def test_series_usage_errors():
    assert invoke(["series", "sym", "--group", "C3"])[0] == 2  # missing --order
    assert invoke(["series", "sym"])[0] == 2  # neither group nor profile
    assert invoke(["series", "ext", "--group", "C3", "--profile", "x.json"])[0] == 2
    assert invoke(["series", "bigraded", "--group", "C2xC2", "--order", "4"])[0] == 2
    assert invoke(["series", "ext", "--profile", "/nonexistent/profile.json"])[0] == 2


# ---------------------------------------------------------------- cayley


def test_cayley_table_display():
    text = ok(["cayley", "table", "--group", "C3", "--variant", "toeplitz", "--l", "5"])
    assert text.splitlines()[:3] == ["x0 x1 x2 x0 x1", "x2 x0 x1 x2 x0", "x1 x2 x0 x1 x2"]


def test_cayley_per_golden_strings():
    assert ok(["cayley", "per", "--group", "C3"]).strip() == "x0^3 + 3*x0*x1*x2 + x1^3 + x2^3"
    expected = "2*x0^4 + 10*x0^2*x1*x2 + 4*x0*x1^3 + 4*x0*x2^3 + 4*x1^2*x2^2"
    assert ok(["cayley", "per", "--group", "C3", "--variant", "extended"]).strip() == expected


def test_cayley_det_golden_string():
    assert ok(["cayley", "det", "--group", "C2"]).strip() == "x0^2 - x1^2"


def test_cayley_polynomial_json_round_trip():
    from abelinv import build_table, parse_group, permanent

    obj = json.loads(ok(["--json", "cayley", "per", "--group", "C3"]))
    assert obj["terms"] == permanent(build_table(parse_group("C3"), "plain")).to_json_obj()


def test_cayley_support_listing():
    text = ok(["cayley", "support", "--group", "C3"]).splitlines()
    assert text[0] == "degree 3 count 4"
    assert text[1:] == ["0 0 3", "0 3 0", "1 1 1", "3 0 0"]
    # every variant lists the support at its table's size, counted by the invariant series
    c3 = parse_group("C3")
    for extra, size in [(["--variant", "hat"], 3), (["--variant", "extended"], 4),
                        (["--variant", "block2n"], 6), (["--variant", "toeplitz", "--l", "5"], 5)]:
        first = ok(["cayley", "support", "--group", "C3", *extra]).partition("\n")[0]
        assert first == f"degree {size} count {sym_series(c3, 0, size).coefficient(size)}", extra


def test_cayley_counts():
    obj = json.loads(ok(["--json", "cayley", "counts", "--group", "C6"]))
    assert obj["permanent_terms"] == 80
    assert obj["determinant_terms"] == 68


@pytest.mark.parametrize("extra", [["--variant", "toeplitz", "--l", "9"], ["--variant", "hat"],
                                   ["--l", "4"], ["--variant", "plain", "--l", "4"]])
def test_cayley_counts_rejects_variant_and_size(extra, capsys):
    assert invoke(["cayley", "counts", "--group", "C4", *extra]) == (2, "")
    assert "cayley counts counts the terms of the plain table" in capsys.readouterr().err
    plain = ok(["cayley", "counts", "--group", "C4", "--variant", "plain"])
    assert plain == ok(["cayley", "counts", "--group", "C4"]) == "permanent_terms 10\ndeterminant_terms 10\n"


def test_cayley_guard_exit_code():
    assert invoke(["cayley", "per", "--group", "C17"])[0] == 3
    assert invoke(["cayley", "per", "--group", "C12", "--alg", "leibniz"])[0] == 3


def test_cayley_dp_guard_refuses_quickly():
    for op in ("per", "det"):
        t0 = time.perf_counter()
        assert invoke(["cayley", op, "--group", "C13"])[0] == 3, op
        assert time.perf_counter() - t0 < 1.0, op


def test_cayley_counts_refuses_c13_quickly():
    # the determinant's DP guard is decided before the permanent's support is enumerated
    t0 = time.perf_counter()
    assert invoke(["cayley", "counts", "--group", "C13"])[0] == 3
    assert time.perf_counter() - t0 < 1.0


def test_cayley_counts_c12():
    # one subset-DP state per rotation orbit brings order 12 inside the guard
    assert ok(["cayley", "counts", "--group", "C12"]) == "permanent_terms 112720\ndeterminant_terms 86500\n"


def term_coefficients(text):
    """The coefficients of a polynomial as `cayley per|det` prints it."""
    terms = text.split()
    signs = ["-" if terms[0].startswith("-") else "+"] + terms[1::2]
    heads = [t.lstrip("-").partition("*")[0] for t in terms[::2]]
    return [(-1 if s == "-" else 1) * (int(h) if h.isdigit() else 1) for s, h in zip(signs, heads)]


@pytest.mark.parametrize("op, terms", [("per", 112720), ("det", 86500)])
def test_cayley_c12_frontier(op, terms):
    # one subset-DP state per translation orbit of columns keeps order 12 inside the 10 s budget
    t0 = time.perf_counter()
    text = ok(["cayley", op, "--group", "C12"])
    assert time.perf_counter() - t0 < 10.0
    assert len(term_coefficients(text)) == terms


@pytest.mark.parametrize("op", ["per", "det"])
def test_cayley_c2xc6_frontier(op):
    # orbits under all 12 translations, not only the 6 of an element of maximal order, so
    # C2xC6 costs what C12 does
    t0 = time.perf_counter()
    coefficients = term_coefficients(ok(["cayley", op, "--group", "C2xC6"]))
    assert time.perf_counter() - t0 < 10.0
    if op == "per":
        assert len(coefficients) == len(cayley.hall_support(parse_group("C2xC6"), 12)) == 112796
        assert sum(coefficients) == math.factorial(12)
    else:
        assert len(coefficients) == 87500


def test_cayley_support_frontier(capsys):
    # C12 finishes within its budget (about 1.1 s as a subprocess on 2 vCPUs, most of it printing) and
    # lists the paper's dim (S^n R)^G vectors; C14 is refused before any join
    t0 = time.perf_counter()
    text = ok(["cayley", "support", "--group", "C12"])
    assert time.perf_counter() - t0 < 10.0
    assert text.partition("\n")[0] == f"degree 12 count {sym_dim(12, 12, 0)}"
    t0 = time.perf_counter()
    assert invoke(["cayley", "support", "--group", "C14"]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert "refused: support enumeration" in capsys.readouterr().err


def test_cayley_support_of_a_long_toeplitz_table(capsys):
    # the join makes no pass over every (element, degree, count), so C2 runs to degree 3000 at once
    t0 = time.perf_counter()
    text = ok(["cayley", "support", "--group", "C2", "--variant", "toeplitz", "--l", "3000"])
    assert time.perf_counter() - t0 < 1.0
    assert text.partition("\n")[0] == "degree 3000 count 1501"
    # C1 has one vector at every degree, but the walk tries all degree + 1 counts of its element,
    # 16 units each; C2 tables one count list and one tuple per degree too
    for spec, l, size in (("C1", 10**8, 16 * (10**8 + 1) + 1), ("C2", 9999999, 49 * 10**7)):
        t0 = time.perf_counter()
        assert invoke(["cayley", "support", "--group", spec, "--variant", "toeplitz", "--l", str(l)]) == (3, "")
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith(f"refused: support enumeration: size {size} ")


@pytest.mark.parametrize("l", [10**4, 4 * 10**7])
def test_cayley_long_c1_table_refused_by_its_cells(l, capsys):
    # C1's class-count estimate is only l + 1 pairs; the l^2 cells are counted first, from l alone
    t0 = time.perf_counter()
    assert invoke(["cayley", "per", "--group", "C1", "--variant", "toeplitz", "--l", str(l)]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith(f"refused: subset DP table cells: size {l * l} ")


def test_integers_beyond_the_str_digit_limit_print_exactly():
    # sys.get_int_max_str_digits (CPython 3.11 on) caps str() at 4300 digits; the CLI lifts it
    # for one command only.  Decimal renders the expected values without str() on an int.
    from decimal import Decimal
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    value = str(Decimal(sym_dim(10000, 10000, 0)))
    assert len(value) > 4300
    assert ok(["dim", "a", "--group", "C10000", "--m", "10000"]) == value + "\n"
    assert f'"value": {value}\n' in ok(["--json", "dim", "a", "--group", "C10000", "--m", "10000"])
    coeff = str(Decimal(math.factorial(2000)))
    argv = ["cayley", "per", "--group", "C1", "--variant", "toeplitz", "--l", "2000"]
    assert ok(argv) == f"{coeff}*x0^2000\n"
    assert json.loads(ok(["--json", *argv]))["terms"] == [{"exponents": [2000], "coeff": coeff}]
    assert invoke(["dim", "a", "--group", "C0", "--m", "1"])[0] == 2
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored, error or not


def test_cayley_factored_guard_refuses_quickly():
    t0 = time.perf_counter()
    assert invoke(["cayley", "det", "--group", "C12", "--alg", "factored"])[0] == 3
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv, kind", [
    (["cayley", "per", "--group", "C1500"], "subset DP states"),
    (["cayley", "counts", "--group", "C1500"], "subset DP states"),
    (["cayley", "support", "--group", "C1500"], "support enumeration"),
    (["cayley", "per", "--group", "C1500", "--alg", "leibniz"], "Leibniz permutations"),
    (["cayley", "det", "--group", "C1500", "--alg", "factored"], "factored determinant"),
    (["check", "invariance", "--group", "C1500"], "subset DP states"),
    (["check", "extended", "--group", "C1500"], "subset DP states"),
])
def test_cayley_refuses_before_building_the_table(argv, kind, capsys):
    # the 1500 x 1500 addition table alone takes seconds; every guard is decided without it
    t0 = time.perf_counter()
    assert invoke(argv) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith(f"refused: {kind}: size 2^")


def test_cayley_factored_runs_order_10_and_refuses_order_11():
    assert ok(["cayley", "det", "--group", "C10", "--alg", "factored"]) == \
        ok(["cayley", "det", "--group", "C10", "--alg", "auto"])
    t0 = time.perf_counter()
    assert invoke(["cayley", "det", "--group", "C11", "--alg", "factored"])[0] == 3
    assert time.perf_counter() - t0 < 1.0


def test_cayley_algorithm_validation():
    assert invoke(["cayley", "per", "--group", "C3", "--alg", "factored"])[0] == 2
    assert invoke(["cayley", "per", "--group", "C3", "--alg", "ryser"])[0] == 2
    assert invoke(["cayley", "det", "--group", "C3", "--alg", "ryser"])[0] == 2
    assert invoke(["cayley", "table", "--group", "C2xC3", "--variant", "toeplitz"])[0] == 2


@pytest.mark.parametrize("op", ["table", "support", "counts"])
@pytest.mark.parametrize("alg", ["leibniz", "factored"])
def test_cayley_alg_rejected_outside_per_and_det(op, alg, capsys):
    assert invoke(["cayley", op, "--group", "C4", "--alg", alg]) == (2, "")
    assert f"--alg {alg} applies to per and det only" in capsys.readouterr().err
    assert invoke(["cayley", op, "--group", "C4", "--alg", "auto"])[0] == 0


# ---------------------------------------------------------------- check


def test_check_reciprocity_summary_format():
    text = ok(["check", "reciprocity", "--max-total", "6", "--fredman-total", "8"])
    assert re.fullmatch(
        r"PASS reciprocity \[max_total=6 fredman_total=8\] failures=0 elapsed=\d+\.\d{3}s",
        text.strip(),
    )


@pytest.mark.parametrize("argv", [
    ["check", "identity", "--identity", "log2var", "--order", "-2"],
    ["check", "identity", "--identity", "A", "--order", "0"],
    ["check", "reciprocity", "--max-total", "0", "--fredman-total", "0"],
    ["check", "reciprocity", "--fredman-total", "0"],
    ["check", "hall", "--max-order", "0", "--max-order-ext", "0"],
    ["check", "hall", "--max-order-ext", "0"],
    ["check", "invariance", "--max-order", "0"],
    ["check", "extended", "--max-order", "-1"],
    # a falsy value reaches its checker or parse_group; it does not select the default sweep
    ["check", "lehmer", "--p", "0"],
    ["check", "invariance", "--group", ""],
    ["check", "actions", "--group", ""],
    ["check", "extended", "--group", ""],
])
def test_empty_check_sweep_exits_2(argv, capsys):
    assert invoke(argv) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_exhaustive_action_sweep_refuses_a_huge_group_quickly(capsys):
    # 1700! has more digits than str() converts; the refusal comes before the 1700 x 1700 table
    t0 = time.perf_counter()
    assert invoke(["check", "actions", "--group", "C1700"]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("refused: exhaustive permutation sweep")


@pytest.mark.parametrize("spec", ["C800", "C1500"])
def test_sampled_action_check_refuses_a_huge_group_quickly(spec, capsys):
    # n^2 table cells plus n^2 star steps per sample, decided before the table is built
    n = int(spec[1:])
    t0 = time.perf_counter()
    assert invoke(["check", "actions", "--group", spec, "--samples", "1"]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith(
        f"refused: sampled action steps: size {2 * n * n} exceeds guard {cayley.ACTION_GUARD}")


def test_sampled_action_guard_counts_cells_and_star_steps():
    group = parse_group("C100")
    with pytest.raises(GuardExceeded) as info:
        cayley.check_action_identities(group, samples=50)
    assert (info.value.size, info.value.limit) == (100 * 100 * 51, cayley.ACTION_GUARD)
    assert "add_table" not in vars(group)  # refused before the addition table was built
    # the largest sampled runs of check all and of the benchmark's command list stay admitted
    assert max(6 * 6 * (1 + 500), 8 * 8 * (1 + 60), 9 * 9 * (1 + 40)) <= cayley.ACTION_GUARD
    assert cayley.check_action_identities(parse_group("C9"), samples=40).ok


def test_guard_message_renders_a_huge_size():
    assert str(GuardExceeded("x", 10**5000, 1)) == "x: size 2^16609 or more exceeds guard 1"
    assert str(GuardExceeded("x", 2**256, 2**256 - 1)) == f"x: size 2^256 or more exceeds guard {2**256 - 1}"


def test_check_actions_rejects_empty_sample(capsys):
    for argv in (["--group", "C3", "--samples", "0"], ["--group", "C3", "--samples", "-5"], ["--samples", "0"]):
        assert invoke(["check", "actions", *argv]) == (2, "")
        assert "samples >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("option, ignored, valid", [
    ("order", ["check", "reciprocity"], ["check", "identity", "--identity", "A"]),
    ("group", ["check", "hall"], ["check", "invariance"]),
    ("group", ["check", "identity", "--identity", "A"], ["check", "extended"]),
    ("samples", ["check", "identity"], ["check", "actions", "--group", "C3"]),
    ("p", ["check", "all"], ["check", "lehmer"]),
    ("n", ["check", "lehmer"], ["check", "conjecture", "--l", "5"]),
    ("l", ["check", "invariance"], ["check", "conjecture", "--n", "2"]),
    # options with a default, and the dim and oracle modes
    ("p", ["dim", "a", "--group", "C6", "--m", "3"], ["dim", "sw", "--group", "C6", "--m", "3"]),
    ("p", ["dim", "b", "--group", "C6", "--m", "3"], ["dim", "sw", "--group", "C6", "--m", "3"]),
    ("p", ["oracle", "a", "--n", "5", "--m", "3"], ["oracle", "dims", "--n", "5", "--m", "3"]),
    ("group", ["oracle", "a", "--n", "5", "--m", "3"], ["oracle", "subsets"]),
    ("n", ["oracle", "subsets", "--group", "C4"], ["oracle", "a", "--m", "2"]),
    ("m", ["oracle", "subsets", "--group", "C4"], ["oracle", "a", "--n", "2"]),
    ("i", ["oracle", "subsets", "--group", "C4"], ["oracle", "a", "--n", "2", "--m", "2"]),
    ("max-order", ["check", "lehmer"], ["check", "invariance"]),
    ("max-order", ["check", "conjecture", "--n", "3", "--l", "4"], ["check", "extended"]),
    ("identity", ["check", "reciprocity"], ["check", "identity"]),
    ("identity", ["check", "all"], ["check", "identity"]),
    ("max-total", ["check", "hall"], ["check", "reciprocity"]),
    ("fredman-total", ["check", "identity", "--identity", "A"], ["check", "reciprocity"]),
    ("max-order-ext", ["check", "extended"], ["check", "hall"]),
    # invariance and extended read --max-order only without --group
    ("max-order", ["check", "invariance", "--group", "C4"], ["check", "invariance"]),
    ("max-order", ["check", "extended", "--group", "C4"], ["check", "extended"]),
])
def test_check_option_its_checker_does_not_read_exits_2(option, ignored, valid, capsys):
    value = {"order": "3", "group": "C4", "samples": "3", "p": "3", "n": "2", "l": "5", "m": "2", "i": "1",
             "max-order": "2", "identity": "B", "max-total": "2", "fredman-total": "3",
             "max-order-ext": "2"}[option]
    assert invoke([*ignored, f"--{option}", value]) == (2, "")
    assert f"does not read --{option} (read by {ignored[0]} " in capsys.readouterr().err
    text = ok([*valid, f"--{option}", value])
    assert text.startswith("PASS") if valid[0] == "check" else text.strip().isdigit()


def test_check_extended_runs_to_the_max_order_given():
    lines = ok(["check", "extended", "--max-order", "5"]).splitlines()
    assert [ln.split()[:3] for ln in lines] == [
        ["PASS", "extended-counts", f"[group={g}]"] for g in ("C1", "C2", "C3", "C2xC2", "C4", "C5")]


@pytest.mark.parametrize("forwarded", [
    {},
    {"--max-order": "3", "--max-total": "5", "--fredman-total": "6", "--max-order-ext": "3"},
])
def test_check_all_is_every_mode_with_the_options_it_reads(forwarded):
    # each mode, in order, with those of the options given to `check all` that it reads
    reads = {"reciprocity": ("--max-total", "--fredman-total"), "identity": (),
             "hall": ("--max-order", "--max-order-ext"), "invariance": ("--max-order",), "actions": (),
             "lehmer": (), "extended": ("--max-order",), "conjecture": ()}
    given = [word for item in forwarded.items() for word in item]
    code, text = invoke(["check", "all", *given])
    assert code == 1
    parts = []
    for mode, options in reads.items():
        argv = [word for option in options if option in forwarded for word in (option, forwarded[option])]
        part_code, part = invoke(["check", mode, *argv])
        assert part_code == (1 if mode == "conjecture" else 0), mode
        parts.append(part)
    assert _without_elapsed(text) == _without_elapsed("".join(parts))


def test_check_identity_selection():
    text = ok(["check", "identity", "--identity", "A"])
    assert text.startswith("PASS identity-A ")
    lines = ok(["check", "identity"]).strip().splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", f"identity-{name}"] for name in molien.IDENTITIES]
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    option = next(a for a in commands.choices["check"]._actions if a.dest == "identity")
    assert option.choices == [*molien.IDENTITIES, "all"]


def test_check_single_conjecture_cell():
    assert ok(["check", "conjecture", "--n", "2", "--l", "9"]).startswith("PASS")
    code, _ = invoke(["check", "conjecture", "--n", "2"])
    assert code == 2  # needs both endpoints


def test_check_single_conjecture_cell_refuses_before_the_table(capsys):
    # building the 4000 x 4000 toeplitz table alone takes seconds; its guard is decided without it
    t0 = time.perf_counter()
    assert invoke(["check", "conjecture", "--n", "2", "--l", "4000"]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("refused: subset DP states: size ")


def test_check_conjecture_grid_halts_at_counterexample():
    code, text = invoke(["check", "conjecture"])
    assert code == 1
    lines = text.strip().splitlines()
    cells = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    assert len(cells) == 17  # 8 + 6 + 3: the grid stops at the first failure
    assert cells[-1].startswith("FAIL toeplitz-conjecture [n=4 l=6]")
    assert lines[-1] == '  witness: {"exponents": [0, 0, 6, 0], "what": "predicted monomial missing"}'


def test_check_json_reports_carry_fixed_schema():
    payload = json.loads(ok(["--json", "check", "lehmer", "--p", "3"]))
    assert set(payload) == {"check", "parameters", "failures", "elapsed"}
    assert payload["check"] == "lehmer"
    assert payload["failures"] == []


def test_check_json_output_deterministic_modulo_elapsed():
    def normalized(text):
        payload = json.loads(text)
        reports = payload if isinstance(payload, list) else [payload]
        for r in reports:
            r["elapsed"] = 0.0
        return reports

    a = normalized(ok(["--json", "check", "identity"]))
    b = normalized(ok(["--json", "check", "identity"]))
    assert a == b


# ---------------------------------------------------------------- oracle


def test_oracle_values():
    assert ok(["oracle", "a", "--n", "4", "--m", "6", "--i", "0"]).strip().endswith("22")
    assert ok(["oracle", "subsets", "--group", "C2xC2"]).strip().endswith("4")
    assert ok(["oracle", "dims", "--n", "3", "--p", "1", "--m", "1"]).strip().endswith("3")


def test_oracle_guard_refuses_quickly():
    # 4457400 monomials are counted by the DP, not listed
    assert ok(["oracle", "a", "--n", "12", "--m", "14"]).strip() == "371516"
    # degree 0 still needs the addition table, which the bound counts
    for argv in (["oracle", "a", "--n", "1000", "--m", "1000"],
                 ["oracle", "subsets", "--group", "C216"],
                 ["oracle", "a", "--n", "100000", "--m", "0"],
                 ["oracle", "dims", "--n", "100000", "--m", "1"]):
        t0 = time.perf_counter()
        assert invoke(argv)[0] == 3, argv
        assert time.perf_counter() - t0 < 1.0, argv


def test_oracle_usage_errors():
    assert invoke(["oracle", "a"])[0] == 2
    assert invoke(["oracle", "subsets"])[0] == 2


# ---------------------------------------------------------------- global flags, entry points


def test_threads_flag_rejected():
    assert invoke(["--threads", "4", "dim", "a", "--group", "C3", "--m", "3"])[0] == 2


def test_unknown_subcommand_is_usage_error():
    assert invoke(["frobnicate"])[0] == 2
    assert invoke([])[0] == 2


def run_module(args, **env):
    """`python -m abelinv ARGS` in a child that imports the package under test."""
    src = os.path.dirname(os.path.dirname(abelinv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "abelinv", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def test_module_entry_point():
    r = run_module(["dim", "a", "--group", "C6", "--m", "6"])
    assert r.returncode == 0
    assert r.stdout.strip() == "80"


def test_console_script_guard_message_on_stderr():
    r = run_module(["cayley", "per", "--group", "C17"])
    assert r.returncode == 3
    assert r.stdout == ""
    assert "guard" in r.stderr.lower()


def test_output_unaffected_by_no_color():
    plain = run_module(["cayley", "per", "--group", "C3"])
    nocolor = run_module(["cayley", "per", "--group", "C3"], NO_COLOR="1")
    assert plain.returncode == 0 and plain.stdout
    assert plain.stdout == nocolor.stdout


def _without_elapsed(text):
    text = re.sub(r"elapsed=[0-9.]+s", "elapsed=*s", text)
    return re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": *', text)


def test_shared_parser_runs_match_fresh_processes(monkeypatch, capsys):
    # one parser serves every run in a process: no command may see what an earlier one parsed
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["check", "identity", "--identity", "C"],  # argparse usage error
        ["dim", "a", "--group", "C2xC2", "--m", "2"],  # ValueError
        ["--json", "check", "lehmer", "--p", "5"],
        ["check", "lehmer", "--p", "5"],
        ["check", "identity", "--identity", "A", "--order", "5"],
        ["check", "identity", "--identity", "A"],
    ]
    seen = []
    for argv in sequence:
        code, text = invoke(argv)
        err = capsys.readouterr().err
        fresh = run_module(argv)
        assert (code, _without_elapsed(text), err) == \
            (fresh.returncode, _without_elapsed(fresh.stdout), fresh.stderr), argv
        seen.append((code, text))
    assert [code for code, _ in seen] == [2, 2, 0, 0, 0, 0]
    assert seen[4][1].startswith("PASS identity-A [order=5 ")
    assert seen[5][1].startswith("PASS identity-A [order=20 ")


def test_help_goes_to_out(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, text = invoke(["check", "--help"])
    assert (code, capsys.readouterr().out) == (0, "")
    assert text.startswith("usage: abelinv check [-h]")
    fresh = run_module(["check", "--help"])
    assert (fresh.returncode, fresh.stdout) == (0, text)


def test_help_width_follows_columns(monkeypatch):
    # the width is read when help is printed, not when the shared parser was built
    lines = []
    for columns in (60, 120):
        monkeypatch.setenv("COLUMNS", str(columns))
        lines.append(ok(["check", "--help"]).splitlines())
    narrow, wide = lines
    assert len(narrow) > len(wide)


def test_build_parser_returns_a_parser_run_does_not_read():
    mine = build_parser()
    mine.set_defaults(json=True)
    assert ok(["dim", "a", "--group", "C3", "--m", "3"]) == "4\n"
