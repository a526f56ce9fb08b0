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
from abelinv.cli import MAX_WITNESS_LINES, build_parser, run
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
    assert ok(["dim", "a", "--group", "C1000000", "--m", "1"]).strip() == "1"  # under the binomial guard
    assert ok(["dim", "a", "--group", "C999999999989", "--m", "0"]).strip() == "1"  # a prime the factorization admits


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


@pytest.mark.parametrize("spec", ["C4000000", "x".join(["C2"] * 20)])
def test_series_of_a_huge_group_builds_no_element_list(spec):
    # the character sums read the residues of i off the group's strides; a list of all the
    # elements costs about 100 MB per million
    t0 = time.perf_counter()
    assert ok(["series", "sym", "--group", spec, "--order", "1"]) == "1 + t\n"  # R holds each character once
    assert ok(["series", "ext", "--group", spec, "--order", "1", "--i", "5"]) == "t\n"
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("identity, order", [("log3var", 120), ("log2var", 10**9), ("all", 10**6)])
def test_identity_guard_refuses_quickly(identity, order, capsys):
    t0 = time.perf_counter()
    assert invoke(["check", "identity", "--identity", identity, "--order", str(order)]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert "identity series terms" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["dim", "a", "--group", "C1000000", "--m", "1000000"], "dimension binomial bits"),
    (["dim", "b", "--group", "C2000000", "--m", "1000000"], "dimension binomial bits"),
    (["dim", "sw", "--group", "C100000", "--p", "100000", "--m", "50000"], "dimension binomial bits"),
    (["check", "reciprocity", "--fredman-total", "400"], "reciprocity comparisons"),
    (["check", "reciprocity", "--max-total", "60"], "reciprocity comparisons"),
    (["check", "all", "--max-total", "60"], "reciprocity comparisons"),  # refused in its first mode
])
def test_point_and_sweep_guards_refuse_quickly(argv, what, capsys):
    t0 = time.perf_counter()
    assert invoke(argv) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["series", "ext", "--group", f"C{2**61 - 1}"],
    ["series", "sym", "--group", f"C{2**61 - 1}", "--order", "3"],
    ["series", "bigraded", "--group", f"C{2**61 - 1}", "--order", "3"],
    ["dim", "a", "--group", f"C{2**61 - 1}", "--m", "0"],
    ["dim", "b", "--group", f"C{2**61 - 1}", "--m", "0"],
])
def test_factorization_guard_refuses_a_huge_prime(argv, capsys):
    # the series and the point dimensions factor the exponent or a gcd first; proving the
    # prime 2^61 - 1 prime would take 7.6 * 10^8 trial divisors
    assert invoke(argv) == (3, "")
    assert "trial divisions" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "invariance", "--max-order", "13"],  # refused at C13, after seconds of smaller groups
    ["check", "hall", "--max-order", "13"],
    ["check", "all", "--max-order", "8"],  # refused at C8 block2n, in the last group-sweeping mode
    ["check", "extended", "--max-order", "8"],
    # the groups are made as the guard reads them: no list of all 226610 groups of order <= 100000
    ["check", "hall", "--max-order", "100000"],
    ["check", "invariance", "--max-order", "100000"],
    ["check", "extended", "--max-order", "100000"],
    ["check", "hall", "--max-order-ext", "100000"],
    ["check", "all", "--max-order", "100000"],
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


@pytest.mark.parametrize("argv, message", [
    # bigraded: one source, then no profile (read or not), then cyclic, then the weight, then --order
    (["bigraded", "--group", "C4", "--profile", "/nonexistent/p.json"],
     "series needs exactly one of --group or --profile"),
    (["bigraded", "--profile", "/nonexistent/p.json", "--i", "9"],
     "bigraded series are defined for cyclic groups, not profiles"),
    (["bigraded", "--group", "C0"], "group spec 'C0' contains a zero factor"),
    (["bigraded", "--group", "C2xC2", "--i", "9"],
     "series bigraded needs a single-factor cyclic group (e.g. C6), got C2xC2"),
    (["bigraded", "--group", "C4", "--i", "9"], "character index 9 out of range for C4"),
    (["bigraded", "--group", "C4"], "series bigraded needs --order"),
    # sym: one source, then the source read, then --order
    (["sym"], "series needs exactly one of --group or --profile"),
    (["sym", "--profile", "/nonexistent/p.json"], "[Errno 2] No such file or directory: '/nonexistent/p.json'"),
    (["sym", "--group", "C0"], "group spec 'C0' contains a zero factor"),
    (["sym", "--group", "C2xC2", "--i", "9"], "series sym needs --order"),
    # ext: one source, then the source read; its order is optional
    (["ext", "--group", "C3", "--profile", "/nonexistent/p.json"], "series needs exactly one of --group or --profile"),
    (["ext", "--profile", "/nonexistent/p.json"], "[Errno 2] No such file or directory: '/nonexistent/p.json'"),
    (["ext", "--group", "C0"], "group spec 'C0' contains a zero factor"),
    (["ext", "--group", "C2xC2", "--i", "9"], "character index 9 out of range for C2xC2"),
])
def test_series_error_precedence(argv, message, capsys):
    assert invoke(["series", *argv]) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n", [*range(1, 13), 30])
def test_dim_matches_the_point_functions(n):
    for m in sorted({0, 1, 2, n, n + 1, 2 * n}):
        for i in sorted({0, 1, n - 1} & set(range(n))):
            cases = [(["a"], {}, molien.sym_dim(n, m, i)), (["b"], {}, molien.ext_dim(n, m, i))]
            cases += [(["sw", "--p", str(p)], {"p": p}, molien.sym_ext_dim(n, p, m, i)) for p in (0, 2)]
            for kind, extra, value in cases:
                argv = ["dim", *kind, "--group", f"C{n}", "--m", str(m), "--i", str(i)]
                assert ok(argv) == f"{value}\n"
                assert json.loads(ok(["--json", *argv])) == {
                    "kind": kind[0], "group": f"C{n}", "n": n, "m": m, "i": i, "value": value, **extra}


@pytest.mark.parametrize("argv, message", [
    (["a", "--group", "C6", "--m", "-2"], "dim a needs --m >= 0"),
    (["b", "--group", "C6", "--m", "-1"], "dim b needs --m >= 0"),
    (["sw", "--group", "C6", "--p", "-1", "--m", "2"], "dim sw needs --p and --m >= 0"),
    (["sw", "--group", "C6", "--p", "1", "--m", "-2"], "dim sw needs --p and --m >= 0"),
    (["sw", "--group", "C2000000", "--p", "-1", "--m", "1000000"], "dim sw needs --p and --m >= 0"),  # before the guard
])
def test_dim_negative_degree_exits_2(argv, message, capsys):
    assert invoke(["dim", *argv]) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("spec, extra, per, det", [
    ("C1", [], "x0", "x0"),  # l = 1: base 2 and one even permutation, digit 0 always 0
    ("C2", [], "x0^2 + x1^2", "x0^2 - x1^2"),  # l = 2: base 3, the least that keeps an even 2 from carrying
    ("C2", ["--variant", "hat"], "x0^2 + x1^2", "x0^2 - x1^2"),
    ("C3", ["--variant", "toeplitz", "--l", "7"], None, "0"),  # repeated columns: 7! signed terms cancel
    ("C2", ["--variant", "toeplitz", "--l", "10"], None, "0"),  # l = 10, the guard's edge
])
def test_leibniz_parity_digit_edges_match_auto(spec, extra, per, det):
    # a determinant's Leibniz keys carry the permutation's parity in their digit 0
    table = ["--group", spec, *extra]
    for op, want in (("per", per), ("det", det)):
        human, as_json = (ok([*flag, "cayley", op, *table, "--alg", "leibniz"]) for flag in ([], ["--json"]))
        assert human == ok(["cayley", op, *table]) and as_json == ok(["--json", "cayley", op, *table]), op
        assert want is None or human.strip() == want, op
        if op == "per":  # each of the l! permutations counted once
            obj = json.loads(as_json)
            assert sum(int(term["coeff"]) for term in obj["terms"]) == math.factorial(obj["size"])


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
    assert capsys.readouterr().err.startswith(f"refused: table cells: size {l * l} ")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("l, kind", [(10**4, "table cells"), (2001, "grid cells")])
def test_cayley_table_refuses_a_long_grid_quickly(l, kind, json_flag, capsys):
    # a 2000 x 2000 grid (the largest admitted) prints in about 1.3 s, 3.3 s as JSON, on 2 vCPUs
    t0 = time.perf_counter()
    argv = [*json_flag, "cayley", "table", "--group", "C1", "--variant", "toeplitz", "--l", str(l)]
    assert invoke(argv) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith(f"refused: {kind}: size {l * l} ")


@pytest.mark.parametrize("l", [5 * 10**6, 4 * 10**7])
def test_factored_determinant_of_a_long_stretched_table_refused_quickly(l, capsys):
    # its determinant is 0 (repeated columns), but no table that long is built for any route
    t0 = time.perf_counter()
    argv = ["cayley", "det", "--alg", "factored", "--group", "C2", "--variant", "toeplitz", "--l", str(l)]
    assert invoke(argv) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith(f"refused: table cells: size {l * l} ")


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


def test_cayley_factored_guard_refuses_quickly(capsys):
    t0 = time.perf_counter()
    assert invoke(["cayley", "det", "--group", "C13", "--alg", "factored"])[0] == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("refused: factored determinant: size 5200300 ")


@pytest.mark.parametrize("argv, kind", [
    (["cayley", "per", "--group", "C1500"], "subset DP states"),
    (["cayley", "counts", "--group", "C1500"], "subset DP states"),
    (["cayley", "support", "--group", "C1500"], "support enumeration"),
    (["cayley", "per", "--group", "C1500", "--alg", "leibniz"], "Leibniz permutations"),
    (["cayley", "det", "--group", "C1500", "--alg", "factored"], "factored determinant"),
    (["check", "invariance", "--group", "C1500"], "subset DP states"),
    (["check", "extended", "--group", "C1500"], "subset DP states"),
    (["cayley", "support", "--group", "C1000000"], "support enumeration"),  # each binomial stops at 2^256
])
def test_cayley_refuses_before_building_the_table(argv, kind, capsys):
    # the 1500 x 1500 addition table alone takes seconds; every guard is decided without it
    t0 = time.perf_counter()
    assert invoke(argv) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith(f"refused: {kind}: size 2^")


def test_cayley_factored_runs_orders_10_and_11():
    # order 11, the first the factored guard admits beyond 10, has a free orbit in every layer but the last
    for spec in ("C10", "C11"):
        assert ok(["cayley", "det", "--group", spec, "--alg", "factored"]) == \
            ok(["cayley", "det", "--group", spec, "--alg", "auto"])


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


def test_series_bigraded_human_output():
    text = ok(["series", "bigraded", "--group", "C3", "--i", "1", "--order", "2"])
    assert text.strip() == "t + t^2 + s + 3*s*t + 3*s*t^2 + 2*s^2 + 6*s^2*t + 6*s^2*t^2"


# ---------------------------------------------------------------- check


def test_check_reciprocity_summary_format():
    text = ok(["check", "reciprocity", "--max-total", "6", "--fredman-total", "8"])
    assert re.fullmatch(
        r"PASS reciprocity \[max_total=6 fredman_total=8\] failures=0 elapsed=\d+\.\d{3}s",
        text.strip(),
    )


def test_check_output_caps_witness_lines_except_the_conjecture(monkeypatch):
    # each kernel value is one too large where p > q, so every swapped pair fails both ways
    real = molien.sym_ext_dim_by_parts
    monkeypatch.setattr(molien, "sym_ext_dim_by_parts", lambda p, q, m, i: real(p, q, m, i) + (p > q))
    code, text = invoke(["check", "reciprocity", "--max-total", "3", "--fredman-total", "3"])
    failures = molien.check_reciprocity(3, 3).failures
    lines = text.splitlines()
    assert code == 1 and len(failures) > MAX_WITNESS_LINES
    assert lines[0].startswith(f"FAIL reciprocity [max_total=3 fredman_total=3] failures={len(failures)} ")
    assert lines[1:] == [f"  witness: {json.dumps(f)}" for f in failures[:MAX_WITNESS_LINES]] + [
        f"  ... {len(failures) - MAX_WITNESS_LINES} more"]
    # the conjecture's report is its full monomial symmetric difference: with no vector
    # predicted, each of the permanent's 15 monomials and the size mismatch is printed
    monkeypatch.undo()
    monkeypatch.setattr(cayley, "hall_support", lambda group, degree: set())
    code, text = invoke(["check", "conjecture", "--n", "3", "--l", "8"])
    per = cayley.permanent(cayley.build_table(parse_group("C3"), "toeplitz", 8))
    lines = text.splitlines()
    assert code == 1 and lines[0].startswith("FAIL toeplitz-conjecture [n=3 l=8] failures=16 ")
    assert lines[1:] == [f"  witness: {json.dumps({'exponents': list(e), 'what': 'unexpected monomial present'})}"
                         for e in sorted(per.terms)] + [
        '  witness: {"what": "prediction size mismatch", "count": 0, "dimension": 15}']


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


def test_lehmer_refuses_an_unsupported_prime_before_any_table(monkeypatch, capsys):
    built = []
    real = cayley.build_table
    monkeypatch.setattr(cayley, "build_table", lambda *args, **kw: built.append(args) or real(*args, **kw))
    assert invoke(["check", "lehmer", "--p", "4"]) == (2, "")
    assert capsys.readouterr().err == "error: supported primes are (3, 5, 7), got 4\n"
    assert built == []


def test_exhaustive_action_sweep_refuses_a_huge_group_quickly(capsys):
    # 1700! has more digits than str() converts; the refusal comes before the 1700 x 1700 table
    t0 = time.perf_counter()
    assert invoke(["check", "actions", "--group", "C1700"]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("refused: exhaustive permutation sweep")
    # the size stops at 58!, the first factorial of 2^256 or more, so 1000000! is never formed
    t0 = time.perf_counter()
    assert invoke(["check", "actions", "--group", "C1000000"]) == (3, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "refused: exhaustive permutation sweep: size 2^260 or more exceeds guard 40320\n")


@pytest.mark.parametrize("n", [9, 20, 57, 58])
def test_exhaustive_action_sweep_refusal_prints_exact_sizes_below_2_to_the_256(n, capsys):
    assert invoke(["check", "actions", "--group", f"C{n}"]) == (3, "")
    size = math.factorial(n)
    shown = str(size) if size.bit_length() <= 256 else f"2^{size.bit_length() - 1} or more"
    assert capsys.readouterr().err == f"refused: exhaustive permutation sweep: size {shown} exceeds guard 40320\n"


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


def test_refusal_names_every_reader_in_table_order(capsys):
    assert invoke(["check", "lehmer", "--max-order", "9"]) == (2, "")
    assert capsys.readouterr().err == ("error: check lehmer does not read --max-order (read by check hall, "
                                       "invariance without --group, extended without --group, all)\n")


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


# `check all` at its defaults, the toolkit's end-to-end check: every mode passes but the
# stretched-table grid, which halts at its one (4, 6) counterexample
CHECK_ALL_GOLDEN = """\
PASS reciprocity [max_total=10 fredman_total=16] failures=0 elapsed=*s
PASS identity-A [order=20 i_max=5] failures=0 elapsed=*s
PASS identity-B [order=20 i_max=5] failures=0 elapsed=*s
PASS identity-log2var [order=20 i_max=5] failures=0 elapsed=*s
PASS identity-log3var [order=8 i_max=5] failures=0 elapsed=*s
PASS hall-support [max_order=6 max_order_ext=5] failures=0 elapsed=*s
PASS invariance [group=C1] failures=0 elapsed=*s
PASS invariance [group=C2] failures=0 elapsed=*s
PASS invariance [group=C3] failures=0 elapsed=*s
PASS invariance [group=C2xC2] failures=0 elapsed=*s
PASS invariance [group=C4] failures=0 elapsed=*s
PASS invariance [group=C5] failures=0 elapsed=*s
PASS invariance [group=C2xC3] failures=0 elapsed=*s
PASS action-identities [group=C3 mode=exhaustive] failures=0 elapsed=*s
PASS action-identities [group=C4 mode=exhaustive] failures=0 elapsed=*s
PASS action-identities [group=C2xC2 mode=exhaustive] failures=0 elapsed=*s
PASS action-identities [group=C6 mode=sampled-500] failures=0 elapsed=*s
PASS action-identities [group=C2xC3 mode=sampled-500] failures=0 elapsed=*s
PASS lehmer [p=3] failures=0 elapsed=*s
PASS lehmer [p=5] failures=0 elapsed=*s
PASS lehmer [p=7] failures=0 elapsed=*s
PASS extended-counts [group=C1] failures=0 elapsed=*s
PASS extended-counts [group=C2] failures=0 elapsed=*s
PASS extended-counts [group=C3] failures=0 elapsed=*s
PASS extended-counts [group=C2xC2] failures=0 elapsed=*s
PASS extended-counts [group=C4] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=2 l=2] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=2 l=3] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=2 l=4] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=2 l=5] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=2 l=6] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=2 l=7] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=2 l=8] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=2 l=9] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=3 l=3] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=3 l=4] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=3 l=5] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=3 l=6] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=3 l=7] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=3 l=8] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=4 l=4] failures=0 elapsed=*s
PASS toeplitz-conjecture [n=4 l=5] failures=0 elapsed=*s
FAIL toeplitz-conjecture [n=4 l=6] failures=1 elapsed=*s
  witness: {"exponents": [0, 0, 6, 0], "what": "predicted monomial missing"}
"""


def test_check_all_golden():
    code, text = invoke(["check", "all"])
    assert (code, _without_elapsed(text)) == (1, CHECK_ALL_GOLDEN)


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


@pytest.mark.parametrize("argv", [
    ["cayley", "per", "--group", "C6"],
    ["cayley", "support", "--group", "C2xC4"],
    ["cayley", "table", "--group", "C1", "--variant", "toeplitz", "--l", "100"],  # more than one batch
    ["series", "sym", "--group", "C2xC2", "--order", "12", "--i", "1"],
    ["check", "hall", "--max-order", "4"],
])
def test_json_stdout_is_the_indented_dump(argv):
    proc = run_module(["--json", *argv])
    assert proc.returncode == 0, proc.stderr
    want = json.dumps(json.loads(proc.stdout), indent=2) + "\n"
    # lengths, not the strings: pytest's diff of two long strings runs for minutes
    same = len(os.path.commonprefix([proc.stdout, want]))
    assert (same, len(proc.stdout)) == (len(want), len(want)), proc.stdout[max(same - 40, 0):same + 40]


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
