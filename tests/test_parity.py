"""tools/parity.py: which parts of two runs' output are compared."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parent.parent / "tools" / "parity.py")
parity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(parity)


def test_mask_hides_only_the_timings():
    human = "PASS hall-support [max_order=6, max_order_ext=5] failures=0 elapsed=1.234s\n"
    assert parity.mask(human) == "PASS hall-support [max_order=6, max_order_ext=5] failures=0 elapsed=*s\n"
    as_json = '{\n  "check": "lehmer",\n  "failures": [],\n  "elapsed": 0.012345\n}\n'
    assert parity.mask(as_json) == '{\n  "check": "lehmer",\n  "failures": [],\n  "elapsed": *\n}\n'
    assert parity.mask('"elapsed": 1e-06, "count": 5') == '"elapsed": *, "count": 5'
    # a number that is no timing, or a timing under another name, is kept
    assert parity.mask("size 25518796 elapsed_s=2.5") == "size 25518796 elapsed_s=2.5"


def test_runs_differ_in_the_fields_named():
    run = (0, "PASS x elapsed=*s\n", "")
    assert parity.differences(run, run) == []
    assert parity.differences(run, (1, "FAIL x elapsed=*s\n", "")) == ["exit code", "stdout"]
    assert parity.differences(run, (0, run[1], "warning\n")) == ["stderr"]
    # runs that differ only in their timings compare equal once masked
    assert parity.mask("elapsed=0.100s") == parity.mask("elapsed=0.250s")


def test_every_command_has_its_json_form():
    cmds = parity.grid_commands()
    assert len(cmds) == len(set(cmds))
    plain = [cmd for cmd in cmds if not cmd.startswith("--json ")]
    # but the factored determinants at orders 11 and 12, whose --json output is 6-17 MB
    assert cmds == plain + [f"--json {cmd}" for cmd in plain if cmd not in parity.FRONTIER]
    assert {cmd.split()[0] for cmd in plain} == {"dim", "series", "cayley", "check", "oracle"}
    assert {" ".join(cmd.split()[:2]) for cmd in plain if cmd.startswith("check ")} == \
        {"check actions", "check reciprocity", "check identity", "check hall", "check invariance", "check extended",
         "check conjecture", "check all", "check lehmer"}
    assert all(cmd in plain and f"--json {cmd}" in cmds for cmd in parity.LARGE + parity.PRESENTATIONS
               + parity.REFUSALS + parity.BORDERED + tuple(set(parity.ORACLES) - set(parity.FRONTIER)))
    assert set(parity.FRONTIER) <= set(parity.ORACLES) and len(parity.FRONTIER) == 5
    assert {f"cayley det --group {g} --alg factored" for g in ("C12", "C2xC6")} <= set(parity.FRONTIER)
    # the factored determinant's plain and hat tables of orders 1-4, the trivial group's included
    assert len(parity.SMALL_FACTORED) == len(set(parity.SMALL_FACTORED)) == 10
    assert set(parity.SMALL_FACTORED) <= set(parity.ORACLES) - set(parity.FRONTIER)
    assert {"cayley det --group C1 --alg factored",
            "cayley det --group C1 --variant hat --alg factored"} <= set(parity.SMALL_FACTORED)
    assert len(parity.REFUSALS) == 12
    assert len(parity.PRESENTATIONS) == 18
    # extended tables of C1-C10, C2xC2, C2xC4, C2xC2xC2 and C3xC3, n+1 toeplitz tables of C1-C9, refused C13
    assert len(parity.BORDERED) == len(set(parity.BORDERED)) == 24
    assert "cayley per --group C1 --variant toeplitz --l 2" in parity.BORDERED
    assert "cayley per --group C13 --variant extended" in parity.BORDERED
    assert "cayley per --group C9 --variant toeplitz --l 10" in parity.BORDERED
    assert {cmd.split("--alg ")[1] for cmd in plain if "--alg" in cmd} == {"leibniz", "factored"}
    # series at 8 and 16 divisors: 5 orders x 3 weights x 6 cells, 6 on C2xC2xC6, 3 negative orders
    assert all(cmd in plain and f"--json {cmd}" in cmds for cmd in parity.STRIDES)
    assert len(parity.STRIDES) == len(set(parity.STRIDES)) == 99
    assert "series bigraded --group C210 --order 40 --i 209" in parity.STRIDES
    assert "series ext --group C2xC2xC6 --order 40 --i 23" in parity.STRIDES
    assert {cmd for cmd in parity.STRIDES if "-1" in cmd.split()} == {
        f"series {kind} --group C4 --order -1" for kind in ("sym", "ext", "bigraded")}
