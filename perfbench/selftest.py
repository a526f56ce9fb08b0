"""Self-test of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. Two seeds give `queries` streams of the same size and mix, and one seed
   gives the same stream twice.  The point queries' kind mix and repeated
   (n, i) share match a fresh measurement of the `check all` caller stream.
2. Every op of the fixed lists has a recorded digest.
3. The correctness gate rejects a wrong result of every op kind, and a run
   with one deliberately wrong result reports it: `failed` > 0,
   `failed_frac` > 0, `correct` false and exit code 1.
4. In a directory holding only BENCHMARK.json and the benchmark, the runner
   exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _mix(ops):
    return Counter(op.kind for op in ops)


def test_stream_shape() -> None:
    a, b = workloads.build("queries", 1), workloads.build("queries", 2)
    assert len(a) == len(b), (len(a), len(b))
    assert _mix(a) == _mix(b), (_mix(a), _mix(b))
    assert [op.id for op in a] != [op.id for op in b], "seeds give the same stream"
    assert [op.id for op in a] == [op.id for op in workloads.build("queries", 1)]
    for name in workloads.FIXED_LISTS:
        x, y = workloads.build(name, 1), workloads.build(name, 2)
        assert sorted(op.id for op in x) == sorted(op.id for op in y)
        assert len({op.id for op in x}) == len(x), f"{name}: op ids repeat"


def test_caller_profile() -> None:
    profile = workloads.caller_profile()
    for kind, share in workloads.CALLER_KIND_SHARE.items():
        assert abs(profile["kind_share"][kind] - share) < 0.001, (kind, profile)
    assert abs(profile["repeat_share"] - workloads.CALLER_REPEAT_SHARE) < 0.001, profile
    share = workloads.repeated_pair_share(workloads.build("queries", 1))
    assert abs(share - workloads.CALLER_REPEAT_SHARE) < 0.005, share


def test_recorded_digests() -> None:
    expected = json.loads((HERE / "expected.json").read_text())
    for name in workloads.FIXED_LISTS:
        missing = {op.id for op in workloads.build(name, 1)} - set(expected[name])
        assert not missing, f"{name}: no recorded digest for {sorted(missing)}"


def _one_per_kind(name: str):
    """A cheap op of each kind (and table variant, and CLI command)."""
    ops = workloads.build(name, 1)
    if name == "tables":
        ops = [op for op in ops if workloads.groups.parse_group(op.args[0]).order <= 6
               and (len(op.args) < 3 or (op.args[2] or 0) <= 6)]
        key = lambda op: (op.kind, op.args[1:2])  # noqa: E731
    elif name == "verify":
        ops = [op for op in ops if op.args[:2] in (("oracle", "a"), ("check", "lehmer"))
               or op.args[:3] == ("check", "conjecture", "--n")]
        key = lambda op: op.args[1]  # noqa: E731
    else:
        key = lambda op: op.kind  # noqa: E731
    chosen = {}
    for op in ops:
        chosen.setdefault(key(op), op)
    return list(chosen.values())


def _rejects(summary: dict, op, expected) -> bool:
    try:
        return workloads.Checker({op.id: summary}, expected).check(op) is not None
    except (ValueError, KeyError, IndexError):  # unparsable output is rejected too
        return True


def test_gate_rejects_wrong_results() -> None:
    expected = json.loads((HERE / "expected.json").read_text())
    for name in workloads.WORKLOADS:
        for op in _one_per_kind(name):
            result = workloads.execute(op, workloads.prepare(op))
            right = workloads.summarize(op, result)
            wrong = workloads.summarize(op, workloads.corrupt(result))
            exp = expected.get(name)
            assert not _rejects(right, op, exp), f"{op.id}: right result rejected"
            assert _rejects(wrong, op, exp), f"{op.id}: wrong result accepted"
            # the independent route alone rejects it too
            assert _rejects(wrong, op, None), f"{op.id}: wrong result passes the independent route"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "3",
           "--seconds", "1", "--trace", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_wrong_result_fails_the_run() -> None:
    proc = _run(ROOT, "--corrupt", "0")
    assert proc.returncode == 1, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1, line
    record = json.loads((HERE / "out" / "queries-seed3-trace0.json").read_text())
    assert record["failed_frac"] > 0, record["failed_frac"]


def test_refuses_without_sources() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare)
        assert proc.returncode != 0, proc.returncode
        assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.chdir(ROOT)
    tests = [test_stream_shape, test_caller_profile, test_recorded_digests, test_gate_rejects_wrong_results,
             test_wrong_result_fails_the_run, test_refuses_without_sources]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as ex:
            failed += 1
            print(f"FAIL {test.__name__}: {ex}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
