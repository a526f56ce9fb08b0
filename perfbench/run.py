"""abelinv benchmark runner (stdlib only).

    python3 perfbench/run.py --workload queries|tables|verify --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S     # every workload, one table
    python3 perfbench/run.py --record                                # re-record expected.json

Run from the root of a source checkout; the library is imported from `src/`.

A run is a closed loop with one client: ops are issued one at a time.  The
seed fixes the run's op list; a fixed number of passes over that list
(`passes_for`) run one after another, each in a fresh interpreter, so the
library's caches start cold as they do for a command-line user.  Each pass's
op times are scaled to a reference machine speed by the reference work the
pass times between ops (see child.py and REFERENCE_WORK_S): other tenants of a
shared machine slow all code by up to 1.7x for tens of seconds.  An op's time
is the median of its scaled times over the passes.  `op_p50_ms` and
`op_p90_ms` are the median and nearest-rank 90th percentile of those per-op
times, `ops_per_s` is their count over their sum, and `setup_s` is the
median scaled set-up time of the passes.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates an
untraced and a traced pass over the same ops, half as many pairs as plain
passes; the traced passes give the per-layer metrics (mean per pass) and the
pairs give the tracing overhead.

Every op's result of the first pass is checked outside the timed region
(see workloads.py); later passes must reproduce its result digests.
The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record, with the
Python version, core count, per-pass quartiles and the result checksum, goes
to perfbench/out/.  The exit code is 0 only when every op was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150
# Nominal length of one pass, from a 2-vCPU VM with Python 3.11.7.  A run
# makes seconds // PASS_SECONDS passes whatever the machine's speed, so the
# per-op median is always taken over the same number of samples.
PASS_SECONDS = {"queries": 5.0, "tables": 10.0, "verify": 10.0}
# Time of child.reference_work() on that VM in its usual state.  Timings are
# reported at this machine speed: each op's time is multiplied by
# REFERENCE_WORK_S over the median of the reference work timed right after
# the REFERENCE_WINDOW ops before it, itself and the REFERENCE_WINDOW after it.
REFERENCE_WORK_S = 0.0005
REFERENCE_WINDOW = 5

WORKLOADS = ("queries", "tables", "verify")
FIXED_LISTS = ("tables", "verify")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"calls": "count", "errors": "count", "self_s": "s", "oracle_s": "s",
                   "permanent_s": "s", "determinant_s": "s", "support_s": "s",
                   "support_hit_ratio": "ratio", "overhead_frac": "ratio", "accounted_frac": "ratio",
                   "bytes_out": "bytes", "wall_s": "s"}


def _child(workload: str, seed: int, trace: int, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), *extra, "--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"a {workload} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _timing(times: list[float]) -> dict:
    ordered = sorted(times)
    p90_rank = max(0, math.ceil(0.9 * len(ordered)) - 1)  # nearest rank
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_p90_ms": ordered[p90_rank] * 1e3,
    }


def _speed(p: dict) -> list[float]:
    """Per op of a pass: the machine's slowdown around it, as reference work time over REFERENCE_WORK_S."""
    ref, w = p["reference"], REFERENCE_WINDOW
    return [statistics.median(ref[max(0, k - w):k + w + 1]) / REFERENCE_WORK_S for k in range(len(ref))]


def _scaled(p: dict) -> list[float]:
    """A pass's op times at the reference machine speed."""
    return [t / f for t, f in zip(p["times"], _speed(p))]


def _per_op(passes: list[dict]) -> list[float]:
    """Each op's median scaled time over the passes."""
    return [statistics.median(ts) for ts in zip(*(_scaled(p) for p in passes))]


def passes_for(workload: str, seconds: float, trace: int) -> int:
    """The fixed number of passes of a run; traced runs make half as many pairs."""
    passes = max(1, int(seconds // PASS_SECONDS[workload]))
    return max(1, passes // 2) if trace else passes


def run_workload(workload: str, seed: int, seconds: float, trace: int, corrupt: int = -1) -> dict:
    started = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    for k in range(passes_for(workload, seconds, trace)):
        extra = ("--check",) if k == 0 else ()
        if corrupt >= 0 and k == 0:
            extra += ("--corrupt", str(corrupt))
        plain.append(_child(workload, seed, 0, *extra))
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-pass{k}.json.gz"
            traced.append(_child(workload, seed, 1, "--spans", str(spans)))
    passes = plain + traced
    setups = [p["setup_s"] / _speed(p)[0] for p in plain]

    # the first pass is checked op by op; every later pass must reproduce it
    checked = plain[0]["digests"]
    failures = [{"pass": k, "op": op_id, "reason": why}
                for k, p in enumerate(passes) for op_id, why in p["failures"].items()]
    failures += [{"pass": k, "op": op_id, "reason": "result differs from the checked pass"}
                 for k, p in enumerate(passes[1:], 1) for op_id, d in p["digests"].items()
                 if checked.get(op_id) != d and op_id not in p["failures"]]
    attempted = sum(len(p["times"]) for p in passes)

    per_op = _per_op(plain)
    metrics = {
        **_timing(per_op),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }
    per_pass = [_timing(_scaled(p)) for p in plain]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(plain),
        "ops_per_pass": len(per_op),
        "samples_beyond_p90": sum(1 for t in per_op if t * 1e3 > metrics["op_p90_ms"]),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "checksum": hashlib.sha256("\n".join(sorted(f"{k}={d}" for k, d in checked.items())).encode()).hexdigest(),
        "metrics": metrics,
        # machine speed per pass (reference work time over REFERENCE_WORK_S) and the unscaled timings
        "slowdown": [statistics.median(_speed(p)) for p in plain],
        "unscaled": {**_timing([statistics.median(ts) for ts in zip(*(p["times"] for p in plain))]),
                     "setup_s": statistics.median(p["setup_s"] for p in plain)},
        "quartiles": {
            **{name: _quartiles([s[name] for s in per_pass]) for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")},
            "setup_s": _quartiles(setups),
            "peak_rss_mb": _quartiles([p["rss_mb"] for p in plain]),
        },
        "failures": failures[:50],
        "op_ms": {op_id: t * 1e3 for op_id, t in zip(plain[0]["ops"], per_op)},
    }
    if workload == "queries":
        record["repeated_pair_share"] = plain[0]["repeated_pair_share"]
    if trace:
        record["layers"] = _layer_metrics(plain, traced)
    record["elapsed_s"] = time.perf_counter() - started
    return record


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Mean per traced pass, times at the reference speed; overhead from the per-op times of both kinds of pass."""
    def value(p: dict, key: str) -> float:
        scale = 1.0 / statistics.median(_speed(p)) if key.endswith("_s") else 1.0
        return p["trace"][key] * scale

    out = {k: statistics.mean(value(p, k) for p in traced) for k in traced[0]["trace"]}
    layer_self = sum(v for k, v in out.items() if k.endswith(".self_s") and not k.startswith("bench."))
    out["trace.accounted_frac"] = layer_self / out["trace.wall_s"]
    out["trace.overhead_frac"] = sum(_per_op(traced)) / sum(_per_op(plain)) - 1.0
    return out


def _unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.split(".", 1)[1], "count")


def _result_line(records: list[dict], trace: int, prefix: bool) -> dict:
    metrics: dict[str, dict] = {}
    for rec in records:
        tag = f"{rec['workload']}." if prefix else ""
        if trace:
            for name, value in rec["layers"].items():
                metrics[tag + name] = {"value": value, "unit": _unit(name)}
        else:
            for name, value in rec["metrics"].items():
                metrics[tag + name] = {"value": value, "unit": END_TO_END[name]}
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def _print_table(records: list[dict]) -> None:
    for rec in records:
        print(f"== {rec['workload']}  seed={rec['seed']}  passes={rec['passes']}  "
              f"op samples={rec['ops_per_pass']} (beyond p90: {rec['samples_beyond_p90']})  "
              f"python={rec['python']}  nproc={rec['nproc']}")
        for name, value in rec["metrics"].items():
            print(f"   {name:<14} {value:>14.6g} {END_TO_END[name]}")
        print(f"   {'failed_frac':<14} {rec['failed_frac']:>14.6g} ratio   "
              f"({rec['failed']} of {rec['attempted']} ops)")
        if "repeated_pair_share" in rec:
            print(f"   repeated (n, i) share of point queries: {rec['repeated_pair_share']:.3f}")
        for name, value in rec.get("layers", {}).items():
            print(f"   {name:<28} {value:>14.6g} {_unit(name)}")
        print(f"   checksum {rec['checksum']}")
        for f in rec["failures"][:10]:
            print(f"   FAILED pass {f['pass']} {f['op']}: {f['reason']}")


def record_expected() -> int:
    """Run each fixed list once, check it by the independent routes, store its digests."""
    expected = {}
    for workload in FIXED_LISTS:
        doc = _child(workload, 0, 0, "--check")
        unrecorded = {op for op, why in doc["failures"].items() if not why.startswith("digest ")}
        if unrecorded:
            print(f"{workload}: not recording, ops fail their checks: {sorted(unrecorded)}", file=sys.stderr)
            return 1
        expected[workload] = dict(sorted(doc["digests"].items()))
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"recorded {sum(len(v) for v in expected.values())} digests in {HERE / 'expected.json'}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record expected.json")
    ap.add_argument("--corrupt", type=int, default=-1, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "abelinv" / "__init__.py").is_file():
        print(f"error: no abelinv sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.record:
        return record_expected()
    if args.workload is None:
        ap.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace, args.corrupt) for w in names]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    for rec in records:
        path = OUT / f"{rec['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
    _print_table(records)
    line = _result_line(records, args.trace, prefix=args.workload == "all")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
