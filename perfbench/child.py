"""One pass of one workload in a fresh interpreter; run by run.py, not by hand.

Set-up is everything from the parent's spawn timestamp to the first op:
interpreter start, importing abelinv, building the op list and (traced runs)
installing the wrappers.  Ops then run one at a time, each timed alone.  After
each op, outside its timing, the pass times `reference_work()`, a fixed loop
of small-int and of big-int arithmetic (the library's closed forms and
polynomials are both); those samples tell the runner how fast the machine ran
around each op.  The loop allocates no container, so it does not trigger the
garbage collector and its time does not depend on the heap the library
leaves behind.  Peak RSS is read after the last op and before the
checks (`--check`, first pass of a run only), so oracle work done by the
checks does not count.  The pass prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def reference_work() -> int:
    small = 0
    for k in range(2000):
        small = (small * 31 + k) % 1000003
    big = 3 ** 200
    for k in range(300):
        big = (big * 1000003 + k) % (7 ** 150)
    return small + big


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's perf_counter at spawn")
    ap.add_argument("--check", action="store_true", help="check every result by an independent route")
    ap.add_argument("--corrupt", type=int, default=-1, help="falsify this op's result (self-test)")
    ap.add_argument("--spans", help="write the traced pass's spans to this file")
    args = ap.parse_args()

    import abelinv
    import workloads

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(abelinv)
    setup_s = time.perf_counter() - args.spawned_at

    times: list[float] = []
    reference: list[float] = []
    summaries: dict[str, dict] = {}
    failures: dict[str, str] = {}
    pc = time.perf_counter
    for index, op in enumerate(ops):
        inputs = workloads.prepare(op)
        try:
            if tracer is not None:
                tracer.begin_op(index, op.kind)
            start = pc()
            try:
                result = workloads.execute(op, inputs)
            finally:
                elapsed = pc() - start
                if tracer is not None:
                    tracer.end_op()
        except Exception as ex:  # a failing op is counted, the pass goes on
            result = None
            failures[op.id] = f"raised {type(ex).__name__}: {ex}"
        times.append(elapsed)
        if op.id not in failures:
            if index == args.corrupt:
                result = workloads.corrupt(result)
            summaries[op.id] = workloads.summarize(op, result)
        del result
        start = pc()
        reference_work()
        reference.append(pc() - start)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.check:
        expected = None
        if args.workload in workloads.FIXED_LISTS:
            path = Path(__file__).with_name("expected.json")
            expected = json.loads(path.read_text())[args.workload] if path.is_file() else {}
        checker = workloads.Checker(summaries, expected)
        for op in ops:
            if op.id not in summaries:
                continue
            try:
                reason = checker.check(op)
            except Exception as ex:
                reason = f"check raised {type(ex).__name__}: {ex}"
            if reason is not None:
                failures[op.id] = reason

    doc = {
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "ops": [op.id for op in ops],
        "kinds": [op.kind for op in ops],
        "times": times,
        "reference": reference,
        "digests": {op_id: s["digest"] for op_id, s in summaries.items()},
        "failures": failures,
    }
    if args.workload == "queries":
        doc["repeated_pair_share"] = workloads.repeated_pair_share(ops)
    if tracer is not None:
        doc["trace"] = tracer.metrics()
        if args.spans:
            doc["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
