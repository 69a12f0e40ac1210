"""One workload in a fresh interpreter: set up, print READY, then run rounds.

A closed loop with one caller: each operation is timed on its own, its
verdict is checked, and garbage is collected, both outside the timed
interval, before the next operation starts.  Whole rounds of the workload's
operation list run until --seconds have passed and the run holds enough
samples for the workload's tail percentile.  The last stdout line is a JSON
object with the raw latencies and counts; run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time

import checks as C
import workloads as W
from tracing import Tracer, instrument, layer_metrics, traced_import


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(W.TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for span dumps")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    tracer = Tracer() if args.trace else None
    span_file = None
    if args.workload == "cli":
        if tracer:
            span_file = os.path.join(args.out, "cli-call-spans.json")
        ops = W.cli(args.seed, root, dict(os.environ), span_file)
    else:
        if tracer:
            traced_import(tracer)
            instrument(tracer)
        import azsperner

        if not os.path.abspath(azsperner.__file__).startswith(os.path.join(root, "src")):
            raise SystemExit(f"azsperner imported from {azsperner.__file__}, not this checkout")
        ops = W.IN_PROCESS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        tracer.phase = "op"
    dumps: list[dict] = []
    gc.collect()
    gc.freeze()
    gc.disable()
    if args.workload != "cli" and len(ops) < W.MIN_SAMPLES[args.workload]:
        raise SystemExit(f"{args.workload} has {len(ops)} operations, fewer than its tail needs")
    min_rounds = math.ceil(W.MIN_SAMPLES[args.workload] / len(ops))
    latencies: list[float] = []
    failed = 0
    wrong: list[str] = []
    criteria_ms = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        for op in ops:
            span = tracer.open("op." + op.kind) if tracer else None
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer:
                tracer.close(span)
            latencies.append(t1 - t0)
            if error is None:
                try:
                    op.check(result)
                except C.OpFailed as exc:
                    error = str(exc)
                except Exception as exc:  # any other check failure is a wrong answer
                    wrong.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            if error is not None:
                failed += 1
                if rounds == 0:
                    print(f"failed {op.kind}: {error}", file=sys.stderr)
            if span_file is not None and os.path.exists(span_file):
                with open(span_file) as fh:
                    dumps.append(json.load(fh))
                os.remove(span_file)
                if op.kind == "suite" and error is None:
                    criteria_ms += 1000.0 * json.loads(result[1])["seconds"]
            gc.collect()
        rounds += 1
    gc.enable()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out = {
        "latencies": latencies,
        "failed": failed,
        "wrong": wrong[:20],
        "wrong_count": len(wrong),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer:
        dumps.append(tracer.dump())
        dumps.append({"spans": [], "counters": [["op", "acceptance.criteria_ms", criteria_ms]]})
        setups = len(latencies) if args.workload == "cli" else 1
        out["layers"] = layer_metrics(dumps, setups, len(latencies))
        name = f"spans-{args.workload}-s{args.seed}.json"
        with open(os.path.join(args.out, name), "w") as fh:
            json.dump(dumps, fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
