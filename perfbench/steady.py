"""Steadiness check: run one workload on several seeds and report the spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload identity --seeds 1-10 --label set1

Runs `run.py --trace 0` once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median.  The summary is also written to
.perfbench_out/steady-<label>-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--label", default="run")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    failed_share = set()
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: wrong answers", file=sys.stderr)
            return 1
        failed_share.add(Fraction(result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}
        print(f"{name:16s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {(q3 - q1) / med:.4f}")
    print(f"failed share of attempted, per distinct value: {sorted(map(str, failed_share))}")
    out = ROOT / ".perfbench_out" / f"steady-{args.label}-{args.workload}.json"
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
