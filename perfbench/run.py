"""Benchmark for azsperner: four closed-loop workloads, one caller each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload identity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # the four in turn

Workloads: identity, structure, search (in-process, see workloads.py) and cli
(cold `python -m azsperner` calls).  Each runs in fresh worker processes
(worker.py), one process at a time, with PYTHONHASHSEED fixed.  With
--trace 0 the last stdout line holds the end-to-end metrics, with --trace 1
the per-layer metrics (tracing.py).  Raw results and span dumps go to
.perfbench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TAIL_PERCENTILE

WORKLOADS = ["identity", "structure", "search", "cli"]
SETUP_REPS = 5
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(name: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """(seconds from spawn to READY, parsed final line or None)."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(OUT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"{name} worker exited with {code} before finishing")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def cold_import() -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import azsperner"],
        env=child_env(), cwd=ROOT, check=True,
    )
    return time.perf_counter() - start


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def end_to_end(name: str, raw: dict, setups: list[float]) -> dict:
    lat = sorted(raw["latencies"])
    ok = len(lat) - raw["failed"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "verdicts_per_s": {"value": ok / sum(lat), "unit": "1/s"},
        "verdict_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "verdict_tail_ms": {"value": 1000 * percentile(lat, TAIL_PERCENTILE[name]), "unit": "ms"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    setups: list[float] = []
    if not trace:
        if name == "cli":
            setups = [cold_import() for _ in range(SETUP_REPS)]
        else:
            setups = [run_worker(name, seed, seconds, 0, True)[0] for _ in range(SETUP_REPS - 1)]
    ready, raw = run_worker(name, seed, seconds, trace, False)
    if name != "cli" and not trace:
        setups.append(ready)
    for message in raw["wrong"]:
        print(f"wrong answer in {name}: {message}", file=sys.stderr)
    lat = raw["latencies"]
    print(
        f"# {name} seed={seed} trace={trace}: {len(lat)} calls in {raw['rounds']} rounds of "
        f"{raw['ops_per_round']} operations, {raw['failed']} failed, {raw['wrong_count']} wrong; "
        f"mean {1000 * sum(lat) / len(lat):.2f} ms, p50 {1000 * statistics.median(lat):.2f} ms, "
        f"tail p{TAIL_PERCENTILE[name]} {1000 * percentile(sorted(lat), TAIL_PERCENTILE[name]):.2f} ms"
    )
    result = {
        "correct": raw["wrong_count"] == 0,
        "attempted": len(lat),
        "failed": raw["failed"],
        "metrics": raw["layers"] if trace else end_to_end(name, raw, setups),
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  setups=setups, rounds=raw["rounds"], latencies=lat)
    with open(OUT / f"result-{name}-s{seed}-t{trace}.json", "w") as fh:
        json.dump(record, fh)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "azsperner" / "__init__.py").is_file():
        print(f"no azsperner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cold_import()  # compiles the bytecode once, so no timed start pays for it

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(json.dumps(dict(results[name], workload=name)), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
