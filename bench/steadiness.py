"""Run the benchmark N times per workload and show how far its figures spread.

    python3 bench/steadiness.py --runs 10 --seconds 25 [--workloads paper_lp pdp_lookup]

Each run is a fresh `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...).  For every end-to-end metric of every workload it
prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, the quartile spread as a
share of the median, and the max/min ratio across runs, and writes the
same figures to bench/out/steadiness.json.  The bounds in BENCHMARK.json
were set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("paper_lp", "crossover_sweep", "pdp_lookup")
UNSCALED = ("ops_per_cpu_s", "ops_per_wall_s", "op_p50_cpu_ms")  # shown beside the metrics


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "max_min_ratio": max(values) / min(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()

    summary = {}
    for name in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            saved = json.loads((BENCH / "out" / f"result-{name}-seed{seed}-trace0.json").read_text())
            for key in UNSCALED:
                results[-1]["metrics"][f"{key} (unscaled)"] = {"value": saved["unscaled"][key]}
            print(f"{name} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in results[-1]["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        summary[name] = {
            "correct": all(r["correct"] for r in results),
            "failed_shares": sorted(shares),
            "metrics": {
                key: spread([r["metrics"][key]["value"] for r in results])
                for key in results[0]["metrics"]
            },
        }
    print(f"\n{'workload':16} {'metric':26} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'max/min':>8}")
    for name, entry in summary.items():
        for key, s in entry["metrics"].items():
            print(f"{name:16} {key:26} {s['median']:11.5g} {s['q1']:11.5g} {s['q3']:11.5g} "
                  f"{s['iqr_share']:8.3f} {s['max_min_ratio']:8.3f}")
        print(f"{name:16} correct={entry['correct']} failed shares={entry['failed_shares']}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steadiness.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
