"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads capture_grid cli_batch --seeds 0 1 2 3 4

For every end-to-end metric (or per-layer metric with --trace 1) prints the
median over the runs, the quartiles from statistics.quantiles(n=4), and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
Runs are made one after another; the table is also written to
perfbench/out/spread.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    table = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": values}
            bound = bounds.get(name)
            print(f"  {name:42s} median {median:12.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound:g}  ({spread / bound:.2f} of bound)" if bound else ""),
                  flush=True)
        table[workload] = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                           "correct": [r["correct"] for r in runs], "metrics": rows}
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
