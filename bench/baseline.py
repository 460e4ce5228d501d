"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 bench/baseline.py --seeds 1-10 [--workloads sweep,cold_scan] \\
        [--trace 0|1] [--write bench/baseline.json]

For every workload it runs ``run.py`` once per seed, one run at a time, and
reports each metric's median, quartiles and quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``), with the environment of
the last run.  With ``--write`` the
summary is merged into a JSON file under the key ``trace<0|1>``.
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
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default="sweep,cold_scan,point_queries")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["elapsed_s"] = seed, time.monotonic() - start
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({result['elapsed_s']:.0f} s)", file=sys.stderr, flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None,
                             "values": values}
            print(f"  {name:45s} median {median:.6g} {first['unit']:6s} "
                  f"spread {metrics[name]['spread'] if median else float('nan'):.3f}")
        report = BENCH / "out" / f"{workload}-seed{args.seeds[-1]}-trace{args.trace}.json"
        summary[workload] = {
            "environment": json.loads(report.read_text(encoding="utf-8"))["environment"],
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "max_elapsed_s": max(r["elapsed_s"] for r in runs),
            "metrics": metrics,
        }
    if args.write:
        doc = json.loads(args.write.read_text(encoding="utf-8")) if args.write.exists() else {}
        doc.setdefault(f"trace{args.trace}", {}).update(summary)
        args.write.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
