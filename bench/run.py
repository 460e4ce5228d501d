"""casimirchip benchmark: three CLI workloads, checked against stored references.

    python3 bench/run.py --workload sweep|cold_scan|point_queries \\
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` a child process repeats passes of the workload
for ``--seconds`` (at least one pass) and the run reports the end-to-end
metrics; set-up time is the median over fresh interpreters.  With
``--trace 1`` the first pass of the same plan runs once untraced and once
traced in separate fresh processes (plus once at ``--workers <nproc>`` for
``sweep``), and the run reports the per-layer metrics.  Every result goes
through the correctness gate in ``gate.py``.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
report, with the environment and (traced) the spans, goes to
``bench/out/``.  ``--smoke`` runs a few results of each workload for the
benchmark's own test.  BLAS threads are left as found: their cost is part
of what users pay at the defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from gate import check_pass
from tracing import percentile, summarize
from workloads import (
    BENCH,
    CONFIG,
    DEFAULT_SEED,
    OUT,
    REFS,
    SRC,
    WORKLOADS,
    load_refs,
    plan,
)

# name -> unit, in the order printed.
END_TO_END = {
    "setup_s": "s",
    "results_per_s": "1/s",
    "result_p50_s": "s",
    "result_p95_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_err": "ratio",
}
PER_LAYER = {
    "config.load_device_config.calls": "count",
    "config.load_device_config.s": "s",
    "lifshitz.plate_pressure.calls": "count",
    "lifshitz.plate_pressure.busy_s": "s",
    "lifshitz.plate_pressure.call_p95_s": "s",
    "lifshitz.terms": "count",
    "lifshitz.terms_max": "count",
    "lifshitz.us_per_term": "us",
    "lifshitz.unique_ratio": "ratio",
    "lifshitz.err_bar_rel_max": "ratio",
    "lifshitz.differential_pressure.calls": "count",
    "lifshitz.busy_share": "ratio",
    "materials.eps_imag_freq.calls": "count",
    "materials.eps_imag_freq.busy_s": "s",
    "materials.zero_frequency_plasma_weight.calls": "count",
    "mechanics.pressure_to_gap_change.busy_s": "s",
    "readout.pdh_voltage.calls": "count",
    "readout.pdh_clamped": "count",
    "readout.busy_s": "s",
    "serialize.busy_s": "s",
    "serialize.bytes_out": "bytes",
    "cli.self_s": "s",
    "config.self_s": "s",
    "lifshitz.self_s": "s",
    "materials.self_s": "s",
    "mechanics.self_s": "s",
    "readout.self_s": "s",
    "serialize.self_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_ratio": "ratio",
}
SETUP_PROBES = 7
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc():
    return len(os.sched_getaffinity(0))


def call_worker(job, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    if not result["module"].startswith(str(SRC)):
        raise BenchError(f"imported casimirchip from {result['module']}, not {SRC}")
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(worker):
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "numpy_config": worker["numpy_config"],
        "blas_threads_env": {name: os.environ.get(name) for name in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def timed_run(args, refs, passes, deadline):
    """End-to-end metrics of one run, tracing off: one process per pass."""
    probes = [call_worker({"mode": "setup"}, deadline)["setup_s"]
              for _ in range(2 if args.smoke else SETUP_PROBES)]
    done, results, problems, per_pass = [], [], [], []
    begin = time.monotonic()
    for inst in passes:
        if done and time.monotonic() - begin + done[-1]["process_s"] > args.seconds:
            break
        start = time.monotonic()
        result = call_worker({"mode": "run", "workload": args.workload, "pass": inst,
                              "workers": nproc()}, deadline)
        result["process_s"] = time.monotonic() - start
        got, found = check_pass(args.workload, result, refs, inst)
        done.append(result)
        results += got
        problems += found
        per_pass.append(len(got))
    latencies = [c["latency"] for p in done for c in p["commands"]]
    rel = [r for _, r in results if r is not None and math.isfinite(r)]
    metrics = {
        "setup_s": statistics.median(probes),
        "results_per_s": statistics.median(n / p["wall"] for n, p in zip(per_pass, done)),
        "result_p50_s": statistics.median(latencies),
        "result_p95_s": percentile(latencies, 0.95),
        "cpu_s": statistics.median(p["cpu"] for p in done),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in done),
        "max_rel_err": max(rel) if rel else math.nan,
    }
    detail = {
        "setup_probes_s": probes,
        "passes": [{"key": p["key"], "wall_s": p["wall"], "cpu_s": p["cpu"],
                    "peak_rss_mb": p["maxrss_mb"], "results": n}
                   for n, p in zip(per_pass, done)],
        "latency_samples": len(latencies),
    }
    return metrics, results, problems, detail, done[0]


def traced_run(args, refs, passes, deadline):
    """Per-layer metrics: the first pass untraced, traced, and (sweep) at nproc."""
    inst = passes[0]
    serial = 1 if args.workload == "sweep" else nproc()
    job = {"mode": "run", "workload": args.workload, "pass": inst, "workers": serial}
    plain = call_worker(job, deadline)
    traced = call_worker(dict(job, trace=True), deadline)
    runs = [plain, traced]
    extra, problems = {}, []
    if args.workload == "sweep":
        pooled = call_worker(dict(job, workers=nproc()), deadline)
        runs.append(pooled)
        extra["designer.pool_speedup"] = plain["wall"] / pooled["wall"]
        if pooled["commands"][0]["out"] != traced["commands"][0]["out"]:
            problems.append(f"sweep CSV at --workers {nproc()} differs from the traced "
                            "--workers 1 CSV")
    results = []
    for run in runs:
        got, found = check_pass(args.workload, run, refs, inst)
        results += got
        problems += found
    metrics, more = summarize(traced["spans"], traced["wall"])
    metrics["proc.cpu_util"] = plain["cpu"] / plain["wall"]
    metrics["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    extra.update(more)
    detail = {"untraced": {"wall_s": plain["wall"], "cpu_s": plain["cpu"],
                           "peak_rss_mb": plain["maxrss_mb"], "workers": serial},
              "traced": {"wall_s": traced["wall"], "cpu_s": traced["cpu"],
                         "peak_rss_mb": traced["maxrss_mb"], "workers": serial}}
    if args.workload == "sweep":
        detail["pooled"] = {"wall_s": runs[2]["wall"], "cpu_s": runs[2]["cpu"],
                            "peak_rss_mb": runs[2]["maxrss_mb"], "workers": nproc()}
    detail.update(per_layer_extra=extra,
                  spans_fields=["name", "start", "end", "parent", "request", "info"],
                  spans=traced["spans"])
    return metrics, results, problems, detail, plain


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few results per workload, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    needed = [SRC / "casimirchip" / "__init__.py", CONFIG, REFS / f"{args.workload}.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a casimirchip checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    refs = load_refs(args.workload)
    passes = plan(args.workload, args.seed, smoke=args.smoke)
    try:
        run = traced_run if args.trace else timed_run
        metrics, results, problems, detail, worker = run(args, refs, passes, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = len(results), sum(not ok for ok, _ in results)
    correct = failed == 0 and not problems and all(math.isfinite(metrics[m]) for m in units)
    named = {m: {"value": metrics[m], "unit": u} for m, u in units.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(worker),
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else math.nan,
        "metrics": named, "problems": problems[:200], **detail,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")

    env = report["environment"]
    blas = env["numpy_config"].get("Build Dependencies", {}).get("blas", {})
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: attempted {attempted}, "
          f"failed {failed}, fail_ratio {report['fail_ratio']:.3g}, correct {correct}")
    print(f"# env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} blas={blas.get('name')} {blas.get('version')} "
          f"threads={env['blas_threads_env']}")
    for problem in problems[:10]:
        print(f"# FAIL {problem}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    for name, value in detail.get("per_layer_extra", {}).items():
        if isinstance(value, float):
            print(f"# {name} = {value:.6g} (trace file only)")
    print(f"# report: {path.relative_to(BENCH.parent)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
