"""Child process of the benchmark: runs one job read as JSON from stdin.

A job is either ``{"mode": "setup"}`` (time ``import casimirchip`` plus
loading the example config in this fresh interpreter) or one pass of a
workload, run in process through ``casimirchip.cli.main(argv)`` with stdout
and stderr captured.  The result is one JSON object on stdout.  Nothing but
the workload runs here, so ``ru_maxrss`` is the workload's.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from workloads import CONFIG, OUT, SCAN_THEORY, SRC, load_refs, spec_text


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _numpy_config(numpy):
    """BLAS/LAPACK build and SIMD support, without install paths."""
    config = numpy.show_config(mode="dicts")
    libs = {name: {k: v for k, v in lib.items() if "directory" not in k}
            for name, lib in config.get("Build Dependencies", {}).items()}
    return {"Build Dependencies": libs, "SIMD Extensions": config.get("SIMD Extensions")}


def setup_probe():
    start = time.perf_counter()
    import casimirchip

    casimirchip.load_device_config(casimirchip.example_config_path())
    return {"setup_s": time.perf_counter() - start, "module": casimirchip.__file__}


class Runner:
    """Runs CLI commands in process; a tracer, if given, sees every call."""

    def __init__(self, tracer=None):
        from casimirchip import cli

        self.cli = cli
        self.tracer = tracer

    def command(self, argv):
        if self.tracer is not None:
            self.tracer.request += 1
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed result, not a dead run
                code = -1
                err.write(f"{type(exc).__name__}: {exc}\n")
        return code, out.getvalue(), err.getvalue()


def sweep_pass(runner, job, inst):
    argv = ["sweep", "--config", str(CONFIG), "--workers", str(job["workers"])]
    if not inst["bundled"]:
        path = OUT / f"sweep-spec-{inst['key']}-{inst['spec']['gap_max_nm']!r}.cfg"
        path.write_text(spec_text(inst["spec"]), encoding="utf-8")
        argv += ["--spec", str(path)]
    start = time.perf_counter()
    code, out, err = runner.command(argv)
    return {"commands": [{"code": code, "out": out, "err": err[-2000:],
                          "latency": time.perf_counter() - start}]}


def scan_pass(runner, job, inst):
    argv = ["scan", "--config", str(CONFIG), "--theory", SCAN_THEORY,
            "--tmin", inst["tmin"], "--tmax", inst["tmax"], "--points", str(inst["points"])]
    start = time.perf_counter()
    code, out, err = runner.command(argv)
    return {"commands": [{"code": code, "out": out, "err": err[-2000:],
                          "latency": time.perf_counter() - start}]}


def query_pass(runner, job, inst):
    commands = []
    for index in inst["queries"]:
        q = job["queries"][index]
        start = time.perf_counter()
        code, out, err = runner.command(
            ["pressure", "--gap", q["gap"], "--temp", q["temp"], "--model-a", q["a"],
             "--model-b", q["b"], "--config", str(CONFIG), "--format", "json"])
        record = {"index": index, "code": code, "out": out, "err": err[-2000:]}
        if code == 0:
            try:
                pressure = json.loads(out)["pressure_Pa"]
            except (ValueError, KeyError) as exc:
                record.update(code2=None, err2=f"unreadable pressure output: {exc!r}")
            else:
                code2, out2, err2 = runner.command(
                    ["transduce", "--config", str(CONFIG), "--pressure", f"{pressure!r}Pa",
                     "--format", "json"])
                record.update(code2=code2, out2=out2, err2=err2[-2000:])
        record["latency"] = time.perf_counter() - start
        commands.append(record)
    return {"commands": commands}


PASSES = {"sweep": sweep_pass, "cold_scan": scan_pass, "point_queries": query_pass}


def run(job):
    """One pass of a workload; with ``trace`` set, every layer call is a span."""
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)
    inst = job["pass"]
    if job["workload"] == "point_queries":
        job["queries"] = load_refs("point_queries")["instances"][inst["key"]]
    cpu, start = _cpu(), time.perf_counter()
    try:
        result = PASSES[job["workload"]](runner, job, inst)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.update(key=inst["key"], wall=time.perf_counter() - start, cpu=_cpu() - cpu)
    import numpy

    result.update(
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        module=runner.cli.__file__,
        numpy=numpy.__version__,
        numpy_config=_numpy_config(numpy),
    )
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    result = setup_probe() if job["mode"] == "setup" else run(job)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
