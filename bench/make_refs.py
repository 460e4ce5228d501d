"""Generate the stored references in ``refs/``.

    python3 bench/make_refs.py sweep|cold_scan|point_queries

Each reference pressure is ``plate_pressure`` at rel_tol_series =
rel_tol_quadrature = 1e-11.  Beside it the file keeps the error bar
(truncation + quadrature estimate) that the same code reports at its
default numerics, which is the bar the gate uses where the CLI output does
not carry one (sweep and scan CSVs).  Run this only with the code whose
results are the reference; the files record the command and the numerics.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout

from workloads import (
    CONFIG,
    REFS,
    SCAN_THEORY,
    SRC,
    VARIANTS,
    pq_queries,
    scan_instance,
    scan_smoke_instance,
    spec_text,
    sweep_instance,
)

sys.path.insert(0, str(SRC))

import casimirchip  # noqa: E402
from casimirchip import cli  # noqa: E402
from casimirchip.config import (  # noqa: E402
    load_device_config,
    parse_length,
    parse_material_spec,
    parse_temperature,
)
from casimirchip.lifshitz import (  # noqa: E402
    DEFAULT_NUMERICS,
    LifshitzNumerics,
    ideal_pressure_closed_form,
    plate_pressure,
)
from casimirchip.mechanics import pressure_to_gap_change  # noqa: E402
from casimirchip.readout import (  # noqa: E402
    gap_change_to_frequency_shift,
    min_detectable_pressure,
)

REF_NUMERICS = LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11)
CFG = load_device_config(str(CONFIG))


def reference(gap, temp, a, b):
    """[p_ref, bar] for one plate pair: p at 1e-11, bar at default numerics."""
    mat_a = parse_material_spec(a, CFG.materials)
    mat_b = parse_material_spec(b, CFG.materials)
    ref = plate_pressure(gap, temp, mat_a, mat_b, REF_NUMERICS)
    dflt = plate_pressure(gap, temp, mat_a, mat_b, DEFAULT_NUMERICS)
    return [ref.pressure, dflt.truncation_estimate + dflt.quadrature_estimate]


def chain():
    """Linear chain constants: |cavity shift| per Pa, PDH slope and window."""
    gain = gap_change_to_frequency_shift(pressure_to_gap_change(1.0, CFG.geometry),
                                         CFG.cavity)
    return {
        "gain_hz_per_pa": gain,
        "pdh_slope_v_per_hz": CFG.calib.pdh_slope,
        "linear_window_hz": CFG.calib.linear_window,
        "floor_pa": min_detectable_pressure(CFG.geometry, CFG.cavity, CFG.calib).pressure,
    }


def sweep_gaps(spec):
    """Gap grid exactly as the CLI builds it from a ``[sweep]`` spec."""
    path = REFS / "_spec.cfg"
    path.write_text(spec_text(spec), encoding="utf-8")
    try:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["sweep", "--config", str(CONFIG), "--spec", str(path),
                             "--rel-tol-series", "1e-4", "--rel-tol-quadrature", "1e-4"])
        if code != 0:
            raise SystemExit(f"sweep spec {spec} failed with exit code {code}")
    finally:
        path.unlink()
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    return sorted({float(r[0]) for r in rows}), sorted({float(r[1]) for r in rows})


def make_sweep():
    instances = {}
    for k in range(VARIANTS):
        inst = sweep_instance(k)
        gaps, temps = sweep_gaps(inst["spec"])
        pairs = [p.strip() for p in inst["spec"]["pairs"].split(",")]
        rows = []
        for gap in gaps:
            for temp in temps:
                for pair in pairs:
                    a, b = pair.split("/")
                    rows.append([gap, temp, pair] + reference(gap, temp, a, b))
        instances[inst["key"]] = {"rows": rows}
        print(f"sweep {k}: {len(rows)} rows", file=sys.stderr, flush=True)
    return {"instances": instances}


def scan_grid(inst):
    """Temperature grid exactly as the CLI's ``scan`` builds it."""
    tmin, tmax = parse_temperature(inst["tmin"]), parse_temperature(inst["tmax"])
    step = (tmax - tmin) / (inst["points"] - 1)
    return [tmin + i * step for i in range(inst["points"])]


def make_scan():
    pair, ref_pair = SCAN_THEORY.split("-vs-")
    gap = CFG.geometry.gap
    instances = {}
    for inst in [scan_instance(k) for k in range(VARIANTS)] + [scan_smoke_instance()]:
        grid = scan_grid(inst)
        operands = []
        for temp in grid:
            operands.append(reference(gap, temp, *pair.split("/"))
                            + reference(gap, temp, *ref_pair.split("/")))
        instances[inst["key"]] = {"grid": grid, "operands": operands}
        print(f"scan {inst['key']}: {len(grid)} points", file=sys.stderr, flush=True)
    return {"gap_m": gap, "instances": instances}


def make_point_queries():
    instances = {}
    for k in range(VARIANTS):
        queries = pq_queries(k)
        for q in queries:
            gap, temp = parse_length(q["gap"]), parse_temperature(q["temp"])
            q["p_ref"], _ = reference(gap, temp, q["a"], q["b"])
            q["closed_form"] = (ideal_pressure_closed_form(gap)
                                if temp == 0.0 and q["a"] == q["b"] == "ideal" else None)
        instances[str(k)] = queries
        print(f"point_queries {k}: {len(queries)} queries", file=sys.stderr, flush=True)
    return {"instances": instances}


def main(workload):
    start = time.perf_counter()
    body = {"sweep": make_sweep, "cold_scan": make_scan,
            "point_queries": make_point_queries}[workload]()
    doc = {
        "generated_with": f"python3 bench/make_refs.py {workload}",
        "casimirchip_version": casimirchip.__version__,
        "reference_numerics": {"rel_tol_series": REF_NUMERICS.rel_tol_series,
                               "rel_tol_quadrature": REF_NUMERICS.rel_tol_quadrature,
                               "t_zero_nodes": REF_NUMERICS.t_zero_nodes},
        "bar_numerics": "default LifshitzNumerics()",
        "chain": chain(),
        **body,
    }
    path = REFS / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path} in {time.perf_counter() - start:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
