"""Workload definitions: seeded inputs for the three benchmark workloads.

Every workload is a closed loop of ``casimirchip.cli.main(argv)`` calls made
from one fresh process (a *pass*); the next command starts when the
previous one returns.  A run repeats passes, each in its own process as a
user's CLI call would be, until its time is up.  Each workload has 16
variants k = 0..15 of the same size and cost profile; the seed picks the
order in which a run uses them, and k = 0 comes first only for the default
seed.

* ``sweep``: the bundled ``[sweep]`` (21 gaps x 2 pairs at 1.3 K) at
  ``--workers <nproc>``.  Variant 0 is the bundled grid; variant k shifts the
  gaps by k/16 nm (a sub-step offset, at most 0.94 nm of the 10 nm step).
* ``cold_scan``: the al_sc/al_sc-vs-al_drude/al_drude scan over 12 points
  from 100 mK to 1.05 K.  Variant 0 is that grid; variant k shifts both ends
  by k/4 mK (at most 3.75 mK of the 86 mK step).
* ``point_queries``: ``pressure --format json`` followed by ``transduce``
  with the returned pressure, for 200 queries: 60 at T = 0 and 140 with T
  uniform over 1-10 K, gaps log-uniform over 50 nm - 1 um, ordered material
  pairs from {ideal, al_plasma, al_drude, al_sc}, no two sharing a gap or a
  non-zero temperature.  The 200 are drawn once (``pq_design``); variant k
  scales every gap by 1 + k/16 * 1e-3 and raises every non-zero T by
  k * 0.1 mK, and the seed also shuffles the query order.  One fixed draw
  keeps the cost profile, and so the p95 latency and the peak RSS (set by
  the coldest, closest query), the same for every seed.

Every variant has stored high-accuracy references in ``refs/`` (see
``make_refs.py``), so no reference is computed during a run.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = SRC / "casimirchip" / "data" / "example_device.cfg"
REFS = BENCH / "refs"
OUT = BENCH / "out"

WORKLOADS = ("sweep", "cold_scan", "point_queries")
DEFAULT_SEED = 0
VARIANTS = 16

# Tolerance the gate adds to each result's own error bar: the CLI's
# default rel_tol_series.
REL_TOL_SERIES = 1e-6

SWEEP_BUNDLED = {"gap_min_nm": 100.0, "gap_max_nm": 300.0, "gap_step_nm": 10.0,
                 "temperatures_K": "1.3", "pairs": "al_plasma/al_plasma, al_drude/al_drude"}
SCAN_THEORY = "al_sc/al_sc-vs-al_drude/al_drude"
SCAN_POINTS = 12
PQ_ZERO_T = 60
PQ_FINITE_T = 140
PQ_MATERIALS = ("ideal", "al_plasma", "al_drude", "al_sc")


def sweep_instance(k):
    """Spec of sweep variant k; k = 0 is the bundled ``[sweep]``."""
    spec = dict(SWEEP_BUNDLED)
    spec["gap_min_nm"] += k / 16.0
    spec["gap_max_nm"] += k / 16.0
    return {"key": str(k), "spec": spec, "bundled": k == 0}


def sweep_smoke_instance():
    """The first two gaps of the bundled grid (4 rows of variant 0)."""
    return {"key": "0", "spec": dict(SWEEP_BUNDLED, gap_max_nm=110.0), "bundled": False}


def scan_instance(k):
    """Ends of cold-scan variant k; k = 0 is 100 mK .. 1.05 K."""
    if k == 0:
        tmin, tmax = "100mK", "1.05K"
    else:
        tmin, tmax = f"{100.0 + k / 4.0!r}mK", f"{1050.0 + k / 4.0!r}mK"
    return {"key": str(k), "tmin": tmin, "tmax": tmax, "points": SCAN_POINTS}


def scan_smoke_instance():
    return {"key": "smoke", "tmin": "800mK", "tmax": "1.05K", "points": 2}


def spec_text(spec):
    """A ``[sweep]`` section the CLI reads through ``--spec``."""
    lines = ["[sweep]"] + [f"{key} = {value!r}" if isinstance(value, float)
                           else f"{key} = {value}" for key, value in spec.items()]
    return "\n".join(lines) + "\n"


def pq_design(seed=20181806):
    """The 200 point queries as (gap_nm, T_K, mat_a, mat_b); T = 0 first."""
    rng = random.Random(seed)
    gaps, temps, design = set(), set(), []
    while len(design) < PQ_ZERO_T + PQ_FINITE_T:
        gap = float(f"{math.exp(rng.uniform(math.log(50.0), math.log(1000.0))):.6g}")
        temp = 0.0 if len(design) < PQ_ZERO_T else float(f"{rng.uniform(1.0, 10.0):.6g}")
        if gap in gaps or temp in temps:
            continue
        gaps.add(gap)
        if temp:
            temps.add(temp)
        design.append((gap, temp, rng.choice(PQ_MATERIALS), rng.choice(PQ_MATERIALS)))
    return design


def pq_queries(k):
    """Point-query variant k as CLI arguments."""
    return [{"gap": f"{gap * (1.0 + k / 16.0 * 1e-3):.12g}nm",
             "temp": f"{temp + k * 1e-4:.12g}K" if temp else "0",
             "a": a, "b": b}
            for gap, temp, a, b in pq_design()]


def load_refs(workload):
    with open(REFS / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def plan(workload, seed, smoke=False):
    """Inputs of every pass a run may make, in the order it makes them."""
    rng = random.Random(seed)
    order = list(range(1, VARIANTS))
    rng.shuffle(order)
    if seed == DEFAULT_SEED:
        order.insert(0, 0)
    if workload == "sweep":
        return [sweep_smoke_instance()] if smoke else [sweep_instance(k) for k in order]
    if workload == "cold_scan":
        return [scan_smoke_instance()] if smoke else [scan_instance(k) for k in order]
    if workload == "point_queries":
        passes = []
        for k in order[:1] if smoke else order:
            picked = [0, 1, PQ_ZERO_T, PQ_ZERO_T + 1] if smoke else \
                list(range(PQ_ZERO_T + PQ_FINITE_T))
            rng.shuffle(picked)
            passes.append({"key": str(k), "queries": picked})
        return passes
    raise ValueError(f"unknown workload {workload!r}")
