"""Print a short hash of each CLI command's output on the example config,
then a sha256 digest over all of them.

Two checkouts whose commands agree byte for byte print the same lines, so a
change can be checked against its parent with

    PYTHONPATH=src python tools/cli_digest.py

run in each checkout on one machine.  The package is imported from
PYTHONPATH, not from this file's checkout.

Each command runs through ``casimirchip.cli.main`` in this process, in a
temporary directory that holds a copy of the example config and the R(T)
tables, so no checkout's path reaches the output; its stdout, stderr
(warnings included) and exit code are hashed together.  The commands: ``pressure`` at 0 K, 50 mK and 1.2 K in text and JSON; ``sweep``
at one and two workers; a ``grav-casimir`` and a material-pair ``scan``;
``transduce`` inside the PDH window and at a clamping pressure; ``detect``;
``validate``; ``film`` from the config's conductivity, ``--sigma`` and
``--r4k``; ``tc`` on a generated single-step and two-step R(T) table;
``pressure`` and a ``sweep --spec`` at 1e300 K, where the pressure
overflows and the engine's error is the output; a ``sweep --spec`` cell at
10 nm and T = 0 whose two pairs stop on different frequency rungs (129 and
257 nodes); ``pressure`` at a 1e-80 m gap, where the k-integrals overflow,
and plasma ``pressure`` at 1e-18 m, where the material response has
vanished from eps, each with the engine's error as the output; ``film``
on a copy of the config without ``sigma_4k_per_ohm_m``, which falls back to
its ``r4k_ohm``; ``validate`` on a copy with a negative ``m_eff_pg``; and a
material-pair ``scan`` above T_c on a copy with a 1e-10 nm gap, where the
pairs respond alike but the response has vanished from eps.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile

from casimirchip import cli, example_config_path

CONFIG = "example_device.cfg"


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def _rt_table(resistance, t_lo, t_hi, points):
    """R(T) CSV text of ``resistance(T)`` on an even temperature grid."""
    step = (t_hi - t_lo) / (points - 1)
    rows = "".join(f"{t!r},{resistance(t)!r}\n"
                   for t in (t_lo + i * step for i in range(points)))
    return "temperature_K,resistance_ohm\n" + rows


RT_TABLES = {
    "single_step": _rt_table(lambda t: 45.0 * _sigmoid((t - 0.95) / 0.01), 0.7, 1.2, 120),
    "two_step": _rt_table(lambda t: 1.0 + 19.0 * _sigmoid((t - 0.9) / 0.003)
                          + 25.0 * _sigmoid((t - 1.2) / 0.003), 0.6, 1.6, 160),
}

# A one-cell sweep past the float range: each pair's row carries the error.
HOT_SPEC = """[sweep]
gap_min_nm = 100
gap_max_nm = 100
gap_step_nm = 10
temperatures_K = 1e300
pairs = ideal/ideal, al_drude/al_drude
"""

# One cell whose ideal pair stops before the Drude pair and rides along.
APART_SPEC = """[sweep]
gap_min_nm = 10
gap_max_nm = 10
gap_step_nm = 10
temperatures_K = 0
pairs = ideal/ideal, al_drude/al_drude
"""


def commands():
    """Every digested argv, in a fixed order, with paths relative to the
    directory that holds the config and the tables."""
    config = ["--config", CONFIG]
    for temp in ("0", "50mK", "1.2K"):
        for fmt in ("text", "json"):
            yield ["pressure", "--gap", "100nm", "--temp", temp, "--model-a", "al_sc",
                   "--model-b", "al_drude", *config, "--format", fmt]
    for workers in ("1", "2"):
        yield ["sweep", *config, "--workers", workers]
    for theory in ("grav-casimir", "al_sc/al_sc-vs-al_drude/al_drude"):
        yield ["scan", *config, "--tmin", "100mK", "--tmax", "1.2K", "--points", "12",
               "--theory", theory]
    for pressure in ("6mPa", "500Pa"):
        yield ["transduce", *config, "--pressure", pressure]
    yield ["detect", *config]
    yield ["validate", *config]
    yield ["film", *config]
    yield ["film", *config, "--sigma", "4.1e7"]
    yield ["film", *config, "--r4k", "45"]
    for name in RT_TABLES:
        yield ["tc", "--input", f"{name}.csv"]
    yield ["pressure", "--gap", "100nm", "--temp", "1e300K", "--model-a", "ideal",
           "--model-b", "ideal"]
    yield ["sweep", *config, "--spec", "hot_spec.cfg"]
    yield ["sweep", *config, "--spec", "apart_spec.cfg"]
    yield ["pressure", "--gap", "1e-80m", "--temp", "0", "--model-a", "ideal",
           "--model-b", "ideal"]
    yield ["pressure", "--gap", "1e-18m", "--temp", "0", "--model-a", "al_plasma",
           "--model-b", "al_plasma", *config]
    yield ["film", "--config", "no_sigma.cfg"]
    yield ["validate", "--config", "negative_m_eff.cfg"]
    yield ["scan", "--config", "tiny_gap.cfg", "--tmin", "950mK", "--tmax", "1.2K",
           "--points", "3", "--theory", "al_sc/al_sc-vs-al_drude/al_drude"]


def run(argv):
    """(stdout, stderr, exit code) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def main():
    total = hashlib.sha256()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work_dir:
        shutil.copyfile(example_config_path(), os.path.join(work_dir, CONFIG))
        files = {f"{name}.csv": text for name, text in RT_TABLES.items()}
        files["hot_spec.cfg"] = HOT_SPEC
        files["apart_spec.cfg"] = APART_SPEC
        example = example_config_path().read_text()
        files["no_sigma.cfg"] = "".join(
            line for line in example.splitlines(keepends=True)
            if not line.startswith("sigma_4k_per_ohm_m"))
        files["negative_m_eff.cfg"] = example.replace("m_eff_pg = 418", "m_eff_pg = -418")
        files["tiny_gap.cfg"] = example.replace("gap_nm = 100", "gap_nm = 1e-10")
        for name, text in files.items():
            with open(os.path.join(work_dir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        os.chdir(work_dir)
        try:
            for argv in commands():
                digest = hashlib.sha256(json.dumps(run(argv)).encode()).hexdigest()
                total.update(digest.encode() + b"\n")
                print(f"{digest[:12]}  {' '.join(argv)}")
        finally:
            os.chdir(start)
    print(f"sha256 {total.hexdigest()}")


if __name__ == "__main__":
    main()
