"""The package's import surface, each check in a fresh interpreter: loading
a device config leaves numpy unloaded, and loading one by path leaves
dataclasses, inspect and importlib.resources unloaded too; the package
leaves the environment alone, the CLI's one-thread BLAS default yields to
the user's setting, every lazy export resolves, and CLI warnings reach
stderr as ``warning: <message>`` lines without Python source.  Last, every
source file parses under the oldest Python that pyproject.toml allows."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casimirchip

SRC = str(Path(casimirchip.__file__).resolve().parents[1])
EXAMPLE = str(casimirchip.example_config_path())
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(*args, **variables):
    """(stdout, stderr) of ``python *args`` with the package importable, the
    BLAS thread variables unset and then ``variables`` set; the run must
    exit 0."""
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(variables)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


# The scalar chain and the film and T_c functions on the config at PATH,
# which the script that runs this sets first.
SCALAR_CHAIN = """
import math, sys
import casimirchip as cc
cfg = cc.load_device_config(PATH)
assert cfg.sweep is not None
cc.effective_stiffness(cfg.m_eff, cc.fundamental_frequency(cfg.geometry))
cc.axial_tension(cfg.geometry)
gap_change = cc.pressure_to_gap_change(0.5, cfg.geometry)
cc.min_detectable_pressure(cfg.geometry, cfg.cavity, cfg.calib)
shift = cc.gap_change_to_frequency_shift(-gap_change, cfg.cavity)
cc.pdh_voltage(shift, cfg.calib)
film = cfg.film
sigma = cc.conductivity_from_four_point(film.wire_length, film.cross_section, 45.0)
ell = cc.mean_free_path(sigma, film.rho_ell)
cc.coherence_length(film.xi0, ell, mode="exact")
cc.penetration_depth(film.lambda_l, film.xi0, ell, mode="exact")
rows = "".join(f"{0.7 + 0.01 * i},{45.0 / (1.0 + math.exp(-(i - 25) / 1.0))}\\n"
               for i in range(50))
curve = cc.ingest_rt_table("temperature_K,resistance_ohm\\n" + rows)
assert abs(cc.extract_tc(curve).t_c - 0.95) < 0.005
"""


def test_loading_a_config_leaves_numpy_unloaded():
    # The scalar chain and the film and T_c functions leave numpy unloaded too.
    out, _ = run_python("-c", "import casimirchip\nPATH = casimirchip.example_config_path()"
                        + SCALAR_CHAIN + """
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
""")
    assert out == "[]\n"


def test_loading_a_config_by_path_leaves_dataclasses_and_inspect_unloaded():
    # Without site, which may import importlib.resources itself; the config
    # is given by path, as the CLI's --config gives it.
    out, _ = run_python("-S", "-c", f"PATH = {EXAMPLE!r}" + SCALAR_CHAIN + """
print(sorted({"dataclasses", "inspect", "importlib.resources"} & set(sys.modules)))
""")
    assert out == "[]\n"


def test_package_leaves_the_environment_alone():
    out, _ = run_python("-c", """
import json, os
before = dict(os.environ)
import casimirchip
casimirchip.load_device_config(casimirchip.example_config_path())
loaded = dict(os.environ)
ideal = casimirchip.IdealMetal()
casimirchip.plate_pressure(100e-9, 1.3, ideal, ideal)
print(json.dumps([loaded == before, dict(os.environ) == before]))
""")
    assert json.loads(out) == [True, True]


@pytest.mark.parametrize("variables, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}),
    ({"OPENBLAS_NUM_THREADS": "4"}, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": None}),
    ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
])
def test_cli_defaults_to_one_blas_thread_unless_set(variables, expected):
    out, _ = run_python("-c", """
import json, os
import casimirchip.cli
print(json.dumps({name: os.environ.get(name)
                  for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}))
""", **variables)
    assert json.loads(out) == expected


def test_every_export_resolves_to_its_modules_object():
    out, _ = run_python("-c", """
import importlib, json
import casimirchip
table = casimirchip._EXPORTS
wrong = [name for name, module in table.items()
         if getattr(casimirchip, name)
         is not getattr(importlib.import_module(f"casimirchip.{module}"), name)]
uncached = [name for name in table if name not in vars(casimirchip)]
star = {}
exec("from casimirchip import *", star)
try:
    casimirchip.no_such_name
except AttributeError:
    missing_raises = True
else:
    missing_raises = False
print(json.dumps({
    "count": len(table),
    "wrong": wrong,
    "uncached": uncached,
    "all": casimirchip.__all__ == list(table),
    "star": sorted(set(star) - {"__builtins__"}) == sorted(table),
    "dir": set(table) <= set(dir(casimirchip)),
    "missing_raises": missing_raises,
}))
""")
    report = json.loads(out)
    assert report.pop("count") > 40
    assert report == {"wrong": [], "uncached": [], "all": True, "star": True, "dir": True,
                      "missing_raises": True}


def test_dir_lists_every_export():
    # In this process, so the package's __dir__ runs under the line tracer.
    assert set(casimirchip.__all__) <= set(dir(casimirchip))


@pytest.mark.parametrize("argv", [
    ["transduce", "--config", EXAMPLE, "--pressure", "500Pa"],
    ["sweep", "--config", EXAMPLE],
])
def test_cli_warnings_are_message_lines(argv):
    # Both commands clamp PDH voltages to the linear window and warn.
    out, err = run_python("-m", "casimirchip.cli", *argv)
    lines = err.splitlines()
    assert lines
    assert all(line.startswith("warning: ") and "clamping" in line for line in lines)
    assert ".py" not in err
    quiet_out, quiet_err = run_python("-W", "ignore", "-m", "casimirchip.cli", *argv)
    assert quiet_err == ""
    assert out == quiet_out


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml allows Python 3.10, which CI runs but a 3.11 host does
    # not: this catches newer syntax (such as except*) in the package, its
    # tests and tools, not calls into newer library APIs.
    root = Path(__file__).resolve().parents[1]
    paths = sorted(p for top in ("src", "tests", "tools") for p in (root / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
