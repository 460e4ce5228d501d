"""Print a short hash of each CLI command's output on the example config,
then a sha256 digest over all of them.

Two checkouts whose commands agree byte for byte print the same lines, so a
change can be checked against its parent with

    PYTHONPATH=src python tools/cli_digest.py

run in each checkout on one machine.  The package is imported from
PYTHONPATH, not from this file's checkout.  With

    PYTHONPATH=src python tools/cli_digest.py --against HEAD^

the commands run twice, at once, in two fresh interpreters, as
``engine_digest.py --against`` runs its grid: on the package of a
temporary git worktree of the revision and on that of this file's working
tree.  It prints both digests, how many commands' outputs differ and which
ones, and exits 1 if any differs.

Each command runs through ``casimirchip.cli.main`` in this process, in a
temporary directory that holds a copy of the example config and the R(T)
tables, so no checkout's path reaches the output; its stdout, stderr
(warnings included) and exit code are hashed together.  The commands:
``pressure`` at 0 K, 50 mK and 1.2 K in text and JSON; ``sweep`` at one
and two workers; a ``grav-casimir`` and a material-pair ``scan``;
``transduce`` inside the PDH window, at a clamping pressure, and at zero
pressure in text and JSON, whose shift and voltage are +0; ``detect``;
``validate``; ``film`` from the config's conductivity, ``--sigma`` and
``--r4k``; ``tc`` on a generated single-step and two-step R(T) table, and
on a peaked one whose step ends above 50% of R_normal, which it refuses;
``pressure`` and a ``sweep --spec`` at 1e300 K, where the pressure
overflows and the engine's error is the output; a ``sweep --spec`` cell at
10 nm and T = 0 whose two pairs stop on different frequency rungs (129 and
257 nodes); ``pressure`` at a 1e-80 m gap, where the k-integrals overflow,
and plasma ``pressure`` at 1e-18 m, where the material response has
vanished from eps, each with the engine's error as the output; ``film``
on a copy of the config without ``sigma_4k_per_ohm_m``, which falls back to
its ``r4k_ohm``; ``validate`` on a copy with a negative ``m_eff_pg``; a
material-pair ``scan`` above T_c on a copy with a 1e-10 nm gap, where the
pairs respond alike but the response has vanished from eps; ``detect`` with
a ``--signal`` of its own; ``pressure`` between an inline Drude spec and
the ideal metal, without a config; the same material-pair ``scan`` on
the 1e-10 nm copy below T_c, where the pairs respond differently and the
differential's engine call refuses the gap; ``validate`` with a
negative ``operating_power_nW`` and ``film`` with a negative
``sigma_4k_per_ohm_m``, each a config error; ``validate`` on a copy with a
negative plasma ``omega_p_eV`` and a non-numeric Drude ``gamma_meV``, each
reported once; ``pressure`` with an inline plasma spec whose ``omega_p_eV``
is negative; and ``validate`` on a copy with a negative ``temperatures_K``
and a negative ``[signals]`` pressure.  Every range error names the key and
the value as written.  Then ``validate`` twice and a JSON ``pressure`` on a
copy with ``q_optical = 9e4``, whose cavity warning every command repeats,
in process as from a config it has loaded before.  Then ``validate`` on
the example config and on that copy again, which is built anew after
another text has replaced it as the last config loaded.  Then
``validate`` on a copy of the example config and ``tc`` on the
single-step table, each behind a UTF-8 byte-order mark.  Last,
``validate`` on a copy with ``kappa_GHz = 1e300`` and ``pressure`` with
an inline plasma spec whose ``omega_p_eV`` is 1e300, each finite as
written and refused where it overflows in SI units.  Then ``tc`` in text
and JSON on a generated 45 -> 6 ohm step that never falls below 10% of
R_normal, whose 10-90% width is undefined.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

import engine_digest
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
    # A 45 -> 30 ohm step under a peak above the normal plateau: it never
    # reaches 50% of R_normal, though max R / min R exceeds 2.
    "peaked": _rt_table(lambda t: 30.0 + 15.0 * _sigmoid((t - 0.95) / 0.01)
                        + 60.0 * math.exp(-0.5 * ((t - 0.97) / 0.005) ** 2), 0.7, 1.2, 120),
}
# Its 10-90% width is undefined: printed nan in text and null in JSON.
SHALLOW_STEP = _rt_table(lambda t: 6.0 + 39.0 * _sigmoid((t - 0.95) / 0.01), 0.7, 1.2, 120)

# A one-cell sweep past the float range: each pair's row carries the error.
HOT_SPEC = """[sweep]
gap_min_nm = 100
gap_max_nm = 100
gap_step_nm = 10
temperatures_K = 1e300
pairs = ideal/ideal, al_drude/al_drude
"""

# One cell whose ideal pair stops before the Drude pair, which climbs alone.
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
    for fmt in ("text", "json"):
        yield ["transduce", *config, "--pressure", "0", "--format", fmt]
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
    yield ["detect", *config, "--signal", "grav=0.5Pa"]
    yield ["pressure", "--model-a", "drude:omega_p_eV=12,gamma_meV=50", "--model-b", "ideal",
           "--gap", "100nm", "--temp", "1K"]
    yield ["scan", "--config", "tiny_gap.cfg", "--tmin", "100mK", "--tmax", "500mK",
           "--points", "3", "--theory", "al_sc/al_sc-vs-al_drude/al_drude"]
    yield ["validate", "--config", "negative_power.cfg"]
    yield ["film", "--config", "negative_sigma.cfg"]
    yield ["validate", "--config", "bad_materials.cfg"]
    yield ["pressure", "--model-a", "plasma:omega_p_eV=-12", "--model-b", "ideal",
           "--gap", "100nm", "--temp", "1K"]
    yield ["validate", "--config", "negative_sweep_signal.cfg"]
    for _ in range(2):
        yield ["validate", "--config", "q_mismatch.cfg"]
    yield ["pressure", "--gap", "100nm", "--temp", "1.2K", "--model-a", "al_sc",
           "--model-b", "al_drude", "--config", "q_mismatch.cfg", "--format", "json"]
    for name in (CONFIG, "q_mismatch.cfg"):
        yield ["validate", "--config", name]
    yield ["validate", "--config", "bom.cfg"]
    yield ["tc", "--input", "bom_single_step.csv"]
    yield ["validate", "--config", "overflow.cfg"]
    yield ["pressure", "--model-a", "plasma:omega_p_eV=1e300", "--model-b", "ideal",
           "--gap", "100nm", "--temp", "1K"]
    for fmt in ("text", "json"):
        yield ["tc", "--input", "shallow_step.csv", "--format", fmt]


def run(argv):
    """(stdout, stderr, exit code) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def digest():
    """Prints each command's short hash, then the sha256 over all of them."""
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
        files["negative_power.cfg"] = example.replace("operating_power_nW = 200",
                                                      "operating_power_nW = -200")
        files["negative_sigma.cfg"] = example.replace("sigma_4k_per_ohm_m = 4.1e7",
                                                      "sigma_4k_per_ohm_m = -4.1e7")
        files["bad_materials.cfg"] = (
            example.replace("omega_p_eV = 12.0\n\n[material.al_drude]",
                            "omega_p_eV = -12\n\n[material.al_drude]")
            .replace("gamma_meV = 50\n\n[material.al_sc]", "gamma_meV = abc\n\n[material.al_sc]"))
        files["negative_sweep_signal.cfg"] = (
            example.replace("temperatures_K = 1.3", "temperatures_K = -1.3")
            .replace("gravitational_casimir_Pa = 0.5", "gravitational_casimir_Pa = -0.5"))
        files["q_mismatch.cfg"] = example.replace("q_optical = 4.5e4", "q_optical = 9e4")
        # what Notepad and Excel's "CSV UTF-8" write first
        files["bom.cfg"] = "\ufeff" + example
        files["bom_single_step.csv"] = "\ufeff" + RT_TABLES["single_step"]
        files["overflow.cfg"] = example.replace("kappa_GHz = 4.2", "kappa_GHz = 1e300")
        files["shallow_step.csv"] = SHALLOW_STEP
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


def against(rev):
    """Runs every command at rev and in the working tree; 1 if any output differs."""
    child = "import cli_digest, engine_digest; engine_digest.check_package(); cli_digest.digest()"
    old, new = (out.splitlines() for out in engine_digest.run_against(rev, child))
    lines = [f"commands {len(old) - 1} at the revision, {len(new) - 1} in the working tree",
             f"{old[-1]} at the revision", f"{new[-1]} in the working tree"]
    # each line is "<hash>  <argv>", the same argv on both sides
    differ = [b.split("  ", 1)[1] for a, b in zip(old[:-1], new[:-1]) if a != b]
    lines.append(f"differ {len(differ)}")
    lines += [f"  {argv}" for argv in differ]
    print("\n".join(lines))
    return int(bool(differ))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare each command's output at "
                        "git revision REV with the working tree's; exit 1 if any differs")
    args = parser.parse_args()
    if args.against:
        sys.exit(against(args.against))
    digest()


if __name__ == "__main__":
    main()
