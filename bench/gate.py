"""Correctness gate: every result is checked against the stored references.

A result fails if its command failed, if a value is NaN or missing, or if

    |p - p_ref| > REL_TOL_SERIES * |p_ref| + truncation + quadrature

where p_ref is the 1e-11 reference and truncation + quadrature is the
result's own error bar.  The bare bar is not the test: the engine's stopping
rule leaves |p - p_ref| within a hair of it, so that test would flip on
rounding.  The sweep and scan CSVs carry no error bars, so for them the gate
uses the bar the reference code reported for the same input at default
numerics (stored beside each reference).  Cavity shifts and PDH voltages
downstream of a pressure are checked against the same tolerance carried
through the linear chain.

Each check returns ``(results, problems)``: one ``(ok, rel_err)`` per
user-visible result and a list of messages for everything that failed.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import REL_TOL_SERIES


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _close(value, expected, tol):
    return math.isfinite(value) and abs(value - expected) <= tol * (1 + 1e-9)


def _voltage(shift, chain):
    window = chain["linear_window_hz"]
    if window is not None and abs(shift) > window:
        shift = math.copysign(window, shift)
    return chain["pdh_slope_v_per_hz"] * shift


def _chain_checks(p_ref, tol, shift, voltage, chain):
    """Shift and voltage of a pressure p_ref: -gain * p_ref, then the PDH slope."""
    gain = chain["gain_hz_per_pa"]
    expected = -gain * p_ref
    problems = []
    if not _close(shift, expected, gain * tol):
        problems.append(f"freq_shift_Hz {shift!r} != {expected!r} +- {gain * tol:.3g}")
    v_tol = chain["pdh_slope_v_per_hz"] * gain * tol
    if not _close(voltage, _voltage(expected, chain), v_tol):
        problems.append(f"voltage {voltage!r} != {_voltage(expected, chain)!r}")
    return problems


def _command_problem(cmd):
    if cmd["code"] != 0:
        return f"exit code {cmd['code']}: {cmd['err'].strip()[-300:]}"
    return None


def check_sweep(command, refs, inst):
    rows = refs["instances"][inst["key"]]["rows"]
    limit = inst["spec"]["gap_max_nm"] * 1e-9 * (1 + 1e-12)
    expected = [r for r in rows if r[0] <= limit]
    problem = _command_problem(command)
    if problem:
        return [(False, math.nan)] * len(expected), [f"sweep {inst['key']}: {problem}"]
    got = list(csv.DictReader(io.StringIO(command["out"])))
    results, problems = [], []
    if len(got) != len(expected):
        problems.append(f"sweep {inst['key']}: {len(got)} rows, expected {len(expected)}")
    for i, (gap, temp, pair, p_ref, bar) in enumerate(expected):
        row = got[i] if i < len(got) else {}
        where = f"sweep {inst['key']} row {i} ({gap!r} m, {pair})"
        p = _float(row.get("pressure_Pa"))
        tol = REL_TOL_SERIES * abs(p_ref) + bar
        bad = []
        if (_float(row.get("gap_m")), _float(row.get("temperature_K")), row.get("pair")) \
                != (gap, temp, pair):
            bad.append(f"grid point {row.get('gap_m')}, {row.get('temperature_K')}, "
                       f"{row.get('pair')}")
        if row.get("error"):
            bad.append(f"error column {row['error']!r}")
        if not _close(p, p_ref, tol):
            bad.append(f"pressure {p!r} vs reference {p_ref!r} +- {tol:.3g}")
        bad += _chain_checks(p_ref, tol, _float(row.get("freq_shift_Hz")),
                             _float(row.get("voltage_V")), refs["chain"])
        problems += [f"{where}: {b}" for b in bad]
        results.append((not bad, abs(p - p_ref) / abs(p_ref)))
    return results, problems


def check_scan(command, refs, inst):
    ref = refs["instances"][inst["key"]]
    grid, operands = ref["grid"], ref["operands"]
    problem = _command_problem(command)
    if problem:
        return [(False, math.nan)] * len(grid), [f"scan {inst['key']}: {problem}"]
    lines = [line for line in command["out"].splitlines() if not line.startswith("#")]
    got = list(csv.DictReader(lines))
    gain = refs["chain"]["gain_hz_per_pa"]
    # Differential dP = p(pair) - p(reference pair); each operand brings its
    # own tolerance.
    dp = [o[0] - o[2] for o in operands]
    dp_tol = [REL_TOL_SERIES * (abs(o[0]) + abs(o[2])) + o[1] + o[3] for o in operands]
    base = grid.index(max(grid))
    results, problems = [], []
    if len(got) != len(grid):
        problems.append(f"scan {inst['key']}: {len(got)} points, expected {len(grid)}")
    for i, temp in enumerate(grid):
        row = got[i] if i < len(got) else {}
        where = f"scan {inst['key']} point {i} ({temp!r} K)"
        shift = _float(row.get("freq_shift_Hz"))
        expected = -gain * (dp[i] - dp[base])
        tol = gain * (dp_tol[i] + dp_tol[base])
        bad = []
        if _float(row.get("temperature_K")) != temp:
            bad.append(f"temperature {row.get('temperature_K')}")
        if not _close(shift, expected, tol):
            bad.append(f"shift {shift!r} vs reference {expected!r} +- {tol:.3g}")
        problems += [f"{where}: {b}" for b in bad]
        rel = abs(shift - expected) / abs(expected) if expected else None
        results.append((not bad, rel))
    return results, problems


def check_query(command, refs, queries):
    """One point query: the pressure result, then the transduce chain."""
    q = queries[command["index"]]
    where = f"query {command['index']} ({q['gap']}, {q['temp']}, {q['a']}/{q['b']})"
    problem = _command_problem(command)
    if problem:
        return (False, math.nan), [f"{where}: pressure {problem}"]
    out = json.loads(command["out"])
    p = _float(out.get("pressure_Pa"))
    p_ref = q["p_ref"]
    tol = (REL_TOL_SERIES * abs(p_ref) + _float(out.get("truncation_estimate_Pa"))
           + _float(out.get("quadrature_estimate_Pa")))
    bad = []
    if not _close(p, p_ref, tol):
        bad.append(f"pressure {p!r} vs reference {p_ref!r} +- {tol:.3g}")
    if q["closed_form"] is not None and not _close(p, q["closed_form"],
                                                   1e-6 * q["closed_form"]):
        bad.append(f"pressure {p!r} vs closed form {q['closed_form']!r} at 1e-6")
    if command.get("code2") != 0:
        bad.append(f"transduce exit code {command.get('code2')}: "
                   f"{command.get('err2', '').strip()[-300:]}")
    else:
        chain_out = json.loads(command["out2"])
        if chain_out.get("pressure_Pa") != p:
            bad.append(f"transduce pressure {chain_out.get('pressure_Pa')!r} != {p!r}")
        bad += _chain_checks(p_ref, tol, _float(chain_out.get("freq_shift_Hz")),
                             _float(chain_out.get("pdh_voltage_V")), refs["chain"])
    return (not bad, abs(p - p_ref) / abs(p_ref)), [f"{where}: {b}" for b in bad]


def check_pass(workload, result, refs, inst):
    """(results, problems) for one pass of a workload."""
    if workload == "sweep":
        return check_sweep(result["commands"][0], refs, inst)
    if workload == "cold_scan":
        return check_scan(result["commands"][0], refs, inst)
    results, problems = [], []
    if len(result["commands"]) != len(inst["queries"]):
        problems.append(f"queries {inst['key']}: {len(result['commands'])} answered, "
                        f"expected {len(inst['queries'])}")
    for command in result["commands"]:
        ok, found = check_query(command, refs, refs["instances"][inst["key"]])
        results.append(ok)
        problems += found
    return results, problems
