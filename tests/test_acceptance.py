"""Acceptance gate: one numbered check per criterion of the project
checklist, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).

Criterion 2 (classical limit) ships in two parts.  The checklist's target
constant zeta(3) k_B T / (8 pi a^3) is the TM-only classical limit, i.e.
the Drude value; for ideal mirrors, whose TE zero mode reflects fully, the
Matsubara sum provably lands at twice that (the well-known Drude-vs-ideal
factor of two at high temperature).  An engine that satisfies criterion 1
and returns (-1, 1) ideal-metal reflection coefficients cannot hit the
TM-only constant, so that check is kept as a strict xfail guarding the
distinction, and the criterion's substance is verified instead: the sum
reproduces the analytically known classical limit of each model at the
same 1% tolerance.
"""

import math
import time

import numpy as np
import pytest
import scipy.constants as sc

from casimirchip import (
    LifshitzNumerics,
    StepPressureSignal,
    SweepSpec,
    coherence_length,
    detectability_report,
    example_config_path,
    extract_tc,
    fundamental_frequency,
    gap_change_to_frequency_shift,
    ingest_rt_table,
    load_device_config,
    mean_free_path,
    midpoint_deflection,
    min_detectable_pressure,
    pdh_voltage,
    penetration_depth,
    plate_pressure,
    run_gap_sweep,
    simulate_temperature_scan,
)
from casimirchip.materials import Drude, IdealMetal, Plasma, SuperconductorTwoFluid
from casimirchip.serialize import sweep_csv
from casimirchip.cli import main as cli_main

ZETA3 = 1.2020569031595943
OMEGA_P = 1.83e16
GAMMA = 7.6e13

CFG = load_device_config(str(example_config_path()))
IDEAL = IdealMetal()
PLASMA = Plasma(OMEGA_P)
DRUDE = Drude(OMEGA_P, GAMMA)
TWOFLUID = SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)


def report(number, ok, text):
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_1_ideal_plate_limit():
    start = time.perf_counter()
    res = plate_pressure(100e-9, 0.0, IDEAL, IDEAL)
    elapsed = time.perf_counter() - start
    exact = math.pi**2 * sc.hbar * sc.c / (240 * (100e-9) ** 4)
    ok = (abs(res.pressure - exact) <= 5e-3 * exact
          and round(res.pressure, 2) == 13.00 and elapsed < 1.0)
    assert report(1, ok,
                  f"ideal plates 100 nm, T=0: {res.pressure:.4f} Pa vs closed form "
                  f"{exact:.4f} Pa in {elapsed * 1e3:.0f} ms")


@pytest.mark.xfail(
    strict=True,
    reason="zeta3 kT/(8 pi a^3) is the TM-only (Drude) classical limit; the "
           "ideal-metal sum, with its TE zero mode fully reflecting, equals "
           "twice it -- kept failing on purpose to guard the factor of two",
)
def test_criterion_2_ideal_sum_vs_tm_only_constant():
    a = 100e-9
    temp = 20 * sc.hbar * sc.c / (2 * a * sc.Boltzmann)
    res = plate_pressure(a, temp, IDEAL, IDEAL)
    tm_only = ZETA3 * sc.Boltzmann * temp / (8 * math.pi * a**3)
    ok = abs(res.pressure - tm_only) <= 1e-2 * tm_only
    report(2, ok, f"checklist target: ideal sum {res.pressure:.2f} Pa vs "
                  f"zeta3*kT/(8 pi a^3) = {tm_only:.2f} Pa")
    assert ok


def test_criterion_2_classical_limit_substance():
    a = 100e-9
    temp = 20 * sc.hbar * sc.c / (2 * a * sc.Boltzmann)
    ideal = plate_pressure(a, temp, IDEAL, IDEAL).pressure
    drude = plate_pressure(a, temp, DRUDE, DRUDE).pressure
    ideal_exact = ZETA3 * sc.Boltzmann * temp / (4 * math.pi * a**3)
    drude_exact = ZETA3 * sc.Boltzmann * temp / (8 * math.pi * a**3)
    ok = (abs(ideal - ideal_exact) <= 1e-2 * ideal_exact
          and abs(drude - drude_exact) <= 1e-2 * drude_exact)
    assert report(2, ok,
                  "classical limits at k_B T = 20 hbar c/(2a): ideal "
                  f"{ideal:.2f} vs zeta3*kT/(4 pi a^3) = {ideal_exact:.2f} Pa, "
                  f"Drude {drude:.2f} vs zeta3*kT/(8 pi a^3) = {drude_exact:.2f} Pa")


def test_criterion_3_te_zero_mode_discrimination():
    num = LifshitzNumerics()
    p_plasma = plate_pressure(100e-9, 1.0, PLASMA, PLASMA, num)
    p_drude = plate_pressure(100e-9, 1.0, DRUDE, DRUDE, num)
    strict_ok = p_plasma.pressure > p_drude.pressure

    gaps = (100e-9, 150e-9, 200e-9, 250e-9, 300e-9)
    temps = (0.8, 0.9, 1.0, 2.0, 4.0)
    ordering_ok = True
    for gap in gaps:
        for temp in temps:
            results = [
                plate_pressure(gap, temp, m, m, num)
                for m in (IDEAL, PLASMA, TWOFLUID, DRUDE)
            ]
            values = [r.pressure for r in results]
            slack = sum(r.truncation_estimate + r.quadrature_estimate
                        for r in results) + 1e-9 * values[0]
            ordering_ok &= all(
                values[i] >= values[i + 1] - slack for i in range(3)
            )
    ok = strict_ok and ordering_ok
    assert report(3, ok,
                  f"plasma {p_plasma.pressure:.4f} Pa > Drude "
                  f"{p_drude.pressure:.4f} Pa at (100 nm, 1 K); ordering "
                  "Ideal >= Plasma >= TwoFluid >= Drude on the 5x5 grid")


def test_criterion_4_dirty_limit_film_numbers(capsys):
    xi = coherence_length(1600e-9, 10.8e-9, mode="approx")
    lam = penetration_depth(16e-9, 1600e-9, 10.8e-9, 0.0, 0.9, mode="exact")
    xi_ok = abs(xi - 131e-9) <= 0.01 * 131e-9
    lam_ok = abs(lam - 120e-9) <= 0.01 * 120e-9
    ell_sigma = mean_free_path(4.1e7, 4e-16)

    code = cli_main(["film", "--config", str(example_config_path())])
    out = capsys.readouterr().out
    report_ok = (code == 0
                 and "mean_free_path_from_sigma_nm = 16.4" in out
                 and "quoted_mean_free_path_nm = 10.8" in out
                 and "disagree" in out)
    with capsys.disabled():
        ok = report(4, xi_ok and lam_ok and report_ok,
                    f"xi_approx = {xi * 1e9:.1f} nm (target 131), lambda_exact = "
                    f"{lam * 1e9:.1f} nm (target 120); ell discrepancy "
                    f"{ell_sigma * 1e9:.1f} vs 10.8 nm surfaced by `film`")
    assert ok


def test_criterion_5_readout_chain_numbers():
    shift = gap_change_to_frequency_shift(0.2e-12, CFG.cavity)
    shift_ok = abs(shift - 10e6) <= 1e-4 * 10e6
    ratio = CFG.calib.min_resolvable_shift / (CFG.cavity.kappa / (2 * math.pi))
    ratio_ok = 0.002 <= ratio <= 0.003
    voltage = pdh_voltage(10e6, CFG.calib)
    voltage_ok = abs(voltage - 0.25e-3) <= 1e-6
    ok = shift_ok and ratio_ok and voltage_ok
    assert report(5, ok,
                  f"0.2 pm -> {shift / 1e6:.2f} MHz; min shift = {ratio:.2%} of "
                  f"linewidth (~0.25%); PDH(10 MHz) = {voltage * 1e3:.2f} mV")


def test_criterion_6_pressure_floor():
    floor = min_detectable_pressure(CFG.geometry, CFG.cavity, CFG.calib)
    ok = (3e-3 <= floor.pressure <= 12e-3
          and 100e-15 <= floor.gap_change <= 400e-15)
    assert report(6, ok,
                  f"floor {floor.pressure * 1e3:.2f} mPa (band 3..12, anchor 6); "
                  f"gap change {floor.gap_change * 1e15:.0f} fm (band 100..400)")


def test_criterion_7_gravitational_casimir_scenario():
    theory = StepPressureSignal(0.5, t_c=CFG.film.t_c)
    grid = [0.1, 0.5, 0.85, 0.95, 1.2]
    points = simulate_temperature_scan(CFG.geometry, CFG.cavity, grid, theory)
    shifts = dict(points)
    step = abs(shifts[0.1] - shifts[1.2])
    step_ok = 1.5e9 / 3 <= step <= 1.5e9 * 3
    verdicts = detectability_report([("grav", 0.5)], CFG.geometry, CFG.cavity,
                                    CFG.calib)
    margin = verdicts[0].margin
    margin_ok = 40 <= margin <= 170 and verdicts[0].detectable
    ok = step_ok and margin_ok
    assert report(7, ok,
                  f"0.5 Pa below T_c: scan step {step / 1e9:.2f} GHz "
                  f"(1.5/3 .. 1.5*3); margin {margin:.0f} (band 40..170)")


def test_criterion_8_mechanics():
    f1 = fundamental_frequency(CFG.geometry)
    f1_ok = abs(f1 - 950e3) <= 0.10 * 950e3

    rng = np.random.default_rng(20260810)
    oracle_ok = True
    worst = 0.0
    for _ in range(20):
        length = 10 ** rng.uniform(-4.5, -3.0)
        tension = 10 ** rng.uniform(-5, -3)
        q = 10 ** rng.uniform(-9, -5)
        x1 = rng.uniform(0.0, 0.45) * length
        x2 = rng.uniform(0.55, 1.0) * length
        w_mid = midpoint_deflection(q, (x1, x2), length, tension)
        nodes = 10_000
        h = length / (nodes + 1)
        x = np.linspace(h, length - h, nodes)
        # Cell-averaged load: node sampling would snap the span edges to the
        # grid and lose three orders of accuracy.
        overlap = np.clip(
            (np.minimum(x2, x + h / 2) - np.maximum(x1, x - h / 2)) / h, 0.0, 1.0
        )
        rhs = (q / tension) * overlap * h * h
        main_diag = np.full(nodes, 2.0)
        upper = np.full(nodes - 1, -1.0)
        lower = np.full(nodes - 1, -1.0)
        for i in range(1, nodes):
            m = lower[i - 1] / main_diag[i - 1]
            main_diag[i] -= m * upper[i - 1]
            rhs[i] -= m * rhs[i - 1]
        w = np.zeros(nodes)
        w[-1] = rhs[-1] / main_diag[-1]
        for i in range(nodes - 2, -1, -1):
            w[i] = (rhs[i] + w[i + 1]) / main_diag[i]
        oracle = float(np.interp(0.5 * length, x, w))
        rel = abs(w_mid - oracle) / oracle
        worst = max(worst, rel)
        oracle_ok &= rel < 1e-6
    ok = f1_ok and oracle_ok
    assert report(8, ok,
                  f"f1 = {f1 / 1e3:.0f} kHz (950 +/- 10%); worst deflection "
                  f"error vs finite differences {worst:.1e} over 20 cases")


def test_criterion_9_tc_extraction():
    t = np.linspace(0.7, 1.2, 120)
    logistic = 45.0 / (1.0 + np.exp(-(t - 0.95) / 0.01))
    csv = "temperature_K,resistance_ohm\n" + "".join(
        f"{ti},{ri}\n" for ti, ri in zip(t, logistic)
    )
    single = extract_tc(ingest_rt_table(csv))
    single_ok = abs(single.t_c - 0.95) <= 0.005

    t2 = np.linspace(0.6, 1.6, 160)
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    r2 = 1.0 + 19.0 * sig((t2 - 0.9) / 0.003) + 25.0 * sig((t2 - 1.2) / 0.003)
    csv2 = "temperature_K,resistance_ohm\n" + "".join(
        f"{ti},{ri}\n" for ti, ri in zip(t2, r2)
    )
    two = extract_tc(ingest_rt_table(csv2))
    steps_ok = (len(two.steps) == 2
                and abs(two.steps[0][0] - 1.2) <= 0.02
                and abs(two.steps[1][0] - 0.9) <= 0.02
                and two.multi_step)
    tc_ok = abs(two.t_c - 0.9) <= 0.02

    scaled = extract_tc(ingest_rt_table(
        "temperature_K,resistance_ohm\n" + "".join(
            f"{ti},{3.7 * ri}\n" for ti, ri in zip(t, logistic))
    ))
    rng = np.random.default_rng(5)
    perm = rng.permutation(len(t))
    shuffled = extract_tc(ingest_rt_table(
        "temperature_K,resistance_ohm\n" + "".join(
            f"{t[i]},{logistic[i]}\n" for i in perm)
    ))
    invariance_ok = (abs(scaled.t_c - single.t_c) < 1e-9
                     and abs(shuffled.t_c - single.t_c) < 1e-12)
    ok = single_ok and steps_ok and tc_ok and invariance_ok
    assert report(9, ok,
                  f"logistic T_c = {single.t_c:.3f} K (0.95 +/- 0.005); two-step "
                  f"curve: steps at {two.steps[0][0]:.2f}/{two.steps[1][0]:.2f} K, "
                  f"T_c = {two.t_c:.2f} K with multi-step flag; scaling/order "
                  "invariance holds")


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_criterion_10_sweep_determinism():
    spec = SweepSpec(100e-9, 120e-9, 10e-9, (1.3,), (
        ("al_plasma/al_plasma", PLASMA, PLASMA),
        ("al_drude/al_drude", DRUDE, DRUDE),
    ))
    outputs = {
        workers: sweep_csv(run_gap_sweep(spec, CFG.geometry, CFG.cavity,
                                         CFG.calib, workers=workers))
        for workers in (1, 4)
    }
    ok = outputs[1] == outputs[4] and len(outputs[1].splitlines()) == 7
    assert report(10, ok,
                  "gap-sweep CSV byte-identical for 1 and 4 worker threads")
