import csv
import dataclasses
import io
import math
import warnings

import pytest

from casimirchip import (
    CavityParams,
    DeviceGeometry,
    DomainError,
    Drude,
    IdealMetal,
    LifshitzNumerics,
    MaterialPairDifferential,
    Plasma,
    ReadoutCalibration,
    StepPressureSignal,
    SuperconductorTwoFluid,
    SweepSpec,
    detectability_report,
    example_config_path,
    load_device_config,
    min_detectable_pressure,
    plate_pressure,
    plate_pressures,
    run_gap_sweep,
    simulate_temperature_scan,
)
from casimirchip import lifshitz
from casimirchip.designer import DetectabilityVerdict, SweepRow
from casimirchip.serialize import SWEEP_CSV_HEADER, VERDICT_CSV_HEADER, sweep_csv, verdicts_csv

TWO_PI = 2 * math.pi
OMEGA_P = 1.83e16
GAMMA = 7.6e13

GEOMETRY = DeviceGeometry(
    string_length=384e-6, effective_length=340e-6, width=926e-9,
    thickness=300e-9, metal_eff_thickness=18e-9, metal_segment_length=220e-6,
    plate_height=350e-9, gap=100e-9,
    film_stress=1.3e9, density_sin=3100.0, density_al=2700.0,
)
CAVITY = CavityParams(1586.3e-9, TWO_PI * 4.2e9, TWO_PI * 0.5e9, 4.5e4,
                      TWO_PI * 50e18)
CALIB = ReadoutCalibration(2.5e-11, 10e6, 30e6, 4.2e9 / 4)
IDEAL = IdealMetal()
DRUDE = Drude(OMEGA_P, GAMMA)
PLASMA = Plasma(OMEGA_P)
TWOFLUID = SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)


def test_default_grid_has_21_gaps():
    spec = SweepSpec(100e-9, 300e-9, 10e-9, (1.3,), (("i/i", IDEAL, IDEAL),))
    assert len(spec.gaps()) == 21


def test_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec(300e-9, 100e-9, 10e-9, (1.3,), ())
    with pytest.raises(DomainError):
        SweepSpec(100e-9, 300e-9, 0.0, (1.3,), ())


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_single_cell_sweep_reproduces_closed_form():
    spec = SweepSpec(100e-9, 100e-9, 10e-9, (0.0,), (("ideal/ideal", IDEAL, IDEAL),))
    rows = run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB)
    assert len(rows) == 1
    assert rows[0].pressure == pytest.approx(13.00, abs=0.01)
    assert rows[0].error == ""
    assert rows[0].detectable and rows[0].margin > 1


def test_empty_temperature_list_gives_empty_table():
    spec = SweepSpec(100e-9, 300e-9, 10e-9, (), (("i/i", IDEAL, IDEAL),))
    assert run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB) == []


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_sweep_row_error_column_keeps_sweep_alive(monkeypatch):
    # Both engine entry points of the sweep fail at 1.3 K: the cell's
    # batch and the one-pair calls it falls back to.
    def failing_at_1p3_k(evaluate):
        def call(gap, temperature, *args):
            if temperature == 1.3:
                raise DomainError("no pressure at 1.3 K")
            return evaluate(gap, temperature, *args)
        return call

    monkeypatch.setattr("casimirchip.designer.plate_pressure", failing_at_1p3_k(plate_pressure))
    monkeypatch.setattr("casimirchip.designer.plate_pressures",
                        failing_at_1p3_k(plate_pressures))
    spec = SweepSpec(100e-9, 110e-9, 10e-9, (1.3, 0.0),
                     (("drude/drude", DRUDE, DRUDE),))
    rows = run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB)
    assert len(rows) == 4
    failed = [r for r in rows if r.error]
    passed = [r for r in rows if not r.error]
    assert len(failed) == 2 and all(math.isnan(r.pressure) for r in failed)
    assert all(r.error == "no pressure at 1.3 K" for r in failed)
    assert len(passed) == 2 and all(r.pressure > 0 for r in passed)


def test_sweep_past_the_float_range_writes_error_rows():
    # At 1e300 K the Matsubara frequencies overflow: each pair's row gets
    # the engine's DomainError, and the sweep goes on.
    spec = SweepSpec(100e-9, 100e-9, 10e-9, (1e300,),
                     (("i/i", IDEAL, IDEAL), ("d/d", DRUDE, DRUDE)))
    rows = run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB)
    assert [row.pair for row in rows] == ["i/i", "d/d"]
    for row in rows:
        assert "overflow" in row.error and "1e+300 K" in row.error
        assert math.isnan(row.pressure) and not row.detectable


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_sweep_error_marks_only_the_failing_pair_of_a_cell(monkeypatch):
    # One pair of a two-pair cell fails: the cell's batch raises, and the
    # pairs evaluated one at a time give the other row its own pressure.
    def pressure(gap, temperature, mat_a, mat_b, *args):
        if mat_a is PLASMA:
            raise DomainError("no plasma pressure")
        return plate_pressure(gap, temperature, mat_a, mat_b, *args)

    def pressures(gap, temperature, pairs, *args):
        if any(mat_a is PLASMA for mat_a, _ in pairs):
            raise DomainError("no plasma pressure")
        return plate_pressures(gap, temperature, pairs, *args)

    monkeypatch.setattr("casimirchip.designer.plate_pressure", pressure)
    monkeypatch.setattr("casimirchip.designer.plate_pressures", pressures)
    spec = SweepSpec(100e-9, 100e-9, 10e-9, (1.3,),
                     (("p/p", PLASMA, PLASMA), ("d/d", DRUDE, DRUDE)))
    failed, passed = run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB)
    assert (failed.pair, failed.error) == ("p/p", "no plasma pressure")
    assert math.isnan(failed.pressure) and not failed.detectable
    assert (passed.pair, passed.error) == ("d/d", "")
    assert passed.pressure == plate_pressure(100e-9, 1.3, DRUDE, DRUDE).pressure


@pytest.mark.parametrize("workers", [1, 4])
def test_sweep_pressures_equal_solo_calls_where_pairs_stop_apart(workers):
    # At 1 um and 10 K with both tolerances at 1e-11 the ideal pair's
    # Matsubara sum stops at N = 128 and the Drude pairs' double on: each
    # row of the cell's batch is bit for bit its pair's own call.
    num = LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11)
    pairs = (("i/i", IDEAL, IDEAL), ("d/d", DRUDE, DRUDE), ("p/d", PLASMA, DRUDE))
    spec = SweepSpec(1e-6, 1e-6, 10e-9, (10.0,), pairs)
    rows = run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB, num, workers=workers)
    assert [row.pair for row in rows] == ["i/i", "d/d", "p/d"]
    assert [repr(row.pressure) for row in rows] == [
        repr(plate_pressure(1e-6, 10.0, a, b, num).pressure) for _, a, b in pairs]


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_sweep_evaluates_each_cell_as_one_batch(monkeypatch):
    # Counts, not timings: 3 gaps x 1 T make 3 cells, and each cell
    # evaluates the one grid of a call (explicit terms, tail rule and
    # truncation block together) once for both pairs.
    inner, calls = lifshitz._k_integrand, []

    def k_integrand(pairs, *args):
        calls.append(len(pairs))
        return inner(pairs, *args)

    monkeypatch.setattr(lifshitz, "_k_integrand", k_integrand)
    spec = SweepSpec(100e-9, 120e-9, 10e-9, (1.3,),
                     (("p/p", PLASMA, PLASMA), ("d/d", DRUDE, DRUDE)))
    assert len(run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB, workers=2)) == 6
    assert calls == [2] * 3


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_sweep_pressure_monotone_in_gap():
    spec = SweepSpec(100e-9, 200e-9, 50e-9, (1.3,), (("d/d", DRUDE, DRUDE),))
    rows = run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB)
    pressures = [r.pressure for r in rows]
    assert pressures == sorted(pressures, reverse=True)


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_sweep_verdict_consistency():
    spec = SweepSpec(100e-9, 200e-9, 50e-9, (1.3,), (("d/d", DRUDE, DRUDE),))
    for row in run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB):
        assert row.detectable == (row.margin >= 1.0)


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_sweep_csv_reingests_losslessly():
    spec = SweepSpec(100e-9, 110e-9, 10e-9, (1.3,), (("d/d", DRUDE, DRUDE),))
    rows = run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB)
    records = list(csv.DictReader(io.StringIO(sweep_csv(rows))))
    assert len(records) == len(rows)
    for row, record in zip(rows, records):
        assert float(record["gap_m"]) == row.gap
        assert float(record["pressure_Pa"]) == row.pressure
        assert float(record["freq_shift_Hz"]) == row.freq_shift
        assert float(record["margin"]) == row.margin
        assert (record["detectable"] == "true") == row.detectable


def test_csv_headers_have_one_column_per_record_field():
    assert len(SWEEP_CSV_HEADER) == len(dataclasses.fields(SweepRow))
    assert len(VERDICT_CSV_HEADER) == len(dataclasses.fields(DetectabilityVerdict))


def test_verdicts_csv_reingests_losslessly():
    verdicts = detectability_report([("grav", 0.5), ("faint", 1e-3)], GEOMETRY, CAVITY, CALIB)
    records = list(csv.DictReader(io.StringIO(verdicts_csv(verdicts))))
    assert len(records) == len(verdicts)
    for verdict, record in zip(verdicts, records):
        assert record["name"] == verdict.name
        assert float(record["signal_Pa"]) == verdict.signal
        assert float(record["floor_Pa"]) == verdict.floor
        assert float(record["freq_shift_Hz"]) == verdict.freq_shift
        assert float(record["margin"]) == verdict.margin
        assert (record["detectable"] == "true") == verdict.detectable


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_sweep_byte_identical_across_worker_counts():
    spec = SweepSpec(100e-9, 120e-9, 10e-9, (1.3,),
                     (("d/d", DRUDE, DRUDE), ("p/p", PLASMA, PLASMA)))
    serial = sweep_csv(run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB, workers=1))
    threaded = sweep_csv(run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB, workers=4))
    assert serial == threaded
    # The clamp warnings of the bundled 21-cell sweep come out in row order
    # too, however the pool threads interleave.
    cfg = load_device_config(example_config_path())
    messages = []
    for workers in (1, 4) * 3:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_gap_sweep(cfg.sweep, cfg.geometry, cfg.cavity, cfg.calib, workers=workers)
        messages.append([str(w.message) for w in caught])
    assert messages[0] and all(m == messages[0] for m in messages)


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_rejects_nonpositive_workers(workers):
    spec = SweepSpec(100e-9, 100e-9, 10e-9, (1.3,), (("d/d", DRUDE, DRUDE),))
    with pytest.raises(DomainError, match="workers must be finite and > 0"):
        run_gap_sweep(spec, GEOMETRY, CAVITY, CALIB, workers=workers)


def test_scan_identical_theory_is_identically_zero():
    theory = MaterialPairDifferential((DRUDE, DRUDE), (DRUDE, DRUDE))
    grid = [0.5, 0.8, 1.1]
    points = simulate_temperature_scan(GEOMETRY, CAVITY, grid, theory)
    assert [t for t, _ in points] == grid
    assert all(shift == 0.0 for _, shift in points)


def test_scan_step_signal_magnitude():
    theory = StepPressureSignal(0.5, t_c=0.9)
    grid = [0.5, 0.8, 1.0, 1.2]
    points = simulate_temperature_scan(GEOMETRY, CAVITY, grid, theory)
    shifts = dict(points)
    assert shifts[1.2] == 0.0 and shifts[1.0] == 0.0
    # Cold side: a single step whose size lands within a factor 3 of 1.5 GHz.
    assert 0.5e9 <= abs(shifts[0.5]) <= 4.5e9
    assert shifts[0.5] == shifts[0.8]
    # Extra attraction below t_c closes the gap and lowers the resonance.
    assert shifts[0.5] < 0


def test_scan_requires_grid_spanning_tc():
    theory = StepPressureSignal(0.5, t_c=0.9)
    with pytest.raises(DomainError):
        simulate_temperature_scan(GEOMETRY, CAVITY, [1.0, 1.2], theory)


def test_scan_two_fluid_vs_drude_trace():
    theory = MaterialPairDifferential((TWOFLUID, TWOFLUID), (DRUDE, DRUDE))
    num = LifshitzNumerics(rel_tol_series=1e-6)
    grid = [0.55, 0.88, 0.9, 1.05]
    points = simulate_temperature_scan(GEOMETRY, CAVITY, grid, theory, num)
    shifts = dict(points)
    # Continuous at t_c (zero there), growing magnitude on cooling; the
    # superconducting side is more attractive, so the trace goes negative.
    assert abs(shifts[0.9]) < 1e3
    assert abs(shifts[0.88]) > abs(shifts[0.9])
    assert abs(shifts[0.55]) > abs(shifts[0.88])
    assert shifts[0.55] < 0


def test_detectability_margins():
    floor = min_detectable_pressure(GEOMETRY, CAVITY, CALIB).pressure
    verdicts = detectability_report(
        [("grav", 0.5), ("boundary", floor), ("faint", 1e-3)],
        GEOMETRY, CAVITY, CALIB,
    )
    by_name = {v.name: v for v in verdicts}
    assert by_name["grav"].detectable
    assert 40 <= by_name["grav"].margin <= 170
    assert by_name["boundary"].detectable
    assert by_name["boundary"].margin == pytest.approx(1.0)
    assert not by_name["faint"].detectable
    assert by_name["faint"].margin < 1
    for v in verdicts:
        assert v.detectable == (v.margin >= 1.0)
        assert v.floor == pytest.approx(floor)


def test_detectability_rejects_negative_signal():
    with pytest.raises(DomainError):
        detectability_report([("bad", -1.0)], GEOMETRY, CAVITY, CALIB)
