import math

import pytest

from casimirchip import (
    CavityParams,
    DeviceGeometry,
    DomainError,
    ReadoutCalibration,
    gap_change_to_frequency_shift,
    min_detectable_pressure,
    pdh_voltage,
    pressure_to_gap_change,
)

TWO_PI = 2 * math.pi


def reference_cavity():
    return CavityParams(
        lambda_res=1586.3e-9, kappa=TWO_PI * 4.2e9, kappa_e=TWO_PI * 0.5e9,
        q_optical=4.5e4, g_om=TWO_PI * 50e18,
    )


def reference_calib():
    return ReadoutCalibration(
        pdh_slope=2.5e-11, min_resolvable_shift=10e6, drift_bound=30e6,
        linear_window=4.2e9 / 4,
    )


def reference_geometry():
    return DeviceGeometry(
        string_length=384e-6, effective_length=340e-6, width=926e-9,
        thickness=300e-9, metal_eff_thickness=18e-9, metal_segment_length=220e-6,
        plate_height=350e-9, gap=100e-9,
        film_stress=1.3e9, density_sin=3100.0, density_al=2700.0,
    )


def test_transduction_anchor_points():
    cavity = reference_cavity()
    assert gap_change_to_frequency_shift(30e-12, cavity) == pytest.approx(1.5e9)
    assert gap_change_to_frequency_shift(0.2e-12, cavity) == pytest.approx(10e6)
    assert gap_change_to_frequency_shift(0.0, cavity) == 0.0
    # Sign convention: closing the gap lowers the resonance.
    assert gap_change_to_frequency_shift(-1e-12, cavity) < 0


def test_cavity_params_validation_and_q_warning():
    with pytest.raises(DomainError):
        CavityParams(1586e-9, TWO_PI * 4.2e9, TWO_PI * 5e9, 4.5e4, TWO_PI * 50e18)
    with pytest.warns(UserWarning, match="q_optical"):
        CavityParams(1586e-9, TWO_PI * 4.2e9, TWO_PI * 0.5e9, 1e5, TWO_PI * 50e18)


def test_pdh_voltage_slope():
    calib = reference_calib()
    assert pdh_voltage(10e6, calib) == pytest.approx(0.25e-3)
    assert pdh_voltage(500e6, calib) == pytest.approx(12.5e-3)
    assert pdh_voltage(0.0, calib) == 0.0


def test_pdh_voltage_clamps_outside_linear_window():
    calib = reference_calib()
    with pytest.warns(UserWarning, match="linear PDH window"):
        clamped = pdh_voltage(5e9, calib)
    assert clamped == pytest.approx(calib.pdh_slope * calib.linear_window)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chain_rejects_non_finite_input(value):
    with pytest.raises(DomainError, match="delta_gap must be finite"):
        gap_change_to_frequency_shift(value, reference_cavity())
    with pytest.raises(DomainError, match="freq_shift must be finite"):
        pdh_voltage(value, reference_calib())


def test_pressure_floor_chain():
    floor = min_detectable_pressure(reference_geometry(), reference_cavity(), reference_calib())
    assert 3e-3 <= floor.pressure <= 12e-3
    assert 100e-15 <= floor.gap_change <= 400e-15


def test_forward_chain_inverts_floor_to_identity():
    geometry, cavity, calib = reference_geometry(), reference_cavity(), reference_calib()
    floor = min_detectable_pressure(geometry, cavity, calib)
    gap_change = pressure_to_gap_change(floor.pressure, geometry)
    assert gap_change == pytest.approx(floor.gap_change, rel=1e-12)
    shift = gap_change_to_frequency_shift(gap_change, cavity)
    assert shift == pytest.approx(calib.min_resolvable_shift, rel=1e-12)


def test_floor_linear_in_min_shift():
    geometry, cavity = reference_geometry(), reference_cavity()
    base = reference_calib()
    double = ReadoutCalibration(base.pdh_slope, 2 * base.min_resolvable_shift,
                                base.drift_bound, base.linear_window)
    assert min_detectable_pressure(geometry, cavity, double).pressure == pytest.approx(
        2 * min_detectable_pressure(geometry, cavity, base).pressure, rel=1e-12
    )
