import math

import numpy as np
import pytest

from casimirchip import (
    CavityParams,
    DeviceGeometry,
    DomainError,
    ReadoutCalibration,
    cavity_response,
    gap_change_to_frequency_shift,
    intracavity_photons,
    min_detectable_pressure,
    optical_spring_shift,
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
        plate_height=350e-9, gap=100e-9, parallelism_jitter=10e-9,
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


def test_cavity_response_limits():
    cavity = reference_cavity()
    amp_far, phase_far = cavity_response(1e15, cavity)
    assert amp_far == pytest.approx(1.0, abs=1e-6)
    assert phase_far == pytest.approx(0.0, abs=1e-4)
    amp_res, _ = cavity_response(0.0, cavity)
    assert amp_res == pytest.approx(abs(1 - 2 * 0.5 / 4.2), rel=1e-9)


def test_cavity_response_parity_and_bound():
    cavity = reference_cavity()
    detuning = np.linspace(-20e9, 20e9, 401)
    amp, phase = cavity_response(detuning, cavity)
    assert np.all(amp <= 1.0 + 1e-12)
    assert np.allclose(amp, amp[::-1], rtol=1e-12)
    assert np.allclose(phase, -phase[::-1], atol=1e-12)
    # The dip is the global minimum at zero detuning.
    assert np.argmin(amp) == 200


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


def test_optical_spring_antisymmetry_and_extremum():
    cavity = reference_cavity()
    omega_m = TWO_PI * 952e3
    kwargs = dict(intracavity_photons=1e3, cavity=cavity, omega_m=omega_m,
                  m_eff=418e-15)
    assert optical_spring_shift(0.0, **kwargs) == 0.0
    for det in (0.5e9, 2.1e9, 7e9):
        assert optical_spring_shift(-det, **kwargs) == pytest.approx(
            -optical_spring_shift(det, **kwargs)
        )
    detuning = np.linspace(0.1e9, 15e9, 600)
    shifts = optical_spring_shift(detuning, **kwargs)
    extremum = detuning[int(np.argmax(shifts))]
    assert extremum == pytest.approx(cavity.kappa / 2 / TWO_PI, rel=0.02)


def test_optical_spring_rejects_bad_mechanics():
    cavity = reference_cavity()
    with pytest.raises(DomainError):
        optical_spring_shift(1e9, 10, cavity, omega_m=-1.0, m_eff=418e-15)
    with pytest.raises(DomainError):
        optical_spring_shift(1e9, 10, cavity, omega_m=TWO_PI * 952e3, m_eff=0.0)


def test_intracavity_photons_scale():
    cavity = reference_cavity()
    n_res = intracavity_photons(200e-9, 0.0, cavity)
    assert n_res > 0
    assert intracavity_photons(400e-9, 0.0, cavity) == pytest.approx(2 * n_res)
    assert intracavity_photons(200e-9, 50e9, cavity) < n_res


def test_pressure_floor_chain():
    floor = min_detectable_pressure(reference_geometry(), reference_cavity(), reference_calib())
    assert 3e-3 <= floor.pressure <= 12e-3
    assert 100e-15 <= floor.gap_change <= 400e-15
    assert floor.per_beam_deflection == pytest.approx(floor.gap_change / 2)


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
