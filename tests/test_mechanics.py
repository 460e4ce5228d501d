import math
from dataclasses import replace

import numpy as np
import pytest

from casimirchip import (
    DeviceGeometry,
    DomainError,
    axial_tension,
    derive_mechanics,
    effective_stiffness,
    fundamental_frequency,
    midpoint_deflection,
    pressure_to_gap_change,
)


def reference_geometry(**overrides):
    geo = DeviceGeometry(
        string_length=384e-6, effective_length=340e-6, width=926e-9,
        thickness=300e-9, metal_eff_thickness=18e-9, metal_segment_length=220e-6,
        plate_height=350e-9, gap=100e-9,
        film_stress=1.3e9, density_sin=3100.0, density_al=2700.0,
    )
    return replace(geo, **overrides) if overrides else geo


def finite_difference_midpoint(q, x1, x2, length, tension, nodes=10_000):
    """Independent oracle: solve -S w'' = q 1_[x1,x2] on a dense grid.

    The load is cell-averaged (overlap fraction of each grid cell with the
    span); plain node sampling would snap the span edges to the grid and
    cost O(h) accuracy.
    """
    h = length / (nodes + 1)
    x = np.linspace(h, length - h, nodes)
    overlap = np.clip(
        (np.minimum(x2, x + h / 2) - np.maximum(x1, x - h / 2)) / h, 0.0, 1.0
    )
    rhs = (q / tension) * overlap * h * h
    # Thomas algorithm for the [-1, 2, -1] tridiagonal system.
    main = np.full(nodes, 2.0)
    upper = np.full(nodes - 1, -1.0)
    lower = np.full(nodes - 1, -1.0)
    for i in range(1, nodes):
        m = lower[i - 1] / main[i - 1]
        main[i] -= m * upper[i - 1]
        rhs[i] -= m * rhs[i - 1]
    w = np.zeros(nodes)
    w[-1] = rhs[-1] / main[-1]
    for i in range(nodes - 2, -1, -1):
        w[i] = (rhs[i] + w[i + 1]) / main[i]
    return float(np.interp(0.5 * length, x, w))


def test_axial_tension_reference_value():
    geo = reference_geometry()
    assert axial_tension(geo) == pytest.approx(3.61e-4, rel=2e-3)
    half = replace(geo, film_stress=0.65e9)
    assert axial_tension(half) == pytest.approx(axial_tension(geo) / 2)
    with pytest.raises(DomainError):
        replace(geo, film_stress=-1.0)


def test_geometry_validation():
    with pytest.raises(DomainError):
        reference_geometry(width=0.0)
    with pytest.raises(DomainError):
        reference_geometry(metal_segment_length=400e-6)
    with pytest.raises(DomainError):
        reference_geometry(effective_length=400e-6)


def test_full_span_midpoint_closed_form():
    q, length, tension = 1e-6, 300e-6, 4e-4
    w_mid = midpoint_deflection(q, (0.0, length), length, tension)
    assert w_mid == pytest.approx(q * length**2 / (8 * tension), rel=1e-12)


def test_centered_span_midpoint_closed_form():
    q, length, tension, c = 2e-7, 340e-6, 3.6e-4, 220e-6
    x1 = 0.5 * (length - c)
    w_mid = midpoint_deflection(q, (x1, x1 + c), length, tension)
    assert w_mid == pytest.approx(q * c * (2 * length - c) / (8 * tension), rel=1e-12)


def test_off_center_span_midpoint_closed_form():
    # Right of a span [x1, x2] < L/2 the string is straight, so the midpoint
    # deflection is that of the resultant q c at the span's centre xbar:
    # w(L/2) = q c xbar / (2 S).
    q, length, tension = 1e-6, 3e-4, 2e-4
    x1, x2 = 0.1 * length, 0.3 * length
    w_left = midpoint_deflection(q, (x1, x2), length, tension)
    c, xbar = x2 - x1, 0.5 * (x1 + x2)
    assert w_left == pytest.approx(q * c * xbar / (2 * tension), rel=1e-12)
    # The mirrored span gives the same midpoint deflection.
    mirrored = midpoint_deflection(q, (length - x2, length - x1), length, tension)
    assert mirrored == pytest.approx(w_left, rel=1e-12)


def test_zero_load_gives_zero_profile():
    for span in ((0.0, 1e-4), (1e-4, 2e-4), (2e-4, 3e-4)):
        assert midpoint_deflection(0.0, span, 3e-4, 1e-4) == 0.0


def test_midpoint_matches_finite_difference_oracle():
    rng = np.random.default_rng(20260810)
    for _ in range(20):
        length = 10 ** rng.uniform(-4.5, -3.0)
        tension = 10 ** rng.uniform(-5, -3)
        q = 10 ** rng.uniform(-9, -5)
        x1 = rng.uniform(0.0, 0.45) * length
        x2 = rng.uniform(0.55, 1.0) * length
        w_mid = midpoint_deflection(q, (x1, x2), length, tension)
        oracle = finite_difference_midpoint(q, x1, x2, length, tension)
        assert abs(w_mid - oracle) / oracle < 1e-6
    # Spans off L/2 on either side of it, and spans ending at it.
    length, tension, q = 3e-4, 2e-4, 1e-6
    for x1, x2 in ((0.05, 0.4), (0.2, 0.5), (0.5, 0.7), (0.6, 0.95)):
        x1, x2 = x1 * length, x2 * length
        w_mid = midpoint_deflection(q, (x1, x2), length, tension)
        oracle = finite_difference_midpoint(q, x1, x2, length, tension)
        assert abs(w_mid - oracle) / oracle < 1e-6


def test_invalid_span_rejected():
    with pytest.raises(DomainError):
        midpoint_deflection(1e-6, (2e-4, 1e-4), 3e-4, 1e-4)
    with pytest.raises(DomainError):
        midpoint_deflection(1e-6, (0.0, 4e-4), 3e-4, 1e-4)


def test_fundamental_frequency_near_950_khz():
    f1 = fundamental_frequency(reference_geometry())
    assert f1 == pytest.approx(950e3, rel=0.10)


def test_frequency_square_root_mass_law():
    # Quadrupling both densities quadruples mu and halves f1.
    geo = reference_geometry()
    heavy = reference_geometry(density_sin=4 * 3100.0, density_al=4 * 2700.0)
    assert fundamental_frequency(heavy) == pytest.approx(
        fundamental_frequency(geo) / 2, rel=1e-12
    )


def test_frequency_inverse_length_law():
    # With negligible metal loading, mu is length-independent and f1 ~ 1/L.
    light = reference_geometry(density_al=1e-6)
    longer = reference_geometry(density_al=1e-6, string_length=768e-6,
                            effective_length=680e-6)
    assert fundamental_frequency(longer) == pytest.approx(
        fundamental_frequency(light) / 2, rel=1e-9
    )


def test_effective_stiffness_reference_value():
    k = effective_stiffness(418e-15, 952e3)
    assert k == pytest.approx(14.9, rel=0.01)
    assert effective_stiffness(418e-15, 2 * 952e3) == pytest.approx(4 * k, rel=1e-12)
    with pytest.raises(DomainError):
        effective_stiffness(0.0, 952e3)


def test_gap_change_zero_and_linear():
    geo = reference_geometry()
    assert pressure_to_gap_change(0.0, geo) == 0.0
    one = pressure_to_gap_change(0.5, geo)
    assert pressure_to_gap_change(1.0, geo) == pytest.approx(2 * one, rel=1e-12)
    with pytest.raises(DomainError):
        pressure_to_gap_change(-0.5, geo)


def test_gap_change_for_half_pascal_in_expected_band():
    # ~0.5 Pa on the reference device closes the gap by 10..30 pm.
    gap_change = pressure_to_gap_change(0.5, reference_geometry())
    assert 10e-12 < gap_change < 30e-12


def test_line_vs_modal_stiffness_band():
    # Full-span line stiffness q L / delta_mid = 8 S / L against the
    # uniform-load response of the fundamental sine mode: the ratio is a
    # pure geometry factor (32/pi^3 ~ 1.03), asserted as a band.
    geo = reference_geometry()
    derived = derive_mechanics(geo)
    length, tension = geo.effective_length, derived.tension
    q = 1e-6
    w_mid = midpoint_deflection(q, (0.0, length), length, tension)
    k_line = q * length / w_mid
    modal_force = 2 * q * length / math.pi
    modal_mid = modal_force / derived.k_eff
    k_modal = q * length / modal_mid
    ratio = k_line / k_modal
    assert 1.0 <= ratio <= 1.3
    assert ratio == pytest.approx(32 / math.pi**3, rel=1e-9)


def test_derive_mechanics_accepts_measured_mass():
    derived = derive_mechanics(reference_geometry(), m_eff=418e-15)
    assert derived.m_eff == 418e-15
    assert derived.k_eff == pytest.approx(
        418e-15 * (2 * math.pi * derived.f1) ** 2
    )
