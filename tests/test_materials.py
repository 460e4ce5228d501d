import math

import numpy as np
import pytest

from casimirchip import (
    DomainError,
    Drude,
    IdealMetal,
    Plasma,
    SuperconductorTwoFluid,
    eps_imag_freq,
    superfluid_fraction,
)
from casimirchip.materials import zero_frequency_plasma_weight

OMEGA_P = 1.83e16  # rad/s, free-electron aluminum scale
GAMMA = 7.6e13


def test_superfluid_fraction_endpoints():
    assert superfluid_fraction(0.0, 1.0) == 1.0
    assert superfluid_fraction(1.0, 1.0) == 0.0
    assert superfluid_fraction(1.5, 1.0) == 0.0


def test_superfluid_fraction_continuous_at_tc():
    t_c = 0.9
    just_below = superfluid_fraction(t_c * (1 - 1e-9), t_c)
    assert 0.0 < just_below < 1e-8


def test_superfluid_fraction_rejects_negatives():
    with pytest.raises(DomainError):
        superfluid_fraction(-0.1, 1.0)
    with pytest.raises(DomainError):
        superfluid_fraction(0.1, -1.0)


def test_parameter_validation():
    with pytest.raises(DomainError):
        Plasma(-1.0)
    with pytest.raises(DomainError):
        Drude(OMEGA_P, -1.0)
    with pytest.raises(DomainError):
        SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.0)


def test_plasma_at_omega_p_is_two():
    assert eps_imag_freq(Plasma(OMEGA_P), OMEGA_P, temperature=0.0) == pytest.approx(2.0)


def test_drude_with_zero_gamma_reduces_to_plasma():
    assert eps_imag_freq(Drude(OMEGA_P, 0.0), OMEGA_P, temperature=0.0) == pytest.approx(2.0)


def test_two_fluid_above_tc_equals_drude():
    sc = SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)
    dr = Drude(OMEGA_P, GAMMA)
    for xi in np.geomspace(1e9, 1e18, 13):
        assert eps_imag_freq(sc, xi, temperature=0.9) == pytest.approx(
            eps_imag_freq(dr, xi, temperature=0.9)
        )
        assert eps_imag_freq(sc, xi, temperature=1.4) == pytest.approx(
            eps_imag_freq(dr, xi, temperature=1.4)
        )


def test_two_fluid_is_exactly_plasma_at_zero_and_drude_from_tc():
    t_c = 0.9
    sc = SuperconductorTwoFluid(OMEGA_P, GAMMA, t_c)
    xi = np.geomspace(1e9, 1e18, 37)
    assert np.array_equal(eps_imag_freq(sc, xi, temperature=0.0),
                          eps_imag_freq(Plasma(OMEGA_P), xi, temperature=0.0))
    assert (zero_frequency_plasma_weight(sc, 0.0)
            == zero_frequency_plasma_weight(Plasma(OMEGA_P), 0.0))
    for temperature in (t_c, 1.5 * t_c):
        assert np.array_equal(eps_imag_freq(sc, xi, temperature=temperature),
                              eps_imag_freq(Drude(OMEGA_P, GAMMA), xi, temperature=temperature))
        assert (zero_frequency_plasma_weight(sc, temperature)
                == zero_frequency_plasma_weight(Drude(OMEGA_P, GAMMA), temperature) == 0.0)


def test_ordering_plasma_drude_vacuum():
    pl, dr = Plasma(OMEGA_P), Drude(OMEGA_P, GAMMA)
    xi = np.geomspace(1e8, 1e19, 23)
    eps_pl = eps_imag_freq(pl, xi, temperature=0.0)
    eps_dr = eps_imag_freq(dr, xi, temperature=0.0)
    assert np.all(eps_pl >= eps_dr)
    assert np.all(eps_dr >= 1.0)


def test_two_fluid_interpolates_and_is_continuous_in_t():
    sc = SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)
    pl, dr = Plasma(OMEGA_P), Drude(OMEGA_P, GAMMA)
    xi = np.geomspace(1e9, 1e17, 9)
    for temp in (0.0, 0.3, 0.6, 0.89):
        eps_sc = eps_imag_freq(sc, xi, temperature=temp)
        assert np.all(eps_sc <= eps_imag_freq(pl, xi, temperature=temp) + 1e-12)
        assert np.all(eps_sc >= eps_imag_freq(dr, xi, temperature=temp) - 1e-12)
    # Continuity across t_c: the deviation from the t_c value shrinks in
    # lockstep with T_c - T (f_s vanishes linearly).
    at = eps_imag_freq(sc, xi, temperature=0.9)
    deviations = [
        np.max(np.abs(eps_imag_freq(sc, xi, temperature=0.9 * (1 - dt)) - at) / at)
        for dt in (1e-3, 1e-6, 1e-9)
    ]
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 1e-3 * deviations[0]


def test_monotone_decreasing_in_xi():
    for model in (Plasma(OMEGA_P), Drude(OMEGA_P, GAMMA),
                  SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)):
        xi = np.geomspace(1e9, 1e18, 40)
        eps = eps_imag_freq(model, xi, temperature=0.5)
        assert np.all(np.diff(eps) < 0)


def test_high_frequency_spectral_weight():
    # xi^2 (eps - 1) -> omega_p^2, checked at xi = 1e3 omega_p to 1%.
    xi = 1e3 * OMEGA_P
    for model in (Plasma(OMEGA_P), Drude(OMEGA_P, GAMMA),
                  SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)):
        weight = xi**2 * (eps_imag_freq(model, xi, temperature=0.5) - 1.0)
        assert weight == pytest.approx(OMEGA_P**2, rel=0.01)


def test_eps_rejects_nonpositive_xi():
    with pytest.raises(DomainError):
        eps_imag_freq(Plasma(OMEGA_P), 0.0, temperature=0.0)
    with pytest.raises(DomainError):
        eps_imag_freq(Plasma(OMEGA_P), -1e12, temperature=0.0)
    # A float, a numpy float and an array meet the same refusal, whichever
    # path checks them.
    message = "xi must be finite and > 0; the zero-frequency term must use the analytic limit path"
    for xi in (0.0, -1.0, math.inf, math.nan):
        for arg in (xi, np.float64(xi), np.array([1.0, xi])):
            with pytest.raises(DomainError) as refusal:
                eps_imag_freq(Drude(OMEGA_P, GAMMA), arg, temperature=0.0)
            assert str(refusal.value) == message


@pytest.mark.parametrize("model", [Plasma(OMEGA_P), Drude(OMEGA_P, GAMMA),
                                   SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)],
                         ids=["plasma", "drude", "twofluid"])
def test_eps_of_a_float_is_the_one_element_array_value(model):
    # A float is evaluated in float arithmetic, not by numpy: the same bits.
    for temperature in (0.0, 0.3, 0.9, 1.2):
        for xi in np.geomspace(1e-3, 1e22, 101).tolist():
            expected = eps_imag_freq(model, np.array([xi]), temperature)[0]
            for arg in (xi, np.float64(xi)):
                value = eps_imag_freq(model, arg, temperature)
                assert type(value) is float and value == expected


def test_eps_rejects_ideal_metal():
    with pytest.raises(TypeError, match="IdealMetal"):
        eps_imag_freq(IdealMetal(), 1e12, temperature=0.0)


def test_eps_rejects_unknown_model():
    with pytest.raises(TypeError, match="unknown material model"):
        eps_imag_freq(object(), 1e12, temperature=0.0)


def test_eps_is_finite_and_at_least_one():
    xi = np.geomspace(1e6, 1e20, 30)
    eps = eps_imag_freq(Drude(OMEGA_P, GAMMA), xi, temperature=0.0)
    assert np.all(np.isfinite(eps))
    assert np.all(eps >= 1.0)
    assert eps[-1] == pytest.approx(1.0, abs=1e-6)
