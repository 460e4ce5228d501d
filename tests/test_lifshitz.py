import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.constants as sc
from scipy.integrate import quad

from casimirchip import (
    DEFAULT_NUMERICS,
    DomainError,
    Drude,
    IdealMetal,
    LifshitzNumerics,
    Plasma,
    SuperconductorTwoFluid,
    differential_pressure,
    ideal_pressure_closed_form,
    plate_pressure,
    plate_pressures,
)
from casimirchip import lifshitz
from casimirchip.constants import C, HBAR, K_B
from casimirchip.lifshitz import (
    _K_ORDER_START,
    _N_EXPLICIT,
    _clenshaw_curtis,
    _k_integrals_adaptive,
)

OMEGA_P = 1.83e16
GAMMA = 7.6e13
ZETA3 = 1.2020569031595943

IDEAL = IdealMetal()
PLASMA = Plasma(OMEGA_P)
DRUDE = Drude(OMEGA_P, GAMMA)
TWOFLUID = SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)


# ---------------------------------------------------------------- reflection

def _reflection(model, xi, k, temperature=0.0):
    # (r_TE, r_TM) of one surface at one (xi, k) from _fresnel, which the
    # engine runs on (rows, nodes) grids of kappa = sqrt(k^2 + xi^2/c^2).
    r = np.empty((3, 1, 1))
    kappa = np.full((1, 1), math.sqrt(k**2 + (xi / C) ** 2))
    lifshitz._fresnel(model, np.full((1, 1), float(xi)), kappa, temperature, *r)
    return r[0].item(), r[1].item()


def test_ideal_metal_reflection_everywhere():
    for xi in (0.0, 1e10, 1e14, 1e17):
        for k in (1e3, 1e6, 1e8):
            assert _reflection(IDEAL, xi, k) == (-1.0, 1.0)


def test_drude_te_zero_mode_vanishes():
    for k in (1e4, 1e6, 1e8):
        r_te, r_tm = _reflection(DRUDE, 0.0, k)
        assert r_te == 0.0
        assert r_tm == 1.0


def test_plasma_zero_frequency_te_limit():
    k = 1e7
    r_te, r_tm = _reflection(PLASMA, 0.0, k)
    s = math.sqrt(k**2 + OMEGA_P**2 / sc.c**2)
    assert r_te == pytest.approx((k - s) / (k + s), rel=1e-12)
    assert r_tm == 1.0


def test_two_fluid_zero_frequency_weighted_by_superfluid_fraction():
    k = 1e7
    f_s = 1.0 - (0.45 / 0.9) ** 4
    s = math.sqrt(k**2 + f_s * OMEGA_P**2 / sc.c**2)
    r_te, _ = _reflection(TWOFLUID, 0.0, k, temperature=0.45)
    assert r_te == pytest.approx((k - s) / (k + s), rel=1e-12)
    # At and above t_c the TE zero mode is gone, as for Drude.
    r_te_hot, r_tm_hot = _reflection(TWOFLUID, 0.0, k, temperature=0.9)
    assert r_te_hot == 0.0
    assert r_tm_hot == 1.0


def test_vacuum_limit_no_reflection():
    # eps -> 1 (omega_p much below xi) drives both coefficients to zero.
    weak = Plasma(1e6)
    r_te, r_tm = _reflection(weak, 1e15, 1e6)
    assert abs(r_te) < 1e-12
    assert abs(r_tm) < 1e-12


def test_reflection_magnitudes_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        xi = 10 ** rng.uniform(8, 18)
        k = 10 ** rng.uniform(2, 9)
        for model in (IDEAL, PLASMA, DRUDE, TWOFLUID):
            r_te, r_tm = _reflection(model, xi, k, temperature=0.5)
            assert abs(r_te) <= 1.0 + 1e-12
            assert abs(r_tm) <= 1.0 + 1e-12


# ------------------------------------------------------------- closed form

def test_ideal_closed_form_values():
    assert ideal_pressure_closed_form(100e-9) == pytest.approx(13.00, abs=0.005)
    assert ideal_pressure_closed_form(1e-6) == pytest.approx(1.300e-3, rel=1e-3)
    assert ideal_pressure_closed_form(200e-9) == pytest.approx(
        ideal_pressure_closed_form(100e-9) / 16.0
    )
    with pytest.raises(DomainError):
        ideal_pressure_closed_form(0.0)


# ----------------------------------------------------------- plate pressure

def test_t_zero_ideal_matches_casimir_force():
    res = plate_pressure(100e-9, 0.0, IDEAL, IDEAL)
    exact = math.pi**2 * sc.hbar * sc.c / (240 * (100e-9) ** 4)
    assert res.pressure == pytest.approx(exact, rel=5e-3)
    assert res.pressure == pytest.approx(exact, rel=1e-6)


def test_classical_limit_ideal_metal():
    # Independent oracle: only the half-weighted n = 0 term survives at
    # k_B T = 10 hbar c / a; with both polarizations fully reflecting it
    # integrates to zeta(3) k_B T / (4 pi a^3).
    a = 100e-9
    temp = 10 * sc.hbar * sc.c / (a * sc.Boltzmann)
    res = plate_pressure(a, temp, IDEAL, IDEAL)
    assert res.pressure == pytest.approx(
        ZETA3 * sc.Boltzmann * temp / (4 * math.pi * a**3), rel=1e-2
    )


def test_classical_limit_drude():
    # Drude loses the TE zero mode: the classical limit is the TM-only
    # value zeta(3) k_B T / (8 pi a^3).
    a = 100e-9
    temp = 10 * sc.hbar * sc.c / (a * sc.Boltzmann)
    res = plate_pressure(a, temp, DRUDE, DRUDE)
    assert res.pressure == pytest.approx(
        ZETA3 * sc.Boltzmann * temp / (8 * math.pi * a**3), rel=1e-2
    )


def test_half_weight_regression():
    # At high temperature the entire pressure IS the half-weighted n = 0
    # term, so dropping the half weight must add exactly that classical
    # contribution once more.
    a, num = 100e-9, LifshitzNumerics()
    temp = 10 * sc.hbar * sc.c / (a * sc.Boltzmann)
    res = plate_pressure(a, temp, IDEAL, IDEAL, num)
    term0, _ = _k_integrals_adaptive([(IDEAL, IDEAL)], 0.0, a, temp, num)
    classical = 0.5 * sc.Boltzmann * temp / math.pi * float(term0[0, 0])
    assert res.pressure == pytest.approx(classical, rel=1e-10)
    full_weight = res.pressure + classical
    assert full_weight == pytest.approx(2 * res.pressure, rel=1e-10)


def test_plasma_exceeds_drude_at_cryogenic_point():
    p_plasma = plate_pressure(100e-9, 1.0, PLASMA, PLASMA).pressure
    p_drude = plate_pressure(100e-9, 1.0, DRUDE, DRUDE).pressure
    assert p_plasma > p_drude


def test_pressure_decreases_with_gap():
    for model in (IDEAL, DRUDE):
        gaps = (50e-9, 100e-9, 200e-9, 500e-9)
        vals = [plate_pressure(g, 1.0, model, model).pressure for g in gaps]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_truncation_invariant():
    num = LifshitzNumerics(rel_tol_series=1e-6)
    res = plate_pressure(150e-9, 2.0, DRUDE, DRUDE, num)
    assert res.truncation_estimate <= num.rel_tol_series * res.pressure


def test_quadrature_estimate_bounds_tolerance_change():
    coarse = LifshitzNumerics(rel_tol_quadrature=2e-8)
    fine = LifshitzNumerics(rel_tol_quadrature=1e-8)
    res_coarse = plate_pressure(120e-9, 2.0, DRUDE, DRUDE, coarse)
    res_fine = plate_pressure(120e-9, 2.0, DRUDE, DRUDE, fine)
    assert abs(res_fine.pressure - res_coarse.pressure) <= res_coarse.quadrature_estimate


def test_sub_millikelvin_routes_to_integral_branch():
    # Ideal plates: P(T) = P(0) [1 + t^4 / 3] with t = 2 a k_B T / (hbar c),
    # here ~4e-8, so at 0.5 mK the pressure is the T = 0 closed form within
    # the result's own error bars.
    num = LifshitzNumerics(t_zero_nodes=96)
    res = plate_pressure(100e-9, 5e-4, IDEAL, IDEAL, num)
    exact = ideal_pressure_closed_form(100e-9)
    assert abs(res.pressure - exact) <= res.truncation_estimate + res.quadrature_estimate
    assert res.pressure == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("temp", [40.0, 60.0])
def test_ideal_metal_low_temperature_correction(temp):
    # Independent oracle for the Matsubara tail: for t = 2 a k_B T / (hbar c)
    # well below 1, ideal plates follow P = P(0) [1 + t^4 / 3] up to terms
    # exponentially small in 1 / t.  At 1 um these sums run to n ~ 200-300,
    # so the frequency integral beyond n = 128 carries part of them.
    a = 1e-6
    res = plate_pressure(a, temp, IDEAL, IDEAL)
    t = 2 * a * sc.Boltzmann * temp / (sc.hbar * sc.c)
    expected = ideal_pressure_closed_form(a) * (1 + t**4 / 3)
    assert abs(res.pressure - expected) <= res.truncation_estimate + res.quadrature_estimate


# Direct term-by-term Matsubara sums at relative tolerance 1e-11 in both the
# series and the k-quadrature (up to 0.9M terms at 50 mK), which share
# nothing with the frequency-integral tail.
DIRECT_SUMS = [
    (100e-9, 0.05, PLASMA, 6.714524816876449),
    (100e-9, 0.9, TWOFLUID, 6.608679964369209),
    (10e-9, 1.0, DRUDE, 13222.160450427396),
    (2e-6, 4.0, PLASMA, 7.783510356915219e-05),
    (1e-6, 300.0, DRUDE, 0.0010091634810870504),
]


@pytest.mark.parametrize("gap, temp, model, p_ref", DIRECT_SUMS)
def test_error_bars_cover_direct_sum(gap, temp, model, p_ref):
    # 1e-10 p_ref allows for the references' own precision.
    res = plate_pressure(gap, temp, model, model)
    bar = res.truncation_estimate + res.quadrature_estimate + 1e-10 * p_ref
    assert abs(res.pressure - p_ref) <= bar


@pytest.mark.parametrize("model", [PLASMA, DRUDE])
def test_pressure_continuous_in_temperature_down_to_zero(model):
    def assert_close(r1, r2):
        bars = (r1.truncation_estimate + r1.quadrature_estimate
                + r2.truncation_estimate + r2.quadrature_estimate)
        assert abs(r1.pressure - r2.pressure) <= bars

    below = plate_pressure(100e-9, 0.999e-3, model, model)
    above = plate_pressure(100e-9, 1.001e-3, model, model)
    assert_close(below, above)
    zero = plate_pressure(100e-9, 0.0, model, model)
    # 1e-8 K is cold enough for the no-explicit-term case, 2e-8 K is not.
    for temp in (1e-3, 1e-5, 2e-8, 1e-8, 1e-12):
        assert_close(plate_pressure(100e-9, temp, model, model), zero)


def test_t_zero_node_doubling_converges():
    few = plate_pressure(100e-9, 0.0, DRUDE, DRUDE,
                         LifshitzNumerics(t_zero_nodes=64))
    many = plate_pressure(100e-9, 0.0, DRUDE, DRUDE,
                          LifshitzNumerics(t_zero_nodes=128))
    assert few.pressure == pytest.approx(many.pressure, rel=1e-7)


def test_unreachable_tolerances_still_end_the_matsubara_sum():
    # No term budget: at tolerances no sum can meet, N stops at the stop
    # rule (here where the estimate falls to the k-rule's round-off floor,
    # 1,426 terms) or once every term below the y cutoff is summed (12,151).
    num = LifshitzNumerics(rel_tol_quadrature=1e-300, rel_tol_series=1e-300)
    res = plate_pressure(1e-6, 0.9, DRUDE, DRUDE, num)
    assert res.terms_used < 16_384
    assert math.isfinite(res.truncation_estimate + res.quadrature_estimate)


def test_pressure_rejects_bad_arguments():
    with pytest.raises(DomainError):
        plate_pressure(0.0, 1.0, IDEAL, IDEAL)
    with pytest.raises(DomainError):
        plate_pressure(100e-9, -1.0, IDEAL, IDEAL)


@pytest.mark.parametrize("gap,temp", [(0.0, 1.0), (-1e-9, 1.0), (100e-9, -1.0)])
def test_batch_rejects_bad_arguments_before_evaluating(monkeypatch, gap, temp):
    calls = _hook_k_integrand(monkeypatch)
    with pytest.raises(DomainError):
        plate_pressures(gap, temp, [(DRUDE, DRUDE), (IDEAL, PLASMA)])
    assert calls == []


@pytest.mark.parametrize("temp", [1e150, 1e151, 1e200, 1e296, 2e296, 1e297, 1e300])
@pytest.mark.parametrize("gap", [20e-9, 100e-9, 1e-6])
def test_extreme_temperatures_give_finite_results_or_domain_error(gap, temp):
    # The n >= 1 rows lie past the y cutoff here; from ~1e151 K the squares
    # of their frequencies overflow, and from ~2e296 K xi_1 itself does.  A
    # numpy warning fails the test (filterwarnings = error).
    for model in (IDEAL, PLASMA, DRUDE, TWOFLUID):
        try:
            result = plate_pressure(gap, temp, model, model)
        except DomainError as exc:
            assert repr(gap) in str(exc) and repr(temp) in str(exc)
            assert temp > 1e296
            continue
        assert all(map(math.isfinite, (result.pressure, result.truncation_estimate,
                                       result.quadrature_estimate)))


@pytest.mark.parametrize("temp", [0.0, 1.0])
@pytest.mark.parametrize("gap", [1e-100, 1e-90, 1e-80, 1e-78, 1e-76, 1e-74, 1e-72, 1e-70])
def test_tiny_gaps_give_finite_results_or_domain_error(gap, temp):
    # The k-integrals scale as 1/a^3 and the frequency Jacobian as 1/a, so
    # from ~1e-76 m the ideal pair's rule overflows inside numpy.  That must
    # raise the overflow DomainError, not a numpy warning (filterwarnings =
    # error).  The free-electron responses have long vanished from eps at
    # these gaps, which is refused before anything is evaluated.
    for model in (IDEAL, PLASMA, DRUDE, TWOFLUID):
        try:
            result = plate_pressure(gap, temp, model, model)
        except DomainError as exc:
            if model is IDEAL:
                assert str(exc) == (f"the pressure at gap {gap!r} m and temperature "
                                    f"{temp!r} K overflows")
                assert gap <= 1e-76
            else:
                assert str(exc) == (f"the material response vanishes at gap {gap!r} m: "
                                    "eps(i c/2a) - 1 rounds to 0")
            continue
        assert all(map(math.isfinite, (result.pressure, result.truncation_estimate,
                                       result.quadrature_estimate)))
        assert result.pressure > 0.0
        assert model is IDEAL and gap > 1e-76


@pytest.mark.parametrize("model", [PLASMA, DRUDE, TWOFLUID], ids=["plasma", "drude", "twofluid"])
def test_vanished_material_response_raises_instead_of_a_silent_zero(model):
    # eps(i c/2a) - 1 = omega_p^2 (2a/c)^2 for plasma is 2.2e-16 at 1e-16 m
    # and rounds to 0 below: the pressure then fell 1000x low by 1e-18 m and
    # to exactly 0 with zero bars by 1e-30 m.
    for gap in (1e-18, 1e-30):
        for temp in (0.0, 1.0):
            with pytest.raises(DomainError, match=f"vanishes at gap {gap!r} m"):
                plate_pressure(gap, temp, model, model)
            with pytest.raises(DomainError, match="vanishes"):
                plate_pressures(gap, temp, [(IDEAL, IDEAL), (model, IDEAL)])
    # Down to 1e-16 m the non-retarded P a^3 holds at T = 0, each value within
    # its own bar of the 1e-12 m one.
    ref = plate_pressure(1e-12, 0.0, model, model).pressure * 1e-36
    for gap in (1e-13, 1e-14, 1e-15, 1e-16):
        result = plate_pressure(gap, 0.0, model, model)
        bar = result.truncation_estimate + result.quadrature_estimate
        assert abs(result.pressure * gap**3 - ref) <= bar * gap**3


def test_pressure_past_the_float_range_raises():
    # Finite frequencies, but k_B T / (8 pi a^3) exceeds the largest float.
    with pytest.raises(DomainError, match="temperature 1e[+]290 K overflows"):
        plate_pressures(1e-15, 1e290, [(IDEAL, IDEAL), (DRUDE, DRUDE)])


def test_batch_of_no_pairs_is_empty():
    assert plate_pressures(100e-9, 1.0, []) == []


def test_numerics_validation():
    with pytest.raises(DomainError):
        LifshitzNumerics(rel_tol_series=1e-2)


@pytest.mark.parametrize("nodes", [100.0, math.nan, True, 7])
def test_t_zero_nodes_must_be_an_int_of_at_least_8(nodes):
    # A float or NaN used to pass construction and fail later in
    # plate_pressure with an AttributeError.
    with pytest.raises(DomainError):
        LifshitzNumerics(t_zero_nodes=nodes)


# -------------------------------------------------------------- differential

def test_differential_identical_pairs_is_zero():
    assert differential_pressure(100e-9, 1.0, DRUDE, DRUDE, (DRUDE, DRUDE)) == 0.0


def test_differential_plasma_minus_drude_positive():
    diff = differential_pressure(100e-9, 1.0, PLASMA, PLASMA, (DRUDE, DRUDE))
    assert diff > 0.0


def test_two_fluid_at_tc_matches_drude():
    num = LifshitzNumerics(rel_tol_series=1e-6)
    diff = differential_pressure(100e-9, 0.9, TWOFLUID, TWOFLUID,
                                 (DRUDE, DRUDE), num)
    scale = plate_pressure(100e-9, 0.9, DRUDE, DRUDE, num).pressure
    assert abs(diff) <= 2 * num.rel_tol_series * scale


# -------------------------------------------------- quadrature mode-sum oracle

def test_k_integral_against_mode_sum():
    # Ideal plates at zero frequency: the engine's k-integral equals the
    # brute-force round-trip mode sum (1/8a^3) * 2 * sum_m 2/m^3.
    a = 100e-9
    val = float(_k_integrals_adaptive([(IDEAL, IDEAL)], 0.0, a, 0.0, DEFAULT_NUMERICS)[0][0, 0])
    brute = 2.0 * sum(2.0 / m**3 for m in range(1, 4000)) / (8 * a**3)
    assert val == pytest.approx(brute, rel=1e-6)


def test_k_integral_against_scipy_quad_for_drude():
    # One finite-frequency Matsubara term, reproduced independently with
    # scipy quadrature and locally written Fresnel formulas.
    a, temp, n = 150e-9, 1.3, 7
    xi = 2 * math.pi * n * sc.Boltzmann * temp / sc.hbar
    eps = 1.0 + OMEGA_P**2 / (xi * (xi + GAMMA))

    def integrand(y):
        kappa = y / (2 * a)
        kappa_m = math.sqrt(kappa**2 + (eps - 1.0) * (xi / sc.c) ** 2)
        r_te = (kappa - kappa_m) / (kappa + kappa_m)
        r_tm = (eps * kappa - kappa_m) / (eps * kappa + kappa_m)
        total = 0.0
        for r in (r_te, r_tm):
            t = r * r * math.exp(-y)
            total += t / (1.0 - t)
        return y * y * total

    y_lo = 2 * a * xi / sc.c
    brute, _ = quad(integrand, y_lo, 60.0, limit=300)
    brute /= 8 * a**3
    val = float(_k_integrals_adaptive([(DRUDE, DRUDE)], xi, a, temp, DEFAULT_NUMERICS)[0][0, 0])
    assert val == pytest.approx(brute, rel=1e-9)


# ------------------------------------------------------ frequency-rule bars

def _log_grid_integral_800(xi_lo, xi_hi, order, ceiling, args, first=None):
    # Reference for the ln-xi frequency integral: one fixed 800-node rule
    # from numpy, no node doubling and no rule error of its own, and
    # xi_lo J(xi_lo), the piece below a T = 0 grid, each per pair.  The
    # first rung that plate_pressures samples for the engine's rule is ignored.
    gap, temperature, pairs, num = args
    u_lo, u_hi = math.log(xi_lo), math.log(xi_hi)
    x, w = np.polynomial.legendre.leggauss(800)
    half = 0.5 * (u_hi - u_lo)
    xi = np.exp(u_lo + (x + 1.0) * half)
    vals, errs = _k_integrals_adaptive(pairs, xi, gap, temperature, num)
    low = xi_lo * _k_integrals_adaptive(pairs, xi_lo, gap, temperature, num)[0][:, 0]
    return list(zip((np.sum(w * xi * vals, axis=-1) * half).tolist(),
                    (np.sum(w * xi * errs, axis=-1) * half).tolist(), [0.0] * len(pairs),
                    [800] * len(pairs), low.tolist()))


def _pressure_800(monkeypatch, gap, temp, model, num):
    with monkeypatch.context() as patch:
        patch.setattr(lifshitz, "_log_grid_integral", _log_grid_integral_800)
        return plate_pressure(gap, temp, model, model, num).pressure


@pytest.mark.parametrize("temp", [0.0, 0.5])
@pytest.mark.parametrize("model", [PLASMA, DRUDE, TWOFLUID], ids=["plasma", "drude", "two-fluid"])
def test_error_bars_cover_800_node_frequency_rule(monkeypatch, model, temp):
    res = plate_pressure(100e-9, temp, model, model)
    p_800 = _pressure_800(monkeypatch, 100e-9, temp, model, DEFAULT_NUMERICS)
    assert abs(res.pressure - p_800) <= res.truncation_estimate + res.quadrature_estimate


@pytest.mark.parametrize("temp", [0.0, 4.0])
def test_error_bars_cover_800_node_rule_at_binding_ceiling(monkeypatch, temp):
    # t_zero_nodes = 8 stops the doubling at CC-8 -> CC-16 (17 nodes), far
    # from converged.  The bar carries |CC-16 - CC-8|, the coarser rule's
    # error; the returned finer rule sits well inside it.
    num = LifshitzNumerics(t_zero_nodes=8)
    res = plate_pressure(100e-9, temp, DRUDE, DRUDE, num)
    p_800 = _pressure_800(monkeypatch, 100e-9, temp, DRUDE, num)
    assert abs(res.pressure - p_800) <= 0.5 * (res.truncation_estimate + res.quadrature_estimate)


def _rows(calls):
    # k-integral rows evaluated by the hooked _k_integrand calls.
    return sum(call[-1].shape[0] for call in calls)


@pytest.mark.parametrize("gap", [10e-9, 100e-9, 1e-6])
@pytest.mark.parametrize("model", [PLASMA, DRUDE, TWOFLUID], ids=["plasma", "drude", "two-fluid"])
def test_default_cost_in_k_integral_rows(monkeypatch, model, gap):
    # Counts, not timings, of every row evaluated, the coarser frequency
    # rungs and the truncation block included.  At finite T, N stays at 64
    # and the frequency ladder stops by its 129-node rung: 130 explicit
    # terms, 129 tail nodes and the 33-node block.  At T = 0 the ladder
    # stops by its 257-node rung, whose x = -1 end node also gives the
    # piece below the grid.
    calls = _hook_k_integrand(monkeypatch)
    for temp, budget in ((0.05, 2 * _N_EXPLICIT + 2 + 129 + 33),
                         (4.0, 2 * _N_EXPLICIT + 2 + 129 + 33),
                         (0.0, 257)):
        calls.clear()
        plate_pressure(gap, temp, model, model)
        assert _rows(calls) <= budget


@pytest.mark.parametrize("model", [PLASMA, DRUDE], ids=["plasma", "drude"])
def test_t_zero_piece_below_the_grid_is_xi_min_j_of_xi_min(model):
    # The frequency rule's x = -1 end node supplies xi_min J(xi_min); it
    # must match a k-integral taken at xi_min on its own.
    gap = 100e-9
    xi_min = 1e-9 * sc.c / (2 * gap)
    j = float(_k_integrals_adaptive([(model, model)], xi_min, gap, 0.0, DEFAULT_NUMERICS)[0][0, 0])
    res = plate_pressure(gap, 0.0, model, model)
    low = HBAR / (2 * math.pi**2) * xi_min * j
    assert res.truncation_estimate == pytest.approx(low, rel=1e-13)


def test_binding_frequency_ceiling_stops_the_n_doubling(monkeypatch):
    # At t_zero_nodes = 8 the two tail rules behind P(N) and P(2N) are both
    # unconverged, and their difference is frequency-rule error, not
    # truncation: N must stay at 64, which leaves 130 explicit terms, the
    # 17-node tail rule and the 33-node block, and the bars must still
    # cover the converged value.
    num = LifshitzNumerics(t_zero_nodes=8)
    calls = _hook_k_integrand(monkeypatch)
    res = plate_pressure(100e-9, 0.5, DRUDE, DRUDE, num)
    assert _rows(calls) <= 2 * _N_EXPLICIT + 2 + 17 + 33
    ref = plate_pressure(100e-9, 0.5, DRUDE, DRUDE, LifshitzNumerics(t_zero_nodes=200))
    assert abs(res.pressure - ref.pressure) <= res.truncation_estimate + res.quadrature_estimate


def _two_tail_truncation(gap, temp, model, num, terms_used):
    # |P(N) - P(2N)| from two full Euler-Maclaurin tails at (N+1/2) xi_1 and
    # (2N+1/2) xi_1, with N read off terms_used = 2N + 2 + tail nodes, and
    # the tolerance the two tails' rule and k errors allow.
    args = (gap, temp, [(model, model)], num)
    xi_1 = 2 * math.pi * K_B * temp / HBAR
    ceiling = 1 << ((2 * num.t_zero_nodes).bit_length() - 1)
    rule = (60.0 * sc.c / (2.0 * gap), min(64, ceiling), ceiling, args)
    n = _N_EXPLICIT
    while True:
        upper = lifshitz._log_grid_integral((2 * n + 0.5) * xi_1, *rule)[0]
        if 2 * n + 2 + upper[3] == terms_used:
            break
        assert n < 4 * _N_EXPLICIT
        n *= 2
    lower = lifshitz._log_grid_integral((n + 0.5) * xi_1, *rule)[0]
    f, err = (v[0] for v in _k_integrals_adaptive([(model, model)], np.arange(2 * n + 2) * xi_1,
                                                  gap, temp, num))
    f[0] *= 0.5

    def p_em(m, tail):
        return xi_1 * (np.sum(f[: m + 1]) + (f[m + 1] - f[m]) / 24.0) + tail[0]

    pref = HBAR / (2.0 * math.pi**2)
    tol = lower[1] + lower[2] + upper[1] + upper[2] + xi_1 * np.sum(err[n : 2 * n + 2])
    return pref * abs(p_em(n, lower) - p_em(2 * n, upper)), pref * tol


@pytest.mark.parametrize("model,temp,num", [
    *[pytest.param(model, temp, DEFAULT_NUMERICS, id=f"{name}-{temp}K")
      for model, name in ((PLASMA, "plasma"), (DRUDE, "drude"), (TWOFLUID, "two-fluid"))
      for temp in (0.5, 1.3, 4.0)],
    pytest.param(DRUDE, 0.5, LifshitzNumerics(t_zero_nodes=8), id="drude-0.5K-8-nodes"),
    pytest.param(DRUDE, 4.0, LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11),
                 id="drude-4.0K-1e-11"),
])
def test_truncation_estimate_matches_two_tails(model, temp, num):
    # plate_pressure computes only the tail behind P(2N) and forms
    # P(N) - P(2N) from the terms between, the f' corrections and one
    # short block; that must agree with the difference of two full tails.
    # The 1e-11 case at 1 um doubles N to 128.
    gap = 1e-6 if num.rel_tol_series < 1e-6 else 100e-9
    res = plate_pressure(gap, temp, model, model, num)
    two_tail, tol = _two_tail_truncation(gap, temp, model, num, res.terms_used)
    assert abs(res.truncation_estimate - two_tail) <= tol


# ----------------------------------------------------------------- k-rule

GRID_GAPS = (10e-9, 100e-9, 1e-6)
GRID_TEMPS = (0.0, 0.05, 4.0)
GRID_MODELS = (PLASMA, DRUDE, TWOFLUID)


def _local_k_integrand(model, xi, a):
    # y^2 F(y) with Fresnel coefficients written out here for plasma and
    # Drude, zero-frequency limits included.
    gamma = GAMMA if model is DRUDE else 0.0
    eps = 1.0 + OMEGA_P**2 / (xi * (xi + gamma)) if xi > 0 else None

    def integrand(y):
        kappa = y / (2 * a)
        if xi == 0:
            s = math.sqrt(kappa**2 + (0.0 if gamma else (OMEGA_P / sc.c) ** 2))
            r_te, r_tm = (kappa - s) / (kappa + s), 1.0
        else:
            kappa_m = math.sqrt(kappa**2 + (eps - 1.0) * (xi / sc.c) ** 2)
            r_te = (kappa - kappa_m) / (kappa + kappa_m)
            r_tm = (eps * kappa - kappa_m) / (eps * kappa + kappa_m)
        total = 0.0
        for r in (r_te, r_tm):
            t = r * r * math.exp(-y)
            total += t / (1.0 - t)
        return y * y * total

    return integrand


@pytest.mark.parametrize("gap", GRID_GAPS)
@pytest.mark.parametrize("model", [PLASMA, DRUDE], ids=["plasma", "drude"])
def test_k_rule_converges_geometrically(model, gap):
    # The pole of t/(1-t) sits just left of y_lo.  A rule clustered at y_lo
    # reaches ~1e-15 at 129 nodes on these rows, where a uniform rule in y
    # is still ~5e-7 off; each row's k-error covers its distance from quad.
    for n in (0, 1, 10, 100, 1000):
        xi = 2 * math.pi * n * K_B * 1.0 / HBAR
        ref, _ = quad(_local_k_integrand(model, xi, gap), 2 * gap * xi / sc.c, 60.0,
                      epsabs=0.0, epsrel=1e-13, limit=500)
        ref /= 8 * gap**3
        val, err = (v[0] for v in _k_integrals_adaptive([(model, model)], xi, gap, 1.0,
                                                        DEFAULT_NUMERICS))
        assert val[0] == pytest.approx(ref, rel=1e-11, abs=0.0)
        assert abs(val[0] - ref) <= err[0]


def _hook_k_integrand(monkeypatch):
    # Hooks the one integrand evaluation; returns the list that collects
    # each call's arguments, (pairs, xi_col, gap, temperature, y) with y
    # the (rows, nodes) grid.  The arrays are copied: the engine reuses
    # their memory in later calls.
    inner, calls = lifshitz._k_integrand, []

    def k_integrand(*args):
        calls.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
        return inner(*args)

    monkeypatch.setattr(lifshitz, "_k_integrand", k_integrand)
    return calls


def _record_k_ladders(monkeypatch, num):
    # Runs plate_pressure over the grid and returns, per k-ladder, the last
    # order evaluated and the rows' error in units of tol * scale.  A row
    # evaluates order + 2 points: the nested rungs' nodes and the sliver.
    ladders, calls = [], _hook_k_integrand(monkeypatch)
    adaptive = lifshitz._k_integrals_adaptive

    def k_integrals_adaptive(pairs, xi_col, *args):
        calls.clear()
        cur, err = adaptive(pairs, xi_col, *args)
        scale = np.maximum(np.abs(cur), np.max(np.abs(cur), initial=0.0) * 1e-12)
        order = sum(call[-1].size for call in calls) // np.size(xi_col) - 2
        ladders.append((order, float(np.max(err / (num.rel_tol_quadrature * scale)))))
        return cur, err

    monkeypatch.setattr(lifshitz, "_k_integrals_adaptive", k_integrals_adaptive)
    for gap in GRID_GAPS:
        for temp in GRID_TEMPS:
            for model in GRID_MODELS:
                plate_pressure(gap, temp, model, model, num)
    return ladders


def test_k_ladders_converge_below_the_cap_at_tight_tolerance(monkeypatch):
    # At 1e-11 the ladder must converge before it reaches _K_ORDER_MAX:
    # a row returned at the cap with its error above tolerance is a silent
    # cap hit.
    num = LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11)
    ladders = _record_k_ladders(monkeypatch, num)
    assert len(ladders) > 50
    assert max(excess for _, excess in ladders) <= 1.0


def test_default_k_ladders_end_by_order_128(monkeypatch):
    # Counts, not timings: at default numerics every k-ladder stops at the
    # first fine rung, the 129-node rule with the 65-node rule nested in it.
    # The grid's 27 calls make 36 ladders: one per call, for the Matsubara
    # step's explicit terms, tail rung and truncation block together (or the
    # T = 0 rule's 129 nodes), and one per frequency rung climbed to: the
    # 257-node T = 0 rung at 10 nm and the 129-node tail rung at 50 mK below
    # 1 um, three models each.
    ladders = _record_k_ladders(monkeypatch, DEFAULT_NUMERICS)
    assert len(ladders) == 36
    assert {order for order, _ in ladders} == {2 * _K_ORDER_START}


@pytest.mark.parametrize("model", [PLASMA, DRUDE], ids=["plasma", "drude"])
def test_k_integrand_evaluations_per_call(monkeypatch, model):
    # Counts, not timings: every row of a call at 100 nm evaluates the
    # 129-node rule and the sliver once, 130 points, and nothing else.  The
    # call is one pass: at T = 0 the frequency ladder starts at its 129-node
    # rung, where two rungs of 65 and 64 rows gave the same bits.
    calls = _hook_k_integrand(monkeypatch)
    for temp, budget, rows in ((1.0, 29_640, 228), (0.0, 16_770, 129)):
        calls.clear()
        plate_pressure(100e-9, temp, model, model)
        assert sum(call[-1].size for call in calls) <= budget
        assert {call[-1].shape[1] for call in calls} == {2 * _K_ORDER_START + 2}
        assert [call[-1].shape[0] for call in calls] == [rows]


def test_k_ladder_rungs_are_nested(monkeypatch):
    # The coarse rule's nodes are the fine rule's at even indices, bit for
    # bit, so a ladder driven to its cap evaluates each node once: 130
    # points for the 65- and 129-node rules and the sliver, then only the
    # 128 odd nodes of the 257-node rule.
    for order in (64, 128):
        assert np.array_equal(_clenshaw_curtis(order)[0], _clenshaw_curtis(2 * order)[0][::2])
    calls = _hook_k_integrand(monkeypatch)
    num = LifshitzNumerics(rel_tol_quadrature=1e-300)
    xi = np.array([0.0, 1e12, 1e14])
    _k_integrals_adaptive([(DRUDE, DRUDE)], xi, 100e-9, 1.0, num)
    assert [call[-1].shape for call in calls] == [(3, 130), (3, 128)]
    y = np.concatenate([call[-1] for call in calls], axis=1)
    assert all(len(np.unique(row)) == 258 for row in y)


def test_frequency_ladder_rungs_are_nested(monkeypatch):
    # The CC-32 xi nodes are the CC-64 xi nodes at even indices, bit for
    # bit, so a ladder driven to its ceiling evaluates each xi node once:
    # the 65 nodes of the CC-64 rule, then only the 64 and 128 odd nodes of
    # the 129- and 257-node rules.
    calls = _hook_k_integrand(monkeypatch)
    gap = 100e-9
    xi_min, xi_hi = 1e-9 * sc.c / (2 * gap), 60.0 * sc.c / (2 * gap)

    def xi_rows(ceiling, tol):
        calls.clear()
        num = LifshitzNumerics(rel_tol_quadrature=tol)
        args = (gap, 0.0, [(DRUDE, DRUDE)], num)
        nodes = lifshitz._log_grid_integral(xi_min, xi_hi, min(64, ceiling), ceiling, args)[0][3]
        # Each k-ladder's first call holds the rows; at 1e-300 it climbs on.
        return nodes, [call[1][:, 0] for call in calls
                       if call[-1].shape[1] == 2 * _K_ORDER_START + 2]

    # Ceilings 32 and 64 stop the ladder at its first rung.
    assert xi_rows(32, 1e-8)[0] == 33 and xi_rows(64, 1e-8)[0] == 65
    (cc32,), (cc64,) = xi_rows(32, 1e-8)[1], xi_rows(64, 1e-8)[1]
    assert np.array_equal(cc64[::2], cc32)
    nodes, rungs = xi_rows(256, 1e-300)
    assert nodes == 257 and [len(xi) for xi in rungs] == [65, 64, 128]
    assert len(np.unique(np.concatenate(rungs))) == 257


def test_finite_t_call_evaluates_terms_tail_rung_and_33_row_block(monkeypatch):
    # At 100 nm and 1 K the Matsubara step is one 228-row pass: the 130
    # explicit terms, the 65-node tail rule over [(2N + 1/2) xi_1, xi_hi],
    # and the truncation block as one 33-node CC-32 evaluation over
    # [(N + 1/2) xi_1, (2N + 1/2) xi_1], CC-16 being its even indices.
    calls = _hook_k_integrand(monkeypatch)
    plate_pressure(100e-9, 1.0, DRUDE, DRUDE)
    assert [call[-1].shape[0] for call in calls] == [2 * _N_EXPLICIT + 2 + 65 + 33]
    xi_1 = 2 * math.pi * K_B * 1.0 / HBAR
    xi = calls[0][1][:, 0]
    assert np.array_equal(xi[: 2 * _N_EXPLICIT + 2], np.arange(2 * _N_EXPLICIT + 2) * xi_1)
    tail, block = xi[2 * _N_EXPLICIT + 2 : -33], xi[-33:]
    assert tail.min() == pytest.approx((2 * _N_EXPLICIT + 0.5) * xi_1, rel=1e-14)
    assert tail.max() == pytest.approx(60.0 * C / (2 * 100e-9), rel=1e-14)
    assert block.min() == pytest.approx((_N_EXPLICIT + 0.5) * xi_1, rel=1e-14)
    assert block.max() == pytest.approx((2 * _N_EXPLICIT + 0.5) * xi_1, rel=1e-14)


@pytest.mark.parametrize("pairs", [[(DRUDE, DRUDE)], [(PLASMA, DRUDE), (TWOFLUID, TWOFLUID)]],
                         ids=["one-pair", "two-pairs"])
@pytest.mark.parametrize("temp", [0.05, 1.0])
def test_frequency_ladder_fed_its_first_rung_returns_the_same_bits(pairs, temp):
    # The tail and the block of the first Matsubara step at 100 nm, each
    # sampled by its own ladder or fed the k-integrals at its first rung's
    # nodes, as plate_pressures feeds them.  At 50 mK the tail climbs on
    # from the fed rung to its 129-node rung.
    gap, n = 100e-9, _N_EXPLICIT
    xi_1 = 2 * math.pi * K_B * temp / HBAR
    args = (gap, temp, pairs, DEFAULT_NUMERICS)
    nodes = []
    for lo, hi, order, ceiling in (((2 * n + 0.5) * xi_1, 60.0 * C / (2 * gap), 64, 256),
                                   ((n + 0.5) * xi_1, (2 * n + 0.5) * xi_1, 32, 32)):
        xi = lifshitz._log_nodes(lo, hi, _clenshaw_curtis(order)[0])[0]
        first = _k_integrals_adaptive(pairs, xi, gap, temp, DEFAULT_NUMERICS)
        fed = lifshitz._log_grid_integral(lo, hi, order, ceiling, args, first)
        assert repr(fed) == repr(lifshitz._log_grid_integral(lo, hi, order, ceiling, args))
        nodes.append([result[3] for result in fed])
    assert nodes == [[129 if temp == 0.05 else 65] * len(pairs), [33] * len(pairs)]


@pytest.mark.parametrize("num", [
    DEFAULT_NUMERICS, LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11)],
    ids=["default", "1e-11"])
def test_every_ladder_sample_is_nonnegative(monkeypatch, num):
    # The premise of _nested_cc's round-off floor (order + 2) eps |fine|:
    # with every sample and const >= 0, |fine| is the sum of |terms| bit for
    # bit.  Checked on every rung of every k- and frequency ladder.
    nested, samples = lifshitz._nested_cc, []

    def check(g, const):
        samples.append(g[0].size)
        assert np.all(g[0] >= 0.0) and np.all(np.asarray(const) >= 0.0)

    def nested_cc(g, sample, ceiling, tol, const=0.0):
        check(g, const)

        def checked(x):
            new = sample(x)
            check(new, 0.0)
            return new

        return nested(g, checked, ceiling, tol, const)

    monkeypatch.setattr(lifshitz, "_nested_cc", nested_cc)
    for gap in GRID_GAPS:
        for temp in GRID_TEMPS:
            for model in GRID_MODELS:
                plate_pressure(gap, temp, model, model, num)
    assert len(samples) > 50


@pytest.mark.parametrize("gap", GRID_GAPS)
@pytest.mark.parametrize("model", [PLASMA, DRUDE], ids=["plasma", "drude"])
def test_k_integrand_matches_local_formulas(model, gap):
    # Pointwise from the pole at y_lo to the cutoff, where |r_TE| falls
    # far below 1.  Both sides round t = r^2 e^{-y}, and t/(1 - t) magnifies
    # that by 1/(1 - t) <= 1 + F(y), which is ~1 away from the pole: there
    # the bound is 1e-13 relative.
    for n in (0, 1, 10, 100, 1000):
        xi = 2 * math.pi * n * K_B * 1.0 / HBAR
        y_lo = 2 * gap * xi / sc.c
        y = y_lo + np.geomspace(1e-9, 60.0 - y_lo, 200)
        vals = lifshitz._k_integrand([(model, model)], np.array([[xi]]), gap, 1.0, y[None, :])[0, 0]
        ref = np.array([_local_k_integrand(model, xi, gap)(v) for v in y])
        assert np.all(np.abs(vals - ref) <= 1e-13 * ref * (1.0 + ref / y**2)), n


# ------------------------------------------------------- batches of pairs

BATCH_CASES = [
    # At 10 nm and T = 0 the ideal pair's frequency ladder stops at 129
    # nodes and the Drude pair's climbs on to 257.
    pytest.param(10e-9, 0.0, [(IDEAL, IDEAL), (DRUDE, DRUDE)], DEFAULT_NUMERICS,
                 id="10nm-0K-ideal-drude"),
    pytest.param(100e-9, 0.5, [(TWOFLUID, TWOFLUID), (DRUDE, DRUDE)],
                 LifshitzNumerics(rel_tol_quadrature=1e-11), id="100nm-0.5K-1e-11"),
    # At 1 um and 10 K the ideal pair's Matsubara sum stops at N = 128 and
    # rides along; the Drude pair's doubles on to N = 256.
    pytest.param(1e-6, 10.0, [(IDEAL, IDEAL), (DRUDE, DRUDE)],
                 LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11),
                 id="1um-10K-1e-11-ideal-drude"),
    pytest.param(100e-9, 1.0, [(PLASMA, DRUDE), (DRUDE, DRUDE), (IDEAL, PLASMA)],
                 DEFAULT_NUMERICS, id="100nm-1K-three-pairs"),
    # At 1 um and 50 K the Drude and plasma/Drude pairs stop at 195 terms
    # and ride along; the ideal pair doubles on until its terms reach every
    # one below the y cutoff (221) and ends in the plain sum.
    pytest.param(1e-6, 50.0, [(IDEAL, IDEAL), (DRUDE, DRUDE), (PLASMA, DRUDE)],
                 LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11),
                 id="1um-50K-1e-11-plain-sum-exit"),
    # At 3 um and 40 K the first pass already reaches the cutoff (94 terms):
    # every pair ends in the plain sum.
    pytest.param(3e-6, 40.0, [(IDEAL, IDEAL), (PLASMA, PLASMA), (TWOFLUID, DRUDE)],
                 DEFAULT_NUMERICS, id="3um-40K-first-pass-plain-sum"),
]


def _fields(result):
    # Every PressureResult field as its exact text, so that equal means
    # bit for bit.
    return tuple(repr(value) for value in vars(result).values())


def _solo(gap, temp, pairs, num):
    return [_fields(plate_pressure(gap, temp, a, b, num)) for a, b in pairs]


@pytest.mark.parametrize("gap,temp,pairs,num", BATCH_CASES)
def test_batch_equals_solo(gap, temp, pairs, num):
    batch = [_fields(result) for result in plate_pressures(gap, temp, pairs, num)]
    assert batch == _solo(gap, temp, pairs, num)


@pytest.mark.parametrize("gap,temp,num,terms", [
    (10e-9, 0.0, DEFAULT_NUMERICS, (129, 257)),
    (1e-6, 10.0, LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11), (323, 579)),
], ids=["frequency-ladder", "matsubara-sum"])
def test_batch_stops_each_pair_where_it_stops_alone(gap, temp, num, terms):
    # The cases above where the stop points differ: each pair keeps its own
    # count, and the differential is the difference of solo calls.
    ideal, drude = (plate_pressure(gap, temp, m, m, num) for m in (IDEAL, DRUDE))
    assert (ideal.terms_used, drude.terms_used) == terms
    diff = differential_pressure(gap, temp, IDEAL, IDEAL, (DRUDE, DRUDE), num)
    assert repr(diff) == repr(ideal.pressure - drude.pressure)


@pytest.mark.parametrize("case,terms", [(BATCH_CASES[4], (221, 195, 195)),
                                        (BATCH_CASES[5], (94, 94, 94))],
                         ids=["1um-50K-1e-11", "3um-40K"])
def test_batch_reaches_the_plain_sum_exit(case, terms):
    # The pairs that reach the y cutoff's last term report an exact sum.
    results = plate_pressures(*case.values)
    assert tuple(r.terms_used for r in results) == terms
    assert [r.truncation_estimate == 0.0 for r in results] == [t == max(terms) for t in terms]
    assert {type(v) for r in results for v in vars(r).values()} == {float, int}


def _samples(calls):
    # k-integrand samples of the hooked calls: pairs x rows x nodes.
    return sum(len(call[0]) * call[-1].size for call in calls)


@pytest.mark.parametrize("gap,temp,pairs,extra", [
    (100e-9, 1.3, [(PLASMA, PLASMA), (DRUDE, DRUDE)], False),
    (300e-9, 1.3, [(PLASMA, PLASMA), (DRUDE, DRUDE)], False),
    (100e-9, 0.5, [(TWOFLUID, TWOFLUID), (DRUDE, DRUDE)], False),
    (10e-9, 0.0, [(IDEAL, IDEAL), (DRUDE, DRUDE)], True),
], ids=["sweep-100nm", "sweep-300nm", "cold-scan-0.5K", "10nm-0K-stop-apart"])
def test_batch_costs_its_solo_calls_unless_its_pairs_stop_apart(monkeypatch, gap, temp,
                                                                  pairs, extra):
    # Counts, not timings.  The pairs of a bundled-sweep cell and of a
    # cold-scan point stop on the same rungs, so riding along adds no
    # sample; at 10 nm and T = 0 the ideal pair rides along to the Drude
    # pair's 257-node frequency rung.
    calls = _hook_k_integrand(monkeypatch)
    plate_pressures(gap, temp, pairs)
    batch, solo = _samples(calls), 0
    for a, b in pairs:
        calls.clear()
        plate_pressure(gap, temp, a, b)
        solo += _samples(calls)
    assert batch > solo if extra else batch == solo


def test_batches_from_a_thread_pool_equal_solo():
    # The workspace is per thread: four threads on two or more cores, the
    # switch interval shortened so that they interleave inside calls.
    expected = [_solo(*case.values) for case in BATCH_CASES]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(plate_pressures, *case.values)
                       for _ in range(3) for case in BATCH_CASES]
            results = [[_fields(r) for r in future.result(timeout=120)] for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected * 3


def test_differential_evaluates_one_batch(monkeypatch):
    # Counts, not timings: a differential at 100 nm and 1 K evaluates the
    # one 228-row grid of a plate_pressure call for both pairs at once, and
    # each distinct material once on it.
    calls = _hook_k_integrand(monkeypatch)
    fresnel, responses = lifshitz._fresnel, []

    def hooked_fresnel(model, *args):
        responses.append(model)
        return fresnel(model, *args)

    monkeypatch.setattr(lifshitz, "_fresnel", hooked_fresnel)
    diff = differential_pressure(100e-9, 1.0, PLASMA, DRUDE, (DRUDE, DRUDE))
    assert [call[-1].shape[0] for call in calls] == [2 * _N_EXPLICIT + 2 + 65 + 33]
    assert [len(call[0]) for call in calls] == [2]
    assert responses == [PLASMA, DRUDE]
    assert diff == (plate_pressure(100e-9, 1.0, PLASMA, DRUDE).pressure
                    - plate_pressure(100e-9, 1.0, DRUDE, DRUDE).pressure)


@pytest.mark.parametrize("temp", [0.9636, 1.05])
def test_same_responses_differ_by_zero_without_evaluation(monkeypatch, temp):
    # Above t_c the two-fluid film responds as its normal state, so the
    # scan's hot points cost nothing, in either order of the pair.
    calls = _hook_k_integrand(monkeypatch)
    assert differential_pressure(100e-9, temp, TWOFLUID, TWOFLUID, (DRUDE, DRUDE)) == 0.0
    assert differential_pressure(100e-9, temp, TWOFLUID, DRUDE, (DRUDE, TWOFLUID)) == 0.0
    assert calls == []
    with pytest.raises(DomainError):
        differential_pressure(-1e-9, temp, TWOFLUID, TWOFLUID, (DRUDE, DRUDE))


@pytest.mark.parametrize("gap", [1e-18, 1e-80])
def test_same_responses_refuse_the_gaps_plate_pressure_refuses(monkeypatch, gap):
    # Above t_c the pairs respond alike, and the differential used to be a
    # silent 0.0 at gaps where each pair's response has vanished from eps.
    calls = _hook_k_integrand(monkeypatch)
    with pytest.raises(DomainError, match=f"vanishes at gap {gap!r} m"):
        plate_pressure(gap, 1.05, TWOFLUID, TWOFLUID)
    with pytest.raises(DomainError, match=f"vanishes at gap {gap!r} m"):
        differential_pressure(gap, 1.05, TWOFLUID, TWOFLUID, (DRUDE, DRUDE))
    assert calls == []


def _numpy_bytes_held():
    # Bytes of NumPy array data allocated since tracing began and still held.
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(trace.size for trace in snapshot.traces)


def test_default_two_pair_call_keeps_one_228_row_block_per_array():
    # What a fresh thread keeps after a default differential at 100 nm and
    # 1 K with two responses: one array of 228 rows x 130 nodes each for
    # kappa, kappa_m and r_TM scratch (3), r_TE and r_TM of each response (4),
    # each pair's integrand (2) and y (1), and of 228 x 129 for dy (1) and
    # the ladder's weighted terms of both pairs (2).  The rule cache is
    # filled first.
    differential_pressure(100e-9, 1.0, PLASMA, PLASMA, (DRUDE, DRUDE))
    held = []

    def run():
        differential_pressure(100e-9, 1.0, PLASMA, PLASMA, (DRUDE, DRUDE))
        held.append(_numpy_bytes_held())

    tracemalloc.start()
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    finally:
        tracemalloc.stop()
    assert held == [8 * 228 * (130 * (3 + 4 + 2 + 1) + 129 * (1 + 2))]


def test_extreme_call_keeps_no_more_memory_than_a_default_call():
    # The workspace keeps its arrays for the next call, but the 1,024-row
    # blocks of a 1e-300 call at 1 um must not stay behind.  A fresh thread
    # starts with an empty workspace; the rule cache is filled first.
    extreme = LifshitzNumerics(rel_tol_quadrature=1e-300, rel_tol_series=1e-300)
    plate_pressure(1e-6, 4.0, DRUDE, DRUDE, extreme)
    held = []

    def run():
        plate_pressure(100e-9, 1.0, DRUDE, DRUDE)
        held.append(_numpy_bytes_held())
        plate_pressure(1e-6, 4.0, DRUDE, DRUDE, extreme)
        held.append(_numpy_bytes_held())

    tracemalloc.start()
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    finally:
        tracemalloc.stop()
    assert not thread.is_alive()
    assert len(held) == 2
    assert 0 < held[1] <= held[0]
