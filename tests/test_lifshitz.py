import math

import numpy as np
import pytest
import scipy.constants as sc
from scipy.integrate import quad

from casimirchip import (
    DEFAULT_NUMERICS,
    BeamFaceGeometry,
    ConvergenceError,
    DomainError,
    Drude,
    IdealMetal,
    LifshitzNumerics,
    Plasma,
    SuperconductorTwoFluid,
    beam_pfa_pressure,
    differential_pressure,
    ideal_pressure_closed_form,
    matsubara_frequency,
    plate_pressure,
    reflection_coefficients,
)
from casimirchip import lifshitz
from casimirchip.constants import HBAR
from casimirchip.lifshitz import (
    _N_EXPLICIT,
    _k_integrals,
    _k_integrals_adaptive,
    _leggauss,
)

OMEGA_P = 1.83e16
GAMMA = 7.6e13
ZETA3 = 1.2020569031595943

IDEAL = IdealMetal()
PLASMA = Plasma(OMEGA_P)
DRUDE = Drude(OMEGA_P, GAMMA)
TWOFLUID = SuperconductorTwoFluid(OMEGA_P, GAMMA, 0.9)


# ---------------------------------------------------------------- reflection

def test_ideal_metal_reflection_everywhere():
    for xi in (0.0, 1e10, 1e14, 1e17):
        for k in (1e3, 1e6, 1e8):
            assert reflection_coefficients(IDEAL, xi, k) == (-1.0, 1.0)


def test_drude_te_zero_mode_vanishes():
    for k in (1e4, 1e6, 1e8):
        r_te, r_tm = reflection_coefficients(DRUDE, 0.0, k)
        assert r_te == 0.0
        assert r_tm == 1.0


def test_plasma_zero_frequency_te_limit():
    k = 1e7
    r_te, r_tm = reflection_coefficients(PLASMA, 0.0, k)
    s = math.sqrt(k**2 + OMEGA_P**2 / sc.c**2)
    assert r_te == pytest.approx((k - s) / (k + s), rel=1e-12)
    assert r_tm == 1.0


def test_two_fluid_zero_frequency_weighted_by_superfluid_fraction():
    k = 1e7
    f_s = 1.0 - (0.45 / 0.9) ** 4
    s = math.sqrt(k**2 + f_s * OMEGA_P**2 / sc.c**2)
    r_te, _ = reflection_coefficients(TWOFLUID, 0.0, k, temperature=0.45)
    assert r_te == pytest.approx((k - s) / (k + s), rel=1e-12)
    # At and above t_c the TE zero mode is gone, as for Drude.
    r_te_hot, r_tm_hot = reflection_coefficients(TWOFLUID, 0.0, k, temperature=0.9)
    assert r_te_hot == 0.0
    assert r_tm_hot == 1.0


def test_vacuum_limit_no_reflection():
    # eps -> 1 (omega_p much below xi) drives both coefficients to zero.
    weak = Plasma(1e6)
    r_te, r_tm = reflection_coefficients(weak, 1e15, 1e6)
    assert abs(r_te) < 1e-12
    assert abs(r_tm) < 1e-12


def test_reflection_magnitudes_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        xi = 10 ** rng.uniform(8, 18)
        k = 10 ** rng.uniform(2, 9)
        for model in (IDEAL, PLASMA, DRUDE, TWOFLUID):
            r_te, r_tm = reflection_coefficients(model, xi, k, temperature=0.5)
            assert abs(r_te) <= 1.0 + 1e-12
            assert abs(r_tm) <= 1.0 + 1e-12


def test_reflection_rejects_bad_k():
    with pytest.raises(DomainError):
        reflection_coefficients(IDEAL, 1e12, 0.0)
    with pytest.raises(DomainError):
        reflection_coefficients(IDEAL, 1e12, -1.0)


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
    term0, _ = _k_integrals_adaptive(IDEAL, IDEAL, 0.0, a, temp, num)
    classical = 0.5 * sc.Boltzmann * temp / math.pi * float(term0[0])
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


def test_convergence_error_carries_partial():
    num = LifshitzNumerics(max_matsubara_terms=10)
    with pytest.raises(ConvergenceError) as excinfo:
        plate_pressure(100e-9, 1.0, IDEAL, IDEAL, num)
    partial = excinfo.value.partial
    assert partial is not None
    assert 0.0 < partial.pressure < 20.0
    assert math.isinf(partial.truncation_estimate)


def test_pressure_rejects_bad_arguments():
    with pytest.raises(DomainError):
        plate_pressure(0.0, 1.0, IDEAL, IDEAL)
    with pytest.raises(DomainError):
        plate_pressure(100e-9, -1.0, IDEAL, IDEAL)


def test_numerics_validation():
    with pytest.raises(DomainError):
        LifshitzNumerics(rel_tol_series=1e-2)
    with pytest.raises(DomainError):
        LifshitzNumerics(max_matsubara_terms=5)


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
    val = float(_k_integrals(IDEAL, IDEAL, 0.0, a, 0.0, 256)[0])
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
    val = float(_k_integrals(DRUDE, DRUDE, xi, a, temp, 256)[0])
    assert val == pytest.approx(brute, rel=1e-9)


# ----------------------------------------------------------------------- PFA

def make_face(gap=100e-9, jitter=10e-9):
    return BeamFaceGeometry(face_height=350e-9, face_length=220e-6,
                            gap=gap, parallelism_jitter=jitter)


def test_pfa_degenerate_jitter_matches_plate():
    face = make_face(jitter=0.0)
    res = beam_pfa_pressure(face, 1.0, (DRUDE, DRUDE))
    plain = plate_pressure(100e-9, 1.0, DRUDE, DRUDE)
    assert res.pressure == plain.pressure


def test_pfa_jitter_raises_pressure_by_convexity():
    face = make_face(jitter=10e-9)
    res = beam_pfa_pressure(face, 1.0, (DRUDE, DRUDE))
    plain = plate_pressure(100e-9, 1.0, DRUDE, DRUDE).pressure
    assert res.pressure > plain
    # 3-point Gauss-Legendre oracle over the uniform gap distribution.
    nodes, weights = np.polynomial.legendre.leggauss(3)
    oracle = sum(
        0.5 * w * plate_pressure(100e-9 + x * 10e-9, 1.0, DRUDE, DRUDE).pressure
        for x, w in zip(nodes, weights)
    )
    assert res.pressure == pytest.approx(oracle, rel=2e-3)


def test_pfa_eta_scales_linearly():
    face = make_face(jitter=5e-9)
    full = beam_pfa_pressure(face, 1.0, (DRUDE, DRUDE), eta=1.0)
    tenth = beam_pfa_pressure(face, 1.0, (DRUDE, DRUDE), eta=0.1)
    assert tenth.pressure == pytest.approx(0.1 * full.pressure, rel=1e-12)


def test_pfa_warns_when_gap_exceeds_face_height():
    face = BeamFaceGeometry(face_height=350e-9, face_length=220e-6,
                            gap=400e-9, parallelism_jitter=0.0)
    with pytest.warns(UserWarning, match="PFA validity"):
        beam_pfa_pressure(face, 1.0, (DRUDE, DRUDE))


def test_pfa_rejects_bad_eta():
    with pytest.raises(DomainError):
        beam_pfa_pressure(make_face(), 1.0, (DRUDE, DRUDE), eta=0.0)


def test_face_geometry_validation():
    with pytest.raises(DomainError):
        BeamFaceGeometry(350e-9, 220e-6, gap=4e-9, parallelism_jitter=0.0)
    with pytest.raises(DomainError):
        BeamFaceGeometry(350e-9, 220e-6, gap=100e-9, parallelism_jitter=150e-9)


# ---------------------------------------------------------- Gauss-Legendre

@pytest.mark.parametrize("order", [1, 2, 3, 8, 9, 32, 63, 64])
def test_leggauss_matches_numpy(order):
    x, w = _leggauss(order)
    x_ref, w_ref = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(x - x_ref)) <= 1e-14
    assert np.max(np.abs(w - w_ref)) <= 1e-14


@pytest.mark.parametrize("order", [9, 64, 1024])
def test_leggauss_exact_on_even_monomials(order):
    # An order-n rule integrates every polynomial of degree < 2n exactly;
    # the degree-0 case is the weights summing to 2.
    x, w = _leggauss(order)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    for k in range(order):
        assert np.sum(w * x ** (2 * k)) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)


# ------------------------------------------------------ frequency-rule bars

def _log_grid_integral_800(xi_lo, args):
    # Reference for the ln-xi frequency integral: one fixed 800-node rule
    # from numpy, no node doubling and no rule error of its own.
    gap, temperature, mat_a, mat_b, num = args
    u_lo, u_hi = math.log(xi_lo), math.log(60.0 * sc.c / (2.0 * gap))
    x, w = np.polynomial.legendre.leggauss(800)
    half = 0.5 * (u_hi - u_lo)
    xi = np.exp(u_lo + (x + 1.0) * half)
    vals, errs = _k_integrals_adaptive(mat_a, mat_b, xi, gap, temperature, num)
    return float(np.sum(w * xi * vals) * half), float(np.sum(w * xi * errs) * half), 0.0, 800


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
    # t_zero_nodes = 8 stops the doubling at 8 -> 16 nodes, far from
    # converged.  The bar carries |16-node - 8-node| rule, the coarser
    # rule's error; the returned finer rule sits well inside it.
    num = LifshitzNumerics(t_zero_nodes=8)
    res = plate_pressure(100e-9, temp, DRUDE, DRUDE, num)
    p_800 = _pressure_800(monkeypatch, 100e-9, temp, DRUDE, num)
    assert abs(res.pressure - p_800) <= 0.5 * (res.truncation_estimate + res.quadrature_estimate)


@pytest.mark.parametrize("gap", [10e-9, 100e-9, 1e-6])
@pytest.mark.parametrize("model", [PLASMA, DRUDE, TWOFLUID], ids=["plasma", "drude", "two-fluid"])
def test_default_cost_in_k_integral_rows(model, gap):
    # Counts, not timings: the frequency rule stops at the first converged
    # rung, so the finer rule stays at or below 128 nodes on this grid.
    for temp in (0.05, 4.0):
        assert plate_pressure(gap, temp, model, model).terms_used <= 2 * _N_EXPLICIT + 2 + 128
    assert plate_pressure(gap, 0.0, model, model).terms_used <= 256


def test_binding_frequency_ceiling_stops_the_n_doubling():
    # At t_zero_nodes = 8 the two tail rules behind P(N) and P(2N) are both
    # unconverged, and their difference is frequency-rule error, not
    # truncation: N must stay at 64 and the bars must still cover the
    # converged value.
    num = LifshitzNumerics(t_zero_nodes=8)
    res = plate_pressure(100e-9, 0.5, DRUDE, DRUDE, num)
    ref = plate_pressure(100e-9, 0.5, DRUDE, DRUDE, LifshitzNumerics(t_zero_nodes=200))
    assert res.terms_used <= 2 * _N_EXPLICIT + 2 + 16
    assert abs(res.pressure - ref.pressure) <= res.truncation_estimate + res.quadrature_estimate


def _two_tail_truncation(gap, temp, model, num, terms_used):
    # |P(N) - P(2N)| from two full Euler-Maclaurin tails at (N+1/2) xi_1 and
    # (2N+1/2) xi_1, with N read off terms_used = 2N + 2 + tail nodes, and
    # the tolerance the two tails' rule and k errors allow.
    args = (gap, temp, model, model, num)
    xi_1 = matsubara_frequency(1, temp)
    n = _N_EXPLICIT
    while True:
        upper = lifshitz._log_grid_integral((2 * n + 0.5) * xi_1, args)
        if 2 * n + 2 + upper[3] == terms_used:
            break
        assert n < 4 * _N_EXPLICIT
        n *= 2
    lower = lifshitz._log_grid_integral((n + 0.5) * xi_1, args)
    f, err = _k_integrals_adaptive(model, model, np.arange(2 * n + 2) * xi_1, gap, temp, num)
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
    # reaches ~1e-15 at 128 nodes on these rows; a uniform rule in y is
    # still ~5e-7 off at 128 and ~8e-8 at 256.
    for n in (0, 1, 10, 100, 1000):
        xi = matsubara_frequency(n, 1.0)
        ref, _ = quad(_local_k_integrand(model, xi, gap), 2 * gap * xi / sc.c, 60.0,
                      epsabs=0.0, epsrel=1e-13, limit=500)
        ref /= 8 * gap**3
        val = float(_k_integrals(model, model, xi, gap, 1.0, 128)[0])
        assert val == pytest.approx(ref, rel=1e-11, abs=0.0)


def _record_k_ladders(monkeypatch, num):
    # Runs plate_pressure over the grid and returns, per k-ladder, the last
    # order evaluated and the rows' error in units of tol * scale.
    ladders, last_order = [], [0]
    inner, adaptive = lifshitz._k_integrals, lifshitz._k_integrals_adaptive

    def k_integrals(*args):
        last_order[0] = args[-1]
        return inner(*args)

    def k_integrals_adaptive(*args):
        cur, err = adaptive(*args)
        scale = np.maximum(np.abs(cur), np.max(np.abs(cur), initial=0.0) * 1e-12)
        ladders.append((last_order[0], float(np.max(err / (num.rel_tol_quadrature * scale)))))
        return cur, err

    monkeypatch.setattr(lifshitz, "_k_integrals", k_integrals)
    monkeypatch.setattr(lifshitz, "_k_integrals_adaptive", k_integrals_adaptive)
    for gap in GRID_GAPS:
        for temp in GRID_TEMPS:
            for model in GRID_MODELS:
                plate_pressure(gap, temp, model, model, num)
    return ladders


def test_k_ladders_converge_below_the_cap_at_tight_tolerance(monkeypatch):
    # At 1e-11 the ladder must converge before it reaches _GL_ORDER_MAX:
    # a row returned at the cap with its error above tolerance is a silent
    # cap hit.
    num = LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11)
    ladders = _record_k_ladders(monkeypatch, num)
    assert len(ladders) > 100
    assert max(excess for _, excess in ladders) <= 1.0


def test_default_k_ladders_end_by_order_128(monkeypatch):
    # Counts, not timings: at default numerics every k-ladder stops at the
    # 64 -> 128 rung or before.
    ladders = _record_k_ladders(monkeypatch, DEFAULT_NUMERICS)
    assert len(ladders) > 100
    assert max(order for order, _ in ladders) <= 128


@pytest.mark.parametrize("model", [PLASMA, DRUDE], ids=["plasma", "drude"])
def test_k_integrand_evaluations_per_call(monkeypatch, model):
    # Counts, not timings: no k-rule of order 32 is evaluated, and a call at
    # 100 nm stays within the evaluation counts of one tail per N-rung.
    inner, orders, evaluations = lifshitz._k_integrals, set(), [0]

    def k_integrals(mat_a, mat_b, xi_col, gap, temperature, order):
        orders.add(order)
        evaluations[0] += np.size(xi_col) * (order + 1)
        return inner(mat_a, mat_b, xi_col, gap, temperature, order)

    monkeypatch.setattr(lifshitz, "_k_integrals", k_integrals)
    for temp, budget in ((1.0, 48_500), (0.0, 43_521)):
        evaluations[0] = 0
        plate_pressure(100e-9, temp, model, model)
        assert evaluations[0] <= budget
    assert min(orders) == 64
