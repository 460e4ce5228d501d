"""Exact properties of the Lifshitz engine that any refactor must keep.

Scaling covariance: the pressure has no scale of its own, so scaling the
gap by lam and every frequency and temperature (omega_p, gamma, T, T_c) by
1/lam leaves lam^4 P unchanged up to the rounding of the scaled inputs.
Branch continuity: below ~14 nK at 100 nm every explicit Matsubara term
lies under the frequency grid's lower end, and the engine switches to the
T = 0 integral; P does not jump there by more than its bars.
Approach to T_c: the superconducting films' excess pressure over their
normal state vanishes linearly in the superfluid fraction f_s as T -> T_c,
so dP / f_s converges to a finite limit.
Ordering and monotonicity: more reflectivity attracts more, so at any
(gap, T) P(ideal) >= P(plasma) >= P(two-fluid) >= P(Drude), and P falls
as the gap grows.
Rung switches: as T moves, a frequency ladder stops one rung earlier or
later and terms_used jumps; P does not, beyond round-off.
"""

import math
import random

import numpy as np
import pytest

from casimirchip import (
    Drude,
    IdealMetal,
    Plasma,
    SuperconductorTwoFluid,
    differential_pressure,
    example_config_path,
    load_device_config,
    plate_pressure,
    plate_pressures,
    superfluid_fraction,
)
from casimirchip.constants import C, HBAR, K_B
from casimirchip.lifshitz import _N_EXPLICIT

OMEGA_P = 1.83e16
GAMMA = 7.6e13
T_C = 0.9
SCALES = (0.5, 2.0, 3.0, 10.0)


def _models(scale):
    # The four kinds of response, every frequency and T_c divided by scale.
    return {
        "ideal": IdealMetal(),
        "plasma": Plasma(OMEGA_P / scale),
        "drude": Drude(OMEGA_P / scale, GAMMA / scale),
        "two-fluid": SuperconductorTwoFluid(OMEGA_P / scale, GAMMA / scale, T_C / scale),
    }


def _points():
    # T = 0 at 100 nm, and seeded (gap, T) draws with gap in [50 nm, 1 um]
    # and T in [0.05, 0.85] K, below T_c so that the superfluid fraction
    # of the two-fluid film depends on T / T_c.
    rng = np.random.default_rng(19)
    gaps = 10.0 ** rng.uniform(math.log10(50e-9), -6.0, 4)
    temps = rng.uniform(0.05, 0.85, 4)
    return [(100e-9, 0.0)] + [(float(g), float(t)) for g, t in zip(gaps, temps)]


@pytest.mark.parametrize("kind", ["ideal", "plasma", "drude", "two-fluid"])
@pytest.mark.parametrize("gap,temp", _points())
def test_pressure_is_covariant_under_scaling(kind, gap, temp):
    # 80 cases; the worst measured 6 ulps (1.3e-15 relative).  The bound is
    # 8 ulps, about a millionth of the bars (~3e-9 relative).
    model = _models(1.0)[kind]
    base = plate_pressure(gap, temp, model, model).pressure
    for scale in SCALES:
        scaled = _models(scale)[kind]
        value = scale**4 * plate_pressure(scale * gap, temp / scale, scaled, scaled).pressure
        assert abs(value - base) <= 8 * np.finfo(float).eps * base, (scale, value, base)


@pytest.mark.parametrize("kind", ["ideal", "plasma", "drude", "two-fluid"])
def test_pressure_is_continuous_across_the_switch_to_the_integral(kind):
    # The switch lies where the last explicit term, (2N + 1) xi_1, reaches
    # xi_min = 1e-9 c / 2a.  Just below it the T = 0 integral runs, just
    # above it the Matsubara sum; the two differ by less than their bars.
    gap = 100e-9
    xi_min = 1e-9 * C / (2.0 * gap)
    switch = xi_min * HBAR / ((2 * _N_EXPLICIT + 1) * 2.0 * math.pi * K_B)
    assert 1e-8 < switch < 2e-8
    model = _models(1.0)[kind]
    below, above = (plate_pressure(gap, t, model, model)
                    for t in (switch * (1 - 1e-9), switch * (1 + 1e-9)))
    assert below.terms_used != above.terms_used
    bars = sum(r.truncation_estimate + r.quadrature_estimate for r in (below, above))
    assert 0.0 < abs(below.pressure - above.pressure) <= bars


@pytest.mark.parametrize("gap,limit,first", [(100e-9, 0.13870, 0), (1e-6, 8.64e-5, 1)],
                         ids=["100nm", "1um"])
def test_excess_pressure_over_superfluid_fraction_converges_at_tc(gap, limit, first):
    # dP / f_s of al_sc/al_sc against al_drude/al_drude at 1 - T/T_c = 1e-4
    # ... 1e-9.  Each step changes it by less than the step before; the
    # steps shrink about sqrt(10)-fold a decade, so the rest of the
    # sequence adds less than the last step, and the last value lies within
    # it of the limit.  At 1 um the penetration depth at 1e-4 (~0.8 um) is
    # still near the gap, and the step from 1e-4 to 1e-5 is the smaller:
    # the shrinking starts one step later there.  Values, not bits.
    materials = load_device_config(example_config_path()).materials
    sc, normal = materials["al_sc"], materials["al_drude"]
    ratios = []
    for decade in range(4, 10):
        temp = sc.t_c * (1.0 - 10.0**-decade)
        delta = differential_pressure(gap, temp, sc, sc, (normal, normal))
        ratios.append(delta / superfluid_fraction(temp, sc.t_c))
    steps = np.abs(np.diff(ratios))[first:]
    assert all(later < step for step, later in zip(steps, steps[1:])), ratios
    assert abs(ratios[-1] - limit) < steps[-1], ratios


def _seeded_draws():
    # 24 draws of (gap, T): the gap log-uniform over 50 nm - 1 um, and T in
    # turn 0, uniform below T_c and uniform below 10 K.
    rng = random.Random(44)
    draws = []
    for i in range(24):
        gap = math.exp(rng.uniform(math.log(50e-9), math.log(1e-6)))
        temp = (0.0, rng.uniform(0.0, T_C), rng.uniform(0.0, 10.0))[i % 3]
        draws.append((gap, temp))
    return draws


def test_ordering_and_monotonicity_on_seeded_draws():
    # Ideal >= plasma >= two-fluid >= Drude within the two results' summed
    # bars (the two-fluid film equals plasma at T = 0 and Drude above T_c),
    # and P(1.1 a) < P(a) for every model.  Every violation is collected,
    # so a failure shows how many there are.
    models = [_models(1.0)[kind] for kind in ("ideal", "plasma", "two-fluid", "drude")]
    pairs = [(m, m) for m in models]
    violations = []
    for gap, temp in _seeded_draws():
        near, far = (plate_pressures(g, temp, pairs) for g in (gap, 1.1 * gap))
        for stronger, weaker in zip(near, near[1:]):
            bars = sum(r.truncation_estimate + r.quadrature_estimate for r in (stronger, weaker))
            if stronger.pressure < weaker.pressure - bars:
                violations.append(("order", gap, temp, stronger, weaker))
        for model, at_gap, further in zip(models, near, far):
            if not further.pressure < at_gap.pressure:
                violations.append(("gap", gap, temp, model, at_gap, further))
    assert violations == []


def _rung_switch(pair, lo, hi):
    # The results on the two sides of a change of terms_used between lo and
    # hi, bisected until the two temperatures lie within 1e-12 T.  P's own
    # T-dependence is steepest for the two-fluid film, whose superfluid
    # fraction moves with T: |dlnP/dlnT| < 1e-3 below 1 K at 100 nm, so P
    # moves by < 1e-15 P over that width, a millionth of its bars (~1e-9 P).
    below, above = (plate_pressure(100e-9, t, *pair) for t in (lo, hi))
    while hi - lo > 1e-12 * lo:
        mid = 0.5 * (lo + hi)
        result = plate_pressure(100e-9, mid, *pair)
        if result.terms_used == below.terms_used:
            lo, below = mid, result
        else:
            hi, above = mid, result
    return below, above


def test_pressure_is_continuous_across_frequency_rung_switches():
    # A geometric T scan at 100 nm finds each change of terms_used, and
    # bisection narrows it.  The two sides agree within 1e-3 of the smaller
    # bar; the measured jumps are round-off, a few millionths of a bar.
    pairs = [(m, m) for m in (_models(1.0)[kind] for kind in ("drude", "plasma", "two-fluid"))]
    temps = np.geomspace(0.05, 10.0, 60).tolist()
    scan = [plate_pressures(100e-9, temp, pairs) for temp in temps]
    jumps = []
    for i, pair in enumerate(pairs):
        for j in range(1, len(temps)):
            if scan[j - 1][i].terms_used != scan[j][i].terms_used:
                below, above = _rung_switch(pair, temps[j - 1], temps[j])
                bar = min(r.truncation_estimate + r.quadrature_estimate for r in (below, above))
                jumps.append((abs(above.pressure - below.pressure) / bar, i, temps[j - 1]))
    assert jumps
    assert all(jump <= 1e-3 for jump, *_ in jumps), jumps
