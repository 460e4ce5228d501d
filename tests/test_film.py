import math

import numpy as np
import pytest

from casimirchip import (
    DomainError,
    TcResult,
    TransitionNotFoundError,
    coherence_length,
    conductivity_from_four_point,
    extract_tc,
    ingest_rt_table,
    mean_free_path,
    penetration_depth,
)
from casimirchip.records import fields

XI0 = 1600e-9
LAMBDA_L = 16e-9
ELL_QUOTED = 10.8e-9
RHO_ELL = 4e-16


# ------------------------------------------------------------- length scales

def test_conductivity_reproduces_typical_value():
    sigma = conductivity_from_four_point(220e-6, 0.1192e-12, 45.0)
    assert sigma == pytest.approx(4.1e7, rel=1e-3)
    assert conductivity_from_four_point(1.0, 1.0, 1.0) == 1.0
    assert conductivity_from_four_point(220e-6, 0.1192e-12, 90.0) == pytest.approx(
        sigma / 2
    )


def test_conductivity_rejects_nonpositive():
    with pytest.raises(DomainError):
        conductivity_from_four_point(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        conductivity_from_four_point(1.0, 1.0, -2.0)


def test_mean_free_path_product():
    # sigma * rho_ell with the measured 4.1e7 gives 16.4 nm, NOT the quoted
    # 10.8 nm: the two quoted inputs are mutually inconsistent and both
    # values are surfaced downstream.
    ell = mean_free_path(4.1e7, RHO_ELL)
    assert ell == pytest.approx(16.4e-9, rel=1e-3)
    assert mean_free_path(8.2e7, RHO_ELL) == pytest.approx(2 * ell)
    with pytest.raises(DomainError):
        mean_free_path(4.1e7, 0.0)


def test_coherence_length_values():
    approx = coherence_length(XI0, ELL_QUOTED, mode="approx")
    assert approx == pytest.approx(131.5e-9, rel=1e-3)
    exact_t0 = coherence_length(XI0, ELL_QUOTED, mode="exact")
    assert exact_t0 == pytest.approx(0.85 * approx, rel=1e-12)


def test_length_scales_reject_unknown_mode():
    with pytest.raises(DomainError, match="mode must be"):
        coherence_length(XI0, ELL_QUOTED, mode="bogus")
    with pytest.raises(DomainError, match="mode must be"):
        penetration_depth(LAMBDA_L, XI0, ELL_QUOTED, mode="bogus")


def test_penetration_depth_values():
    exact_t0 = penetration_depth(LAMBDA_L, XI0, ELL_QUOTED, mode="exact")
    assert exact_t0 == pytest.approx(120.7e-9, rel=1e-3)
    approx = penetration_depth(LAMBDA_L, XI0, ELL_QUOTED, mode="approx")
    assert approx == pytest.approx(194.7e-9, rel=1e-3)
    # Clean-limit boundary: ell = xi0 collapses the approx form to lambda_L.
    assert penetration_depth(LAMBDA_L, XI0, XI0, mode="approx") == pytest.approx(
        LAMBDA_L
    )


# --------------------------------------------------------------- ingestion

def rt_csv(points, header="temperature_K,resistance_ohm", comments=()):
    lines = list(comments) + [header]
    lines += [f"{t},{r}" for t, r in points]
    return "\n".join(lines) + "\n"


def test_ingest_round_trip():
    points = [(0.1 * i, 45.0) for i in range(1, 13)]
    curve = ingest_rt_table(rt_csv(points))
    assert len(curve) == len(points)
    assert curve.temperature == tuple(t for t, _ in points)


def test_ingest_sorts_rows():
    points = [(1.2, 45.0), (0.5, 1.0), (0.9, 20.0), (1.0, 44.0)]
    curve = ingest_rt_table(rt_csv(points))
    assert curve.temperature == (0.5, 0.9, 1.0, 1.2)
    assert curve.resistance == (1.0, 20.0, 44.0, 45.0)


def test_ingest_averages_duplicates_with_warning():
    points = [(0.5, 1.0), (0.7, 10.0), (0.7, 12.0), (0.9, 44.0)]
    with pytest.warns(UserWarning, match="averaged 1 duplicate"):
        curve = ingest_rt_table(rt_csv(points))
    assert curve.resistance[1] == pytest.approx(11.0)


def test_ingest_skips_comment_lines_and_crlf():
    points = [(0.5, 1.0), (0.9, 45.0)]
    text = rt_csv(
        points,
        comments=["# current_A = 1e-6", "#four-point, 300 us pulses", "  # indented"],
    ).replace("\n", "\r\n")
    assert ingest_rt_table(text.encode("utf-8")) == ingest_rt_table(rt_csv(points))


def test_ingest_skips_a_byte_order_mark():
    points = [(0.5, 1.0), (0.9, 45.0)]
    text = rt_csv(points)
    assert ingest_rt_table(b"\xef\xbb\xbf" + text.encode("utf-8")) == ingest_rt_table(text)
    # A file read as "utf-8" keeps the mark as U+FEFF in its text.
    assert ingest_rt_table("\ufeff" + text) == ingest_rt_table(text)


def test_ingest_reports_bad_rows_with_line_numbers():
    text = "temperature_K,resistance_ohm\n0.5,1.0\nnope,45\n0.9\n"
    with pytest.raises(DomainError) as excinfo:
        ingest_rt_table(text)
    message = str(excinfo.value)
    assert "line 3" in message and "line 4" in message


@pytest.mark.parametrize("text, message", [
    ("temperature_K,resistance_ohm\n0.5,1.0\n0.9,-1\n",
     "line 3: non-finite or negative value in '0.9,-1'"),
    ("temperature_K,resistance_ohm\n# no rows yet\n", "contains no data rows"),
], ids=["negative-resistance", "header-only"])
def test_ingest_rejects_tables_without_usable_rows(text, message):
    with pytest.raises(DomainError, match=message):
        ingest_rt_table(text)


def test_ingest_rejects_wrong_header_and_empty():
    with pytest.raises(DomainError):
        ingest_rt_table("T,R\n0.5,1\n")
    with pytest.raises(DomainError):
        ingest_rt_table("")


# ------------------------------------------------------------- Tc extraction

def logistic_curve(t_c=0.95, width=0.01, r_n=45.0, lo=0.7, hi=1.2, n=120):
    t = np.linspace(lo, hi, n)
    r = r_n / (1.0 + np.exp(-(t - t_c) / width))
    return t, r


def curve_from_arrays(t, r):
    return ingest_rt_table(rt_csv(list(zip(t, r))))


def two_step_curve(n=160):
    # Staircase: 45 ohm normal state, 20 ohm shelf from a better-anchored
    # film section going superconducting at 1.2 K, 1 ohm residual once the
    # device wires follow at 0.9 K.
    t = np.linspace(0.6, 1.6, n)
    sigmoid = lambda x: 1.0 / (1.0 + np.exp(-x))
    r = 1.0 + 19.0 * sigmoid((t - 0.9) / 0.003) + 25.0 * sigmoid((t - 1.2) / 0.003)
    return t, r


def test_logistic_curve_recovers_midpoint():
    result = extract_tc(curve_from_arrays(*logistic_curve()))
    assert result.t_c == pytest.approx(0.95, abs=0.005)
    assert result.r_normal == pytest.approx(45.0, rel=0.02)
    assert not result.multi_step
    assert len(result.steps) == 1
    # 10-90 logistic width: 2 ln(9) * 0.01 K.
    assert result.transition_width == pytest.approx(2 * math.log(9) * 0.01, rel=0.1)


def test_constant_curve_has_no_transition():
    t = np.linspace(0.5, 1.5, 30)
    with pytest.raises(TransitionNotFoundError):
        extract_tc(curve_from_arrays(t, np.full_like(t, 45.0)))


def test_two_step_curve_finds_both_steps():
    result = extract_tc(curve_from_arrays(*two_step_curve()))
    assert len(result.steps) == 2
    assert result.multi_step
    t1, before1, after1 = result.steps[0]
    t2, before2, after2 = result.steps[1]
    assert t1 == pytest.approx(1.2, abs=0.02)
    assert before1 == pytest.approx(45.0, rel=0.02)
    assert after1 == pytest.approx(20.0, rel=0.05)
    assert t2 == pytest.approx(0.9, abs=0.02)
    assert after2 == pytest.approx(1.0, abs=0.5)
    float_fields = [name for name in fields(TcResult)
                    if TcResult.__annotations__[name] == "float"]
    assert len(float_fields) == 5
    assert all(type(getattr(result, name)) is float for name in float_fields)
    assert all(type(value) is float for step in result.steps for value in step)
    # Device T_c comes from the final step into the residual state; the
    # naive global 50% crossing sits at the hotter parasitic step and is
    # reported alongside.
    assert result.t_c == pytest.approx(0.9, abs=0.02)
    assert result.threshold_crossing == pytest.approx(1.2, abs=0.02)
    assert result.r_residual < result.r_normal


def test_extract_tc_invariant_under_resistance_scaling():
    t, r = logistic_curve()
    base = extract_tc(curve_from_arrays(t, r))
    scaled = extract_tc(curve_from_arrays(t, 7.5 * r))
    assert scaled.t_c == pytest.approx(base.t_c, rel=1e-9)
    assert scaled.transition_width == pytest.approx(base.transition_width, rel=1e-9)


def test_extract_tc_invariant_under_point_order():
    t, r = logistic_curve()
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(t))
    base = extract_tc(curve_from_arrays(t, r))
    shuffled = extract_tc(curve_from_arrays(t[perm], r[perm]))
    assert shuffled.t_c == pytest.approx(base.t_c, rel=1e-12)


def test_extract_tc_robust_to_one_percent_noise():
    t, r = logistic_curve()
    base = extract_tc(curve_from_arrays(t, r))
    rng = np.random.default_rng(11)
    for _ in range(5):
        noisy = r + rng.normal(0.0, 0.01 * 45.0, size=len(r))
        result = extract_tc(curve_from_arrays(t, np.clip(noisy, 0.0, None)))
        assert abs(result.t_c - base.t_c) < base.transition_width / 2


def _falling_at_hot_end():
    t = np.linspace(0.5, 1.5, 30)
    return t, 45.0 * np.exp(3.0 * (t - 1.5))


def _step_under_a_peak():
    # A 45 -> 30 ohm step never reaches 50% of R_normal, while a peak above
    # the normal plateau lifts max R / min R past 2.
    t, step = logistic_curve(r_n=15.0)
    return t, 30.0 + step + 60.0 * np.exp(-0.5 * ((t - 0.97) / 0.005) ** 2)


@pytest.mark.parametrize("curve, message", [
    (_falling_at_hot_end(), "no high-temperature plateau"),
    (_step_under_a_peak(), "resistance never crosses 50% of R_normal"),
], ids=["still-falling-at-hot-end", "step-above-threshold"])
def test_extract_tc_rejects(curve, message):
    with pytest.raises(TransitionNotFoundError, match=message):
        extract_tc(curve_from_arrays(*curve))


def test_extract_tc_requires_enough_points():
    t = np.linspace(0.5, 1.5, 8)
    r = np.where(t > 1.0, 45.0, 1.0)
    with pytest.raises(DomainError):
        extract_tc(curve_from_arrays(t, r))


def test_r_normal_is_the_median_of_the_normal_plateau():
    # An even-sized plateau: the median is the mean of its middle pair.
    t = [0.5 + 0.1 * i for i in range(10)]
    r = [1.0] * 6 + [45.0, 45.5, 46.0, 46.5]
    result = extract_tc(curve_from_arrays(t, r))
    assert result.r_normal == 45.75
    assert result.steps == ((result.t_c, 45.75, 1.0),)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the plateau rule counts points, "
                   "so T_c depends on sampling density and noise")
def test_extract_tc_does_not_depend_on_sampling_density():
    # A clean logistic over 0.5-1.5 K gives T_c within 1 mK at 120 points,
    # but from ~800 points the edge is cut into steps below 25% of R_n.  With
    # 1% noise, 500 points land 5.6 mK off.
    for n in (120, 800, 2000, 10000):
        t, r = logistic_curve(lo=0.5, hi=1.5, n=n)
        assert extract_tc(curve_from_arrays(t, r)).t_c == pytest.approx(0.95, abs=1e-3)
    for n in (120, 500):
        t, r = logistic_curve(lo=0.5, hi=1.5, n=n)
        noisy = r + np.random.default_rng(500).normal(0.0, 0.01 * 45.0, size=n)
        result = extract_tc(curve_from_arrays(t, np.clip(noisy, 0.0, None)))
        assert result.t_c == pytest.approx(0.95, abs=1e-3)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the plateau rule counts points, "
                   "so a densely sampled staircase loses its steps")
def test_extract_tc_keeps_both_steps_when_densely_sampled():
    # Read right at 160 and 500 points.  At 1,000 only the parasitic 1.2 K
    # step is found and reported as T_c; from 2,000 no step exceeds 25% of
    # R_n.  A plateau rule must mend density without dropping step detection.
    for n in (1000, 2000, 10000):
        result = extract_tc(curve_from_arrays(*two_step_curve(n)))
        assert len(result.steps) == 2
        assert result.t_c == pytest.approx(0.9, abs=2e-3)
