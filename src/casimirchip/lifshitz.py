"""Casimir pressure between parallel plates at finite temperature.

The finite-temperature pressure is the Matsubara sum

    P(a, T) = (k_B T / pi) * sum'_{n>=0} int_0^inf k dk kappa_n
              * sum_{p in {TE, TM}} [ (r_p^(a) r_p^(b))^{-1} e^{2 kappa_n a} - 1 ]^{-1}

with kappa_n = sqrt(k^2 + xi_n^2/c^2) and the primed sum giving the n = 0
term half weight.  At T = 0 the sum becomes (hbar / 2 pi^2) int dxi of the
same k-integral.  Pressures are returned as positive-attractive
magnitudes; differentials are signed.

Numerics: the k-integral J(xi) is substituted to y = 2 kappa a and
integrated over [y_lo, 60], y_lo = 2 xi a / c (the integrand carries
e^{-y}, so the y = 60 cutoff is below double precision).  Near y_lo both
reflection coefficients are close to 1, so the integrand has a pole just
left of y_lo.  The rule is therefore Clenshaw-Curtis in u = ln(y - y_lo)
on [ln 1e-9, ln(60 - y_lo)], which clusters the nodes at y_lo and converges
geometrically, plus the sliver [y_lo, y_lo + 1e-9] as one midpoint node.
The rungs are nested: the integrand is evaluated once on the 129-node rule
(130 points with the sliver), and the 65-node rule is the same samples at
even indices.  While two successive rules disagree beyond the quadrature
tolerance the order doubles, adding only the new odd nodes, up to the
257-node rule (at the default 1e-8 every ladder stops at 129 nodes; down
to 1e-11 none stops unconverged at 257).  The finer rule is returned with
|finer - coarser| plus the finer sum's round-off bound as its
k-integration error estimate.  That difference is the coarser rule's
error, so it is an upper bound on the finer rule's, and a loose one: at
100 nm it is ~5e-10 P, the error of the 65-node rule, while the 129-node
sum sits within ~3e-16 P of a 1025-node rule.  All rows of a call climb
the ladder together, so it stops when every row has converged.

With f(n) = J(xi_n), the terms n = 0..N hold the xi = 0 term and the
Drude/plasma non-analyticity near it and are summed explicitly.  The rest
is replaced by its Euler-Maclaurin form

    sum_{n>N} f(n) = (1/xi_1) int_{(N+1/2) xi_1}^inf J dxi + f'(N+1/2)/24 + R_N

with f'(N+1/2) taken as f(N+1) - f(N) and the frequency integral done by
Gauss-Legendre in ln(xi) up to 60 c / 2a, where J vanishes under the y
cutoff.  Its nodes double from 32 until two successive rules agree to the
quadrature tolerance, at most up to 2 * t_zero_nodes; the finer rule is
used and the difference joins the quadrature estimate.  The result is
P(2N), and only its tail is computed.  The two-sided truncation estimate
|P(N) - P(2N)| comes from the difference of the two Euler-Maclaurin forms,

    P(N) - P(2N) = xi_1 [(f'(N+1/2) - f'(2N+1/2))/24 - sum_{N<m<=2N} f(m)] + B,

where B = int J dxi over [(N+1/2) xi_1, (2N+1/2) xi_1] is a 16-node
Gauss-Legendre rule in ln(xi) and |B_16 - B_8| is added to the estimate.
N doubles from 64 while the estimate exceeds the series tolerance, the
k-integration error and the frequency-rule error, and still shrinks.  Where
no term below the y cutoff lies beyond 2N, the plain sum is exact.  T = 0,
and any T whose explicit terms all lie below the grid's lower end
1e-9 c / 2a, is the case with no explicit terms.  The cost does not grow
as T falls, and the evaluation order is fixed, so results are bit-stable
regardless of how callers parallelize.

The xi = 0 term is always computed from the analytic reflection limits of
each model, never from eps(i*0): that point is exactly where the Drude and
plasma descriptions of the TE zero mode part ways.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import C, HBAR, K_B
from .errors import DomainError, require_nonnegative, require_positive
from .materials import (
    IdealMetal,
    eps_imag_freq,
    zero_frequency_plasma_weight,
)

# e^{-60} ~ 9e-27: the neglected y-tail is far below double precision.
_Y_CUT = 60.0
# Width of the piece [y_lo, y_lo + _Y_SLIVER] below the mapped k-rule.
_Y_SLIVER = 1e-9
# Orders of the coarse k-rung (the 65-node rule, nested in the first
# 129-node rule) and of the first frequency rule.
_K_ORDER_START = 64
_FREQ_NODES_START = 32
# The mapped k-rule converges by order 256 down to rel_tol_quadrature 1e-11.
_K_ORDER_MAX = 256
_EPS = np.finfo(float).eps
# Matsubara terms summed explicitly before the Euler-Maclaurin tail.
_N_EXPLICIT = 64


@dataclass(frozen=True)
class LifshitzNumerics:
    """Tolerances and the frequency-rule ceiling for the pressure evaluation."""

    rel_tol_quadrature: float = 1e-8
    rel_tol_series: float = 1e-6
    t_zero_nodes: int = 200

    def __post_init__(self):
        for name in ("rel_tol_quadrature", "rel_tol_series"):
            val = getattr(self, name)
            if not (0.0 < val < 1e-3):
                raise DomainError(f"{name} must lie in (0, 1e-3), got {val!r}")
        if self.t_zero_nodes < 8:
            raise DomainError("t_zero_nodes must be >= 8")


DEFAULT_NUMERICS = LifshitzNumerics()


@dataclass(frozen=True)
class PressureResult:
    """A pressure value with its convergence metadata.

    ``pressure`` is the attractive magnitude in Pa.  ``terms_used`` counts
    the k-integral rows behind it: explicit Matsubara terms plus the nodes
    of the finer frequency rule (the coarser rungs of its node doubling
    and the nodes of the block behind the truncation estimate are not
    counted).  ``truncation_estimate`` is |P(N) - P(2N)| for the
    Euler-Maclaurin tail, or at T = 0 the piece below the frequency grid;
    ``quadrature_estimate`` adds the k-integration error estimate and the
    difference between the last two frequency rules.  Both are in Pa.  The
    k-part is |finer - coarser| of the last k-rungs (at default numerics
    the 129- and 65-node rules) plus a round-off floor, so it is the
    coarser rule's error: an upper bound on the returned rule's error, not
    the error itself.
    """

    pressure: float
    terms_used: int
    truncation_estimate: float
    quadrature_estimate: float


@dataclass(frozen=True)
class BeamFaceGeometry:
    """The facing metalized side walls of the beam pair."""

    face_height: float          # m
    face_length: float          # m
    gap: float                  # m
    parallelism_jitter: float   # m, half-width of the local gap spread

    # Surfaces rougher than ~5 nm rms invalidate the local-gap average.
    ROUGHNESS_SCALE = 5e-9

    def __post_init__(self):
        if not (self.face_height > 0 and self.face_length > 0):
            raise DomainError("face dimensions must be > 0")
        if not (self.gap > self.ROUGHNESS_SCALE):
            raise DomainError(
                f"gap must exceed the {self.ROUGHNESS_SCALE * 1e9:.0f} nm roughness scale"
            )
        if not (0.0 <= self.parallelism_jitter < self.gap):
            raise DomainError("parallelism_jitter must lie in [0, gap)")


def ideal_pressure_closed_form(gap):
    """Zero-temperature perfect-conductor pressure pi^2 hbar c / (240 a^4) in Pa."""
    require_positive("gap", gap)
    return math.pi**2 * HBAR * C / (240.0 * gap**4)


def _legendre_pair(order, x):
    """(P_{order-1}(x), P_order(x)) by the three-term recurrence, written as
    P_{j+1} = x P_j + j / (j + 1) (x P_j - P_{j-1})."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, order):
        xp = x * p
        p_prev, p = p, xp + (j / (j + 1)) * (xp - p_prev)
    return p_prev, p


@lru_cache(maxsize=32)
def _leggauss(order):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the Legendre recurrence, started from Tricomi's
    asymptotic roots (Hale & Townsend, SIAM J. Sci. Comput. 2013); three
    steps bring every node to within about an ulp, with no eigensolver.
    Only the positive roots are computed and mirrored; odd orders keep
    the exact 0 node.  With (1 - x^2) P_n'(x) = n (P_{n-1} - x P_n), the
    weights are 2 (1 - x^2) / (n (P_{n-1} - x P_n))^2.
    """
    half = order // 2
    theta = math.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4.0 * order + 2.0)
    x = (1.0 - (order - 1.0) / (8.0 * order**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * order**4)) * np.cos(theta)
    x = np.append(x, np.zeros(order % 2))
    for _ in range(3):
        p_prev, p = _legendre_pair(order, x)
        x = x - p * (1.0 - x) * (1.0 + x) / (order * (p_prev - x * p))
    p_prev, p = _legendre_pair(order, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (order * (p_prev - x * p)) ** 2
    # x runs from the largest root down to the smallest (0 for odd orders).
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


@lru_cache(maxsize=8)
def _clenshaw_curtis(order):
    """Clenshaw-Curtis nodes cos(pi j / order), j = 0..order, and weights on [-1, 1].

    The order-n nodes are the order-2n nodes at even indices, bit for bit
    (pi j / n and pi 2j / 2n round alike), so a doubled rule reuses every
    sample.  For even n the weights are (c_j / n) [1 - sum_{k=1}^{n/2}
    b_k cos(2 pi k j / n) / (4k^2 - 1)] with c_j = 1 at the ends and 2
    inside, and b_k = 1 at k = n/2 and 2 below (Trefethen, SIAM Rev. 2008).
    """
    j = np.arange(order + 1)
    k = np.arange(1, order // 2 + 1)[:, None]
    b = np.where(k == order // 2, 1.0, 2.0) / (4.0 * k * k - 1.0)
    w = (1.0 - np.sum(b * np.cos(2.0 * np.pi * k * j / order), axis=0)) * (2.0 / order)
    w[[0, -1]] *= 0.5
    return np.cos(np.pi * j / order), w


def _fresnel(model, xi_col, kappa, temperature):
    """(r_TE, r_TM) on a (rows, nodes) grid; xi_col is the (rows, 1) frequency column.

    Rows with xi = 0 use the analytic zero-frequency limits, assigned into
    those rows only; rows with xi > 0 use the imaginary-frequency Fresnel
    coefficients.  kappa is the full transverse decay constant
    sqrt(k^2 + xi^2/c^2), which the y substitution supplies directly.
    """
    if isinstance(model, IdealMetal):
        shape = np.broadcast_shapes(np.shape(xi_col), np.shape(kappa))
        return -np.ones(shape), np.ones(shape)

    pos = xi_col > 0.0
    xi_safe = np.where(pos, xi_col, 1.0)
    eps = eps_imag_freq(model, xi_safe, temperature)
    q2 = (xi_col / C) ** 2
    kappa_m = np.sqrt(kappa**2 + (eps - 1.0) * q2)
    r_te = (kappa - kappa_m) / (kappa + kappa_m)
    r_tm = (eps * kappa - kappa_m) / (eps * kappa + kappa_m)

    zero = ~pos[:, 0]
    if zero.any():
        # xi = 0: all these metals reflect TM perfectly; the TE coefficient
        # keeps only the model's residual zero-frequency plasma weight.
        w2 = zero_frequency_plasma_weight(model, temperature)
        k = kappa[zero]  # kappa = k when xi = 0
        s = np.sqrt(k**2 + w2 / C**2)
        r_te[zero] = (k - s) / (k + s)
        r_tm[zero] = 1.0
    return r_te, r_tm


def reflection_coefficients(model, xi, k, temperature=0.0):
    """Imaginary-frequency Fresnel coefficients (r_TE, r_TM) for one surface.

    kappa = sqrt(k^2 + xi^2/c^2), kappa_m = sqrt(k^2 + eps xi^2/c^2);
    r_TM = (eps kappa - kappa_m)/(eps kappa + kappa_m),
    r_TE = (kappa - kappa_m)/(kappa + kappa_m).

    At xi = 0 the analytic limits are used: IdealMetal -> (-1, 1); Plasma
    keeps a finite TE reflection set by omega_p; Drude's TE zero mode
    vanishes; the two-fluid superconductor below t_c keeps the
    superfluid-weighted plasma limit.  ``temperature`` only matters for the
    two-fluid model.
    """
    require_positive("transverse wavenumber k", k)
    require_nonnegative("xi", xi)
    kappa = math.sqrt(k**2 + (xi / C) ** 2)
    r_te, r_tm = _fresnel(model, np.full((1, 1), float(xi)), np.full((1, 1), kappa), temperature)
    return r_te.item(), r_tm.item()


def _k_integrand(mat_a, mat_b, xi_col, gap, temperature, y):
    """y^2 F(y) on a (rows, nodes) grid of y; xi_col is the (rows, 1) frequency column.

    F sums t/(1-t) over both polarizations with t = r_a r_b e^{-y}.  Every
    k-integral sample passes through here once.
    """
    kappa = y / (2.0 * gap)
    r_te_a, r_tm_a = _fresnel(mat_a, xi_col, kappa, temperature)
    if mat_b == mat_a:
        r_te_b, r_tm_b = r_te_a, r_tm_a
    else:
        r_te_b, r_tm_b = _fresnel(mat_b, xi_col, kappa, temperature)
    emy = np.exp(-y)
    t_te = r_te_a * r_te_b * emy
    t_tm = r_tm_a * r_tm_b * emy
    return y * y * (t_te / (1.0 - t_te) + t_tm / (1.0 - t_tm))


def _k_integrals_adaptive(mat_a, mat_b, xi, gap, temperature, num):
    """(1/8a^3) int_{y_lo}^{60} y^2 F(y) dy for each xi, by nested Clenshaw-Curtis rungs.

    The rule is Clenshaw-Curtis in u = ln(y - y_lo) on [ln 1e-9,
    ln(60 - y_lo)] plus the sliver [y_lo, y_lo + 1e-9] as one midpoint
    node, 1e-9 F(y_lo + 5e-10) (see the module docstring).  Each rung
    evaluates only the nodes its predecessor lacks.  Returns the finer rule
    and |finer - coarser| plus the finer sum's round-off bound, eps per
    node times the sum of |terms|.  Rows whose lower limit reaches the
    cutoff are exactly zero.
    """
    xi_col = np.atleast_1d(np.asarray(xi, dtype=float))[:, None]
    y_lo = np.minimum(2.0 * gap * xi_col / C, _Y_CUT)
    u_lo = math.log(_Y_SLIVER)
    half = 0.5 * (np.log(np.maximum(_Y_CUT - y_lo, _Y_SLIVER)) - u_lo)

    def samples(x, *extra):
        # Integrand and Jacobian at the nodes x, then at any extra y - y_lo columns.
        dy = np.exp(u_lo + (x + 1.0) * half)
        y = y_lo + np.concatenate((dy, *extra), axis=1)
        return _k_integrand(mat_a, mat_b, xi_col, gap, temperature, y), dy * half

    order = 2 * _K_ORDER_START
    f, jac = samples(_clenshaw_curtis(order)[0], np.full_like(y_lo, 0.5 * _Y_SLIVER))
    # A row at the cutoff has jac = 0; a zero sliver weight makes it exactly 0.
    g, sliver = f[:, :-1] * jac, f[:, -1] * np.where(y_lo[:, 0] < _Y_CUT, _Y_SLIVER, 0.0)
    coarse = np.sum(g[:, ::2] * _clenshaw_curtis(_K_ORDER_START)[1], axis=1) + sliver
    while True:
        terms = g * _clenshaw_curtis(order)[1]
        fine = np.sum(terms, axis=1) + sliver
        roundoff = (order + 2) * _EPS * (np.sum(np.abs(terms), axis=1) + np.abs(sliver))
        err = np.abs(fine - coarse) + roundoff
        scale = np.maximum(np.abs(fine), np.max(np.abs(fine), initial=0.0) * 1e-12)
        if np.all(err <= num.rel_tol_quadrature * scale) or order >= _K_ORDER_MAX:
            return fine / (8.0 * gap**3), err / (8.0 * gap**3)
        coarse, order = fine, 2 * order
        nested = np.empty((len(g), order + 1))
        nested[:, ::2] = g
        f, jac = samples(_clenshaw_curtis(order)[0][1::2])
        nested[:, 1::2] = f * jac
        g = nested


def plate_pressure(gap, temperature, mat_a, mat_b, num=DEFAULT_NUMERICS):
    """Attractive Casimir pressure magnitude (Pa) between parallel plates.

    Sums the Matsubara terms n <= N explicitly and replaces the rest by the
    frequency integral of the same k-integral (see the module docstring);
    at T = 0 there are no explicit terms.  Only the stop rule and the y
    cutoff bound N; there is no term budget.  Raises DomainError for a gap
    or temperature outside its domain.
    """
    require_positive("gap", gap)
    require_nonnegative("temperature", temperature)
    args = (gap, temperature, mat_a, mat_b, num)
    # k_B T / pi = pref * xi_1: the sum and the integral share one prefactor.
    pref = HBAR / (2.0 * math.pi**2)
    xi_1 = 2.0 * math.pi * K_B * temperature / HBAR
    # Lower end of the log grid.  J is flat below it, so the piece under it
    # is xi_min J(xi_min), counted in full as its truncation error.
    xi_min = 1e-9 * C / (2.0 * gap)
    f = err = np.zeros(0)

    def extend(count):
        # Terms n < count, the n = 0 term at half weight.
        nonlocal f, err
        ns = np.arange(len(f), int(count), dtype=float)
        new, new_err = _k_integrals_adaptive(mat_a, mat_b, ns * xi_1, gap, temperature, num)
        if len(f) == 0:
            new[0], new_err[0] = 0.5 * new[0], 0.5 * new_err[0]
        f, err = np.concatenate((f, new)), np.concatenate((err, new_err))

    def euler_maclaurin(n):
        # xi_1 [sum_{m<=n} f_m + f'(n+1/2)/24] + int_{(n+1/2) xi_1} J dxi as
        # (value, k-integration error, frequency-rule error, frequency nodes).
        tail, tail_err, rule_err, nodes = _log_grid_integral((n + 0.5) * xi_1, args)
        head = float(np.sum(f[: n + 1]) + (f[n + 1] - f[n]) / 24.0)
        return (xi_1 * head + tail, xi_1 * float(np.sum(err[: n + 2])) + tail_err,
                rule_err, nodes)

    def truncation(n):
        # |P(n) - P(2n)|: the two tails differ by the terms n < m <= 2n, the
        # f' corrections and the block int J dxi over [(n+1/2), (2n+1/2)] xi_1,
        # taken as a 16-node rule with |16-node - 8-node| added as its error.
        (b8, _), (b16, _) = _log_rules((n + 0.5) * xi_1, (2 * n + 0.5) * xi_1, (8, 16), args)
        slopes = (f[n + 1] - f[n] - f[2 * n + 1] + f[2 * n]) / 24.0
        diff = xi_1 * float(slopes - np.sum(f[n + 1 : 2 * n + 1])) + b16
        return abs(diff) + abs(b16 - b8)

    if (2 * _N_EXPLICIT + 1) * xi_1 < xi_min:
        # T = 0, or so cold that every explicit term lies below xi_min.
        low = xi_min * float(_k_integrals_adaptive(mat_a, mat_b, xi_min, gap, temperature, num)[0][0])
        value, quad_err, rule_err, nodes = _log_grid_integral(xi_min, args)
        return PressureResult(pref * (value + low), nodes, pref * low,
                              pref * (quad_err + rule_err))
    # Terms with 2 a xi_n / c >= Y_CUT vanish identically under the cutoff.
    n_ceiling = _Y_CUT * C / (2.0 * gap) // xi_1 + 2
    n = _N_EXPLICIT
    extend(min(n_ceiling, 2 * n + 1) + 1)
    trunc = math.inf
    while n_ceiling > 2 * n:
        value, quad_err, rule_err, nodes = euler_maclaurin(2 * n)
        prev, trunc = trunc, truncation(n)
        # Stop at the series tolerance, or where more explicit terms cannot
        # help: the k-quadrature or frequency-rule error dominates, or the
        # estimate stops shrinking.
        if not (trunc > max(num.rel_tol_series * value, quad_err, rule_err) and trunc < prev):
            return PressureResult(pref * value, len(f) + nodes, pref * trunc,
                                  pref * (quad_err + rule_err))
        n *= 2
        extend(min(n_ceiling, 2 * n + 1) + 1)
    # f now holds every term up to n_ceiling; the rest vanish under the cutoff.
    return PressureResult(pref * xi_1 * float(np.sum(f)), len(f), 0.0,
                          pref * xi_1 * float(np.sum(err)))


def _log_grid_integral(xi_lo, args):
    """int_{xi_lo}^inf J(xi) dxi by Gauss-Legendre on u = ln(xi) with node doubling.

    The nodes double from min(32, t_zero_nodes) until two successive rules
    agree to rel_tol_quadrature, or until the finer one reaches the ceiling
    2 t_zero_nodes.  Returns (finer rule, its k-integration error,
    |finer - coarser|, finer node count).  J vanishes under the y cutoff
    beyond Y_CUT c / 2a, the upper end of the grid.  Material response is
    evaluated at the requested temperature.
    """
    gap, num = args[0], args[-1]
    xi_hi = _Y_CUT * C / (2.0 * gap)

    def rule(nodes):
        return _log_rules(xi_lo, xi_hi, (nodes,), args)[0]

    ceiling = 2 * num.t_zero_nodes
    nodes = min(_FREQ_NODES_START, num.t_zero_nodes)
    coarse, _ = rule(nodes)
    while True:
        nodes = min(2 * nodes, ceiling)
        fine, fine_err = rule(nodes)
        if abs(fine - coarse) <= num.rel_tol_quadrature * abs(fine) or nodes == ceiling:
            return fine, fine_err, abs(fine - coarse), nodes
        coarse = fine


def _log_rules(xi_lo, xi_hi, orders, args):
    """int_{xi_lo}^{xi_hi} J(xi) dxi by one Gauss-Legendre rule in u = ln(xi)
    per entry of ``orders``, all nodes in one k-integral call.  Returns a
    list of (value, k-integration error), one per rule."""
    gap, temperature, mat_a, mat_b, num = args
    u_lo = math.log(xi_lo)
    half = 0.5 * (math.log(xi_hi) - u_lo)
    rules = [_leggauss(order) for order in orders]
    xi = np.exp(u_lo + (np.concatenate([x for x, _ in rules]) + 1.0) * half)
    vals, errs = _k_integrals_adaptive(mat_a, mat_b, xi, gap, temperature, num)
    out, start = [], 0
    for _, w in rules:
        part = slice(start, start + len(w))
        start = part.stop
        out.append((float(np.sum(w * xi[part] * vals[part]) * half),
                    float(np.sum(w * xi[part] * errs[part]) * half)))
    return out


def differential_pressure(gap, temperature, mat_a, mat_b, reference, num=DEFAULT_NUMERICS):
    """Signed pressure difference P(mat_a, mat_b) - P(reference pair) in Pa.

    ``reference`` is a (model, model) tuple evaluated at the same gap and
    temperature; used for plasma-vs-Drude and superconducting-vs-normal
    differentials.
    """
    ref_a, ref_b = reference
    p = plate_pressure(gap, temperature, mat_a, mat_b, num)
    p_ref = plate_pressure(gap, temperature, ref_a, ref_b, num)
    return p.pressure - p_ref.pressure


def beam_pfa_pressure(face, temperature, mats, num=DEFAULT_NUMERICS, eta=1.0):
    """Proximity-force effective pressure over the nominal facing area.

    Averages ``plate_pressure`` over the uniform local-gap distribution
    gap +/- parallelism_jitter and applies the finite-size reduction factor
    ``eta`` in (0, 1].  eta = 1 is the plain PFA; simulations of comparable
    beam geometries support values down to ~0.1, offered as a documented
    preset rather than applied silently.
    """
    if not isinstance(face, BeamFaceGeometry):
        raise DomainError("face must be a BeamFaceGeometry")
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"eta must lie in (0, 1], got {eta!r}")
    mat_a, mat_b = mats
    if face.gap > face.face_height:
        warnings.warn(
            "PFA validity is marginal: gap exceeds the face height",
            stacklevel=2,
        )
    if face.parallelism_jitter == 0.0:
        base = plate_pressure(face.gap, temperature, mat_a, mat_b, num)
        return PressureResult(
            eta * base.pressure, base.terms_used,
            eta * base.truncation_estimate, eta * base.quadrature_estimate,
        )
    x, w = _leggauss(9)
    gaps = face.gap + x * face.parallelism_jitter
    pressure = 0.0
    trunc = 0.0
    quad_err = 0.0
    terms = 0
    for g, wi in zip(gaps, w):
        res = plate_pressure(float(g), temperature, mat_a, mat_b, num)
        pressure += 0.5 * wi * res.pressure
        trunc += 0.5 * wi * res.truncation_estimate
        quad_err += 0.5 * wi * res.quadrature_estimate
        terms = max(terms, res.terms_used)
    return PressureResult(eta * pressure, terms, eta * trunc, eta * quad_err)
