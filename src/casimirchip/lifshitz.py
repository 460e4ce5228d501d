"""Casimir pressure between parallel plates at finite temperature.

The finite-temperature pressure is the Matsubara sum

    P(a, T) = (k_B T / pi) * sum'_{n>=0} int_0^inf k dk kappa_n
              * sum_{p in {TE, TM}} [ (r_p^(a) r_p^(b))^{-1} e^{2 kappa_n a} - 1 ]^{-1}

with kappa_n = sqrt(k^2 + xi_n^2/c^2) and the primed sum giving the n = 0
term half weight.  At T = 0 the sum becomes (hbar / 2 pi^2) int dxi of the
same k-integral.  Pressures are returned as positive-attractive
magnitudes; differentials are signed.

Numerics: every integral here runs on one ladder of nested Clenshaw-Curtis
rules (`_nested_cc`): the order-n rule is the order-2n samples at even
indices, so each doubling evaluates only the new odd nodes.  The finer rule
is returned with |finer - coarser| plus its round-off bound (order + 2) eps
sum |terms| as its error, and the order doubles while that exceeds the
quadrature tolerance, up to a ceiling.  That is the coarser rule's error, a
loose bound on the finer rule's: at 100 nm the k-part is ~5e-10 P, while the
129-node k-sum sits within ~3e-16 P of a 1025-node rule.

The k-integral J(xi) is substituted to y = 2 kappa a and integrated over
[y_lo, 60], y_lo = 2 xi a / c (the integrand carries e^{-y}, so the
y = 60 cutoff is below double precision).  Near y_lo both reflection
coefficients are close to 1, so the integrand has a pole just left of
y_lo.  The rule is therefore Clenshaw-Curtis in u = ln(y - y_lo) on
[ln 1e-9, ln(60 - y_lo)], which clusters the nodes at y_lo and converges
geometrically, plus the sliver [y_lo, y_lo + 1e-9] as one midpoint node
outside the rule.  The ladder starts at the 129-node rule (130 points with
the sliver) and stops by the 257-node rule (at the default 1e-8 every
ladder stops at 129 nodes; down to 1e-11 none stops unconverged at 257).
All rows of a call climb together, so it stops when every row has
converged.  Each polarization's t/(1 - t) is sampled as
r_a r_b / (e^y - r_a r_b), one exp per sample, with r_TE in a form free of
the kappa - kappa_m cancellation; every pass over a call's (rows, nodes)
grid runs in place.

With f(n) = J(xi_n), the terms n = 0..N hold the xi = 0 term and the
Drude/plasma non-analyticity near it and are summed explicitly.  The rest
is replaced by its Euler-Maclaurin form

    sum_{n>N} f(n) = (1/xi_1) int_{(N+1/2) xi_1}^inf J dxi + f'(N+1/2)/24 + R_N

with f'(N+1/2) taken as f(N+1) - f(N) and the frequency integral done in
ln(xi) up to 60 c / 2a, where J vanishes under the y cutoff.  Its ladder
starts at the CC-64 rule (65 nodes) and stops by the last order
<= 2 * t_zero_nodes (256 at the default); the rule's error joins the
quadrature estimate.  The result is P(2N), and only its tail is computed.
The two-sided truncation estimate |P(N) - P(2N)| comes from the difference
of the two Euler-Maclaurin forms,

    P(N) - P(2N) = xi_1 [(f'(N+1/2) - f'(2N+1/2))/24 - sum_{N<m<=2N} f(m)] + B,

where B = int J dxi over [(N+1/2) xi_1, (2N+1/2) xi_1] is the same ln(xi)
integral with the ladder started and stopped at CC-32 (33 nodes, CC-16 at
its even indices), and its error is added to the estimate.  N doubles
from 64 while the estimate exceeds the series tolerance, the k-integration
error and the frequency-rule error, and still shrinks.  Where no term
below the y cutoff lies beyond 2N, the plain sum is exact.  T = 0, and any
T whose explicit terms all lie below the grid's lower end
xi_min = 1e-9 c / 2a, is the case with no explicit terms; J is flat below
xi_min, so the piece under it is xi_min J(xi_min), taken from the
frequency rule's x = -1 end node and counted in full as the truncation
estimate.  At default numerics a call at 100 nm evaluates 228 k-integral
rows at finite T (130 explicit terms, the 65-node tail rule and the
33-node block) and 129 at T = 0 (the 65- and 129-node rungs).  The cost
does not grow as T falls, and the evaluation order is fixed, so results
are bit-stable regardless of how callers parallelize.

The xi = 0 term is always computed from the analytic reflection limits of
each model, never from eps(i*0): that point is exactly where the Drude and
plasma descriptions of the TE zero mode part ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import C, HBAR, K_B
from .errors import DomainError, require_nonnegative, require_positive
from .materials import IdealMetal, eps_imag_freq, zero_frequency_plasma_weight

# e^{-60} ~ 9e-27: the neglected y-tail is far below double precision.
_Y_CUT = 60.0
# Width of the piece [y_lo, y_lo + _Y_SLIVER] below the mapped k-rule.
_Y_SLIVER = 1e-9
# Order of the coarse k-rung: the 65-node rule, nested in the 129-node one.
_K_ORDER_START = 64
# The mapped k-rule converges by order 256 down to rel_tol_quadrature 1e-11.
_K_ORDER_MAX = 256
# Order of the first frequency rung (CC-32 nested in it) and of the
# truncation block (CC-16 nested in it).  A CC-16 block would add
# |B_17 - B_9|, ~1000x the error the two-tail identity allows, to the estimate.
_FREQ_ORDER_START = 64
_BLOCK_ORDER = 32
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
        nodes = self.t_zero_nodes
        if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 8:
            raise DomainError(f"t_zero_nodes must be an int >= 8, got {nodes!r}")


DEFAULT_NUMERICS = LifshitzNumerics()


@dataclass(frozen=True)
class PressureResult:
    """A pressure value with its convergence metadata.

    ``pressure`` is the attractive magnitude in Pa.  ``terms_used`` counts
    the k-integral rows behind it: explicit Matsubara terms plus the nodes
    of the finer frequency rule, order + 1 for a Clenshaw-Curtis rule of
    that order (the coarser rungs nested in it and the nodes of the block
    behind the truncation estimate are not counted).
    ``truncation_estimate`` is |P(N) - P(2N)| for the Euler-Maclaurin tail
    plus the error of the block behind it, or at T = 0 the piece below the
    frequency grid; ``quadrature_estimate`` adds the k-integration error
    estimate and the frequency rule's error.  Both are in Pa.  Every rule
    error, of the k-rule, the frequency rule and the block alike, is
    |finer - coarser| of the last two rungs (at default numerics the 129-
    and 65-node k-rules) plus the finer sum's round-off floor, so it is the
    coarser rule's error: an upper bound on the returned rule's error, not
    the error itself.
    """

    pressure: float
    terms_used: int
    truncation_estimate: float
    quadrature_estimate: float


def ideal_pressure_closed_form(gap):
    """Zero-temperature perfect-conductor pressure pi^2 hbar c / (240 a^4) in Pa."""
    require_positive("gap", gap)
    return math.pi**2 * HBAR * C / (240.0 * gap**4)


@lru_cache(maxsize=8)
def _clenshaw_curtis(order):
    """Clenshaw-Curtis nodes cos(pi j / order), j = 0..order, and weights on [-1, 1].

    The order-n nodes are the order-2n nodes at even indices, bit for bit
    (pi j / n and pi 2j / 2n round alike), so a doubled rule reuses every
    sample.  For even n the weights are (c_j / n) [1 - sum_{k=1}^{n/2}
    b_k cos(2 pi k j / n) / (4k^2 - 1)] with c_j = 1 at the ends and 2
    inside, and b_k = 1 at k = n/2 and 2 below (Trefethen, SIAM Rev. 2008).
    The sum runs one k at a time, so memory stays linear in the order.
    """
    j = np.arange(order + 1)
    total = np.zeros(order + 1)
    for k in range(1, order // 2 + 1):
        b = (1.0 if k == order // 2 else 2.0) / (4.0 * k * k - 1.0)
        total += b * np.cos(2.0 * np.pi * k * j / order)
    w = (1.0 - total) * (2.0 / order)
    w[[0, -1]] *= 0.5
    return np.cos(np.pi * j / order), w


def _nest(even, odd):
    """Samples of the order-2n rule from the order-n ones and the new odd-index ones."""
    out = np.empty(even.shape[:-1] + (even.shape[-1] + odd.shape[-1],))
    out[..., ::2] = even
    out[..., 1::2] = odd
    return out


def _nested_cc(g, sample, ceiling, tol, const=0.0):
    """The nested Clenshaw-Curtis ladder on [-1, 1], from the order of g up to ceiling.

    g[0] holds the integrand rows at the nodes of the starting rule (last
    axis) and g[1:] any companions that the same rule integrates; sample(x)
    returns such a sequence at new nodes x.  The coarser rule is the
    samples at even indices, and each doubling evaluates only the new odd
    nodes.  const is a piece outside the rule, added to both sums.  The
    error is |fine - coarse| plus the fine sum's round-off bound, eps per
    node times the sum of |terms|, and the order doubles while some row's
    error exceeds tol times its |fine| (floored at 1e-12 of the largest
    row).  Returns (fine, error, order, the companions' fine sums).
    """
    order = g[0].shape[-1] - 1
    coarse = (g[0][..., ::2] * _clenshaw_curtis(order // 2)[1]).sum(axis=-1) + const
    while True:
        w = _clenshaw_curtis(order)[1]
        terms = g[0] * w
        fine = terms.sum(axis=-1) + const
        roundoff = (order + 2) * _EPS * (abs(terms).sum(axis=-1) + abs(const))
        err = abs(fine - coarse) + roundoff
        size = abs(fine)
        if (err <= tol * np.maximum(size, size.max(initial=0.0) * 1e-12)).all() or order >= ceiling:
            return fine, err, order, [(c * w).sum(axis=-1) for c in g[1:]]
        coarse, order = fine, 2 * order
        g = [_nest(a, b) for a, b in zip(g, sample(_clenshaw_curtis(order)[0][1::2]))]


def _fresnel(model, xi_col, kappa, temperature):
    """(r_TE, r_TM) on a (rows, nodes) grid; xi_col is the (rows, 1) frequency column.

    kappa is the full transverse decay constant sqrt(k^2 + xi^2/c^2), which
    the y substitution supplies directly, and kappa_m^2 = kappa^2 + chi with
    chi = (eps - 1) xi^2/c^2.  r_TE = (kappa - kappa_m)/(kappa + kappa_m) is
    evaluated as -chi / (kappa + kappa_m)^2, which has no kappa - kappa_m
    cancellation where |r_TE| << 1.  Rows with xi = 0 use the analytic
    zero-frequency limits: r_TM = 1, and r_TE the same formula with chi the
    model's residual zero-frequency plasma weight over c^2.  Both returned
    arrays are fresh, so callers may overwrite them.
    """
    if isinstance(model, IdealMetal):
        shape = np.broadcast_shapes(np.shape(xi_col), np.shape(kappa))
        return -np.ones(shape), np.ones(shape)

    pos = xi_col > 0.0
    eps = eps_imag_freq(model, np.where(pos, xi_col, 1.0), temperature)
    chi = (eps - 1.0) * (xi_col / C) ** 2
    zero = ~pos[:, 0]
    if zero.any():
        # xi = 0: all these metals reflect TM perfectly; the TE coefficient
        # keeps only the model's residual zero-frequency plasma weight.
        chi[zero] = zero_frequency_plasma_weight(model, temperature) / C**2
    kappa_m = np.multiply(kappa, kappa)
    kappa_m += chi
    np.sqrt(kappa_m, out=kappa_m)
    r_te = np.add(kappa, kappa_m)
    r_te *= r_te
    np.divide(-chi, r_te, out=r_te)
    r_tm = np.multiply(eps, kappa)
    den = np.add(r_tm, kappa_m)
    r_tm -= kappa_m
    r_tm /= den
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

    F sums t/(1-t) over both polarizations with t = r_a r_b e^{-y}, taken
    as r_a r_b / (e^y - r_a r_b) so that one exp serves both.  Every
    k-integral sample passes through here once; the grid passes run in
    place on the Fresnel arrays.
    """
    kappa = y / (2.0 * gap)
    r_te, r_tm = _fresnel(mat_a, xi_col, kappa, temperature)
    if mat_b == mat_a:
        r_te *= r_te
        r_tm *= r_tm
    else:
        r_te_b, r_tm_b = _fresnel(mat_b, xi_col, kappa, temperature)
        r_te *= r_te_b
        r_tm *= r_tm_b
    exp_y = np.exp(y)
    den = np.subtract(exp_y, r_te, out=kappa)
    r_te /= den
    np.subtract(exp_y, r_tm, out=den)
    r_tm /= den
    r_te += r_tm
    np.multiply(y, y, out=den)
    r_te *= den
    return r_te


def _k_integrals_adaptive(mat_a, mat_b, xi, gap, temperature, num):
    """(1/8a^3) int_{y_lo}^{60} y^2 F(y) dy for each xi, by the nested Clenshaw-Curtis ladder.

    The rule is Clenshaw-Curtis in u = ln(y - y_lo) on [ln 1e-9,
    ln(60 - y_lo)] plus the sliver [y_lo, y_lo + 1e-9] as one midpoint
    node outside the rule, 1e-9 F(y_lo + 5e-10), evaluated with the first
    rung (see the module docstring).  Returns the finer rule and its error.
    Rows whose lower limit reaches the cutoff are exactly zero.
    """
    xi_col = np.atleast_1d(np.asarray(xi, dtype=float))[:, None]
    y_lo = np.minimum(2.0 * gap * xi_col / C, _Y_CUT)
    u_lo = math.log(_Y_SLIVER)
    half = 0.5 * (np.log(np.maximum(_Y_CUT - y_lo, _Y_SLIVER)) - u_lo)

    def sample(x, *extra):
        # Integrand and Jacobian at the nodes x, then at any extra y - y_lo columns.
        dy = np.exp(u_lo + (x + 1.0) * half)
        y = y_lo + np.concatenate((dy, *extra), axis=1)
        return _k_integrand(mat_a, mat_b, xi_col, gap, temperature, y), dy * half

    f, jac = sample(_clenshaw_curtis(2 * _K_ORDER_START)[0], np.full_like(y_lo, 0.5 * _Y_SLIVER))
    # A row at the cutoff has jac = 0; a zero sliver weight makes it exactly 0.
    sliver = f[:, -1] * np.where(y_lo[:, 0] < _Y_CUT, _Y_SLIVER, 0.0)
    fine, err, _, _ = _nested_cc([f[:, :-1] * jac], lambda x: [np.multiply(*sample(x))],
                                 _K_ORDER_MAX, num.rel_tol_quadrature, sliver)
    return fine / (8.0 * gap**3), err / (8.0 * gap**3)


def _log_grid_integral(xi_lo, xi_hi, order, ceiling, args):
    """int_{xi_lo}^{xi_hi} J(xi) dxi by the nested Clenshaw-Curtis ladder in u = ln(xi).

    The ladder starts at the given order and stops by ceiling.  The k-errors
    ride along under the same rule.  Returns (finer rule, its k-integration
    error, its rule error, its node count, xi_lo J(xi_lo)), the last from
    the x = -1 end node.  Material response is evaluated at the requested
    temperature.
    """
    gap, temperature, mat_a, mat_b, num = args
    u_lo = math.log(xi_lo)
    half = 0.5 * (math.log(xi_hi) - u_lo)

    def sample(x):
        # J and its k-error at the nodes x, each times the Jacobian xi du/dx.
        xi = np.exp(u_lo + (x + 1.0) * half)
        vals, errs = _k_integrals_adaptive(mat_a, mat_b, xi, gap, temperature, num)
        jac = xi * half
        return vals * jac, errs * jac

    g = sample(_clenshaw_curtis(order)[0])
    value, err, order, k_err = _nested_cc(g, sample, ceiling, num.rel_tol_quadrature)
    return float(value), float(k_err[0]), float(err), order + 1, float(g[0][-1] / half)


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
    # The frequency grid ends where J vanishes under the y cutoff and starts
    # at xi_min, below which J is flat.
    xi_min, xi_hi = 1e-9 * C / (2.0 * gap), _Y_CUT * C / (2.0 * gap)
    ceiling = 1 << ((2 * num.t_zero_nodes).bit_length() - 1)
    rule = (xi_hi, min(_FREQ_ORDER_START, ceiling), ceiling, args)
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
        tail, tail_err, rule_err, nodes, _ = _log_grid_integral((n + 0.5) * xi_1, *rule)
        head = float(np.sum(f[: n + 1]) + (f[n + 1] - f[n]) / 24.0)
        return (xi_1 * head + tail, xi_1 * float(np.sum(err[: n + 2])) + tail_err,
                rule_err, nodes)

    def truncation(n):
        # |P(n) - P(2n)|: the two tails differ by the terms n < m <= 2n, the
        # f' corrections and the block int J dxi over [(n+1/2), (2n+1/2)] xi_1,
        # the CC-32 rule with its error added.
        block, _, block_err, _, _ = _log_grid_integral(
            (n + 0.5) * xi_1, (2 * n + 0.5) * xi_1, _BLOCK_ORDER, _BLOCK_ORDER, args)
        slopes = (f[n + 1] - f[n] - f[2 * n + 1] + f[2 * n]) / 24.0
        diff = xi_1 * float(slopes - np.sum(f[n + 1 : 2 * n + 1])) + block
        return abs(diff) + block_err

    if (2 * _N_EXPLICIT + 1) * xi_1 < xi_min:
        # T = 0, or so cold that every explicit term lies below xi_min.
        value, quad_err, rule_err, nodes, low = _log_grid_integral(xi_min, *rule)
        return PressureResult(pref * (value + low), nodes, pref * low,
                              pref * (quad_err + rule_err))
    # Terms with 2 a xi_n / c >= Y_CUT vanish identically under the cutoff.
    n_ceiling = xi_hi // xi_1 + 2
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
