"""Casimir pressure between parallel plates at finite temperature.

The finite-temperature pressure is the Matsubara sum

    P(a, T) = (k_B T / pi) * sum'_{n>=0} int_0^inf k dk kappa_n
              * sum_{p in {TE, TM}} [ (r_p^(a) r_p^(b))^{-1} e^{2 kappa_n a} - 1 ]^{-1}

with kappa_n = sqrt(k^2 + xi_n^2/c^2) and the primed sum giving the n = 0
term half weight.  At T = 0 the sum becomes (hbar / 2 pi^2) int dxi of the
same k-integral.  Pressures are returned as positive-attractive
magnitudes; differentials are signed.

Numerics: every integral here runs on one ladder of nested Clenshaw-Curtis
rules (`_nested_cc`), and every rung of it is one rule, `_log_rule`:
Clenshaw-Curtis in u = ln v over [lo, hi], with the Jacobian v du/dx in
its weights, so the samples are plain integrand values.  It is cached for
the k-offsets (`_k_rule`) and built per xi range.  The order-n rule is the
order-2n samples at even indices, so each doubling evaluates only the new
odd nodes.  A rung's sum is one product per pair (weights @ a k-pass
block, whose nodes run along its first axis), the first rung's with the
coarser rule's weights beside.  The finer rule is returned with |finer -
coarser| plus its round-off bound (order + 2) eps |finer| as its error
(every sample and weight is >= 0, so that holds in any summation order),
and the order doubles while that exceeds the quadrature tolerance, up to a
ceiling.  That is the coarser rule's error, a loose bound on the finer
rule's: at 100 nm the k-part is ~5e-10 P, while the 129-node k-sum sits
within ~3e-16 P of a 1025-node rule.

The k-integral J(xi) is substituted to y = 2 kappa a and integrated over
[y_lo, y_lo + 60], y_lo = 2 xi a / c (the integrand carries e^{-y}, so
the rest is below double precision); a row with y_lo >= 60 is 0 by rule.
Near y_lo both reflection coefficients are close to 1, so the integrand
has a pole just left of y_lo.  The rule is therefore _log_rule over the
offsets y - y_lo in [1e-9, 60] for every row, which clusters the nodes at
y_lo and converges geometrically, plus the sliver [y_lo, y_lo + 1e-9] as
one midpoint node outside the rule, the grid's 130th node row.  Each
order's offsets and weights are one cached, read-only _k_rule.  The
ladder starts at the 129-node rule and stops by the 257-node rule (at the
default 1e-8 every ladder stops at 129 nodes; down to 1e-11 none stops
unconverged at 257).
All rows of a pair climb together, so its ladder stops when every one of
its rows has converged.  Each polarization's t/(1 - t) is sampled as
r_a r_b / (e^y - r_a r_b), one exp per sample.  The reflection
coefficients are taken in y units, from y and y_m = 2 kappa_m a, with r_TE
in a form free of the y - y_m cancellation.

With f(n) = J(xi_n), the terms n = 0..N hold the xi = 0 term and the
Drude/plasma non-analyticity near it and are summed explicitly.  The rest
is replaced by its Euler-Maclaurin form

    sum_{n>N} f(n) = (1/xi_1) int_{(N+1/2) xi_1}^inf J dxi + f'(N+1/2)/24 + R_N

with f'(N+1/2) taken as f(N+1) - f(N) and the frequency integral done by
_log_rule over [(N+1/2) xi_1, 60 c / 2a], where J vanishes under the y
cutoff.  Its ladder starts at the CC-64 rule (65 nodes) and stops by the
last order <= 2 * t_zero_nodes (256 at the default); the rule's error
joins the quadrature estimate.  The result is P(2N), and only its tail is
computed.  The two-sided truncation estimate |P(N) - P(2N)| comes from
the difference of the two Euler-Maclaurin forms,

    P(N) - P(2N) = xi_1 [(f'(N+1/2) - f'(2N+1/2))/24 - sum_{N<m<=2N} f(m)] + B,

where B = int J dxi over [(N+1/2) xi_1, (2N+1/2) xi_1] is _log_rule over
that range, with the ladder started and stopped at CC-32 (33 nodes, CC-16
at its even indices), and its error is added to the estimate.  N doubles
from 64 while the estimate exceeds the series tolerance, the k-integration
error and the frequency-rule error, and still shrinks.  Where no term
below the y cutoff lies beyond 2N, the plain sum is exact.  T = 0, and any
T whose explicit terms all lie below the grid's lower end
xi_min = 1e-9 c / 2a, is the case with no explicit terms; J is flat below
xi_min, so the piece under it is xi_min J(xi_min), taken from the
frequency rule's x = -1 end node and counted in full as the truncation
estimate.  Every default call at T = 0 climbs past the 65-node rung, so
that ladder starts at the 129-node one (CC-64 at its even indices).

Each Matsubara step is one k-integral pass: the step that extends the
explicit terms to 2N + 1 also evaluates the first rungs of the tail behind
P(2N) and of the block, so at default numerics a call at 100 nm evaluates
228 k-integral rows in one pass at finite T (130 explicit terms, the
65-node tail rung and the 33-node block) and 129 at T = 0.  Each first
rung's _log_rule is built once: the pass samples its nodes and the ladder
sums with its weights.  Further passes come only from the rungs a
frequency ladder climbs to and from doubling N, and each holds the one
pair that needs it.
The cost does not grow as T falls, and the evaluation order is fixed, so
results are bit-stable regardless of how callers parallelize.

Every evaluation enters the engine through plate_pressures, which evaluates
material pairs in batches at one (gap, T): plate_pressure is a batch of one
pair, differential_pressure one of two, and a (gap, T) cell of
designer.run_gap_sweep one of all len(pairs) pairs of the sweep.  The
pairs share the first k-pass; every later pass holds one pair.  The first
pass (the Matsubara step at N = 64, or at T = 0 the 129-node frequency
rule) builds its grid (y, e^y and y^2) once for all pairs and then
evaluates them one at a time: a pair's Fresnel coefficients, its
integrand and its k-ladder, which climbs and stops for that pair alone.
Then each pair in turn climbs its own frequency ladders and doubles its
own N until its Matsubara sum stops.  Every sum is one pair's, so each
pair's result is bit for bit the one it gets alone.  Two pairs with the
same responses at T (a superconductor above t_c against its normal state)
differ by exactly 0.0, which a differential returns without evaluating
either.  A k-pass holds one pair's arrays at a time in a per-thread
workspace that the thread's next call reuses, so memory does not grow
with the pair count, and what blocks over a default call's 130 x 228 grew
is dropped after their pass; every array of it starts on a 64-byte
boundary, and a pair of one response takes 6 blocks (see _Workspace).
The tests
test_default_two_pair_call_keeps_one_228_row_block_per_array,
test_memory_does_not_grow_with_the_pair_count and
test_tight_numerics_peak_within_the_budget gate it.

The xi = 0 term is always computed from the analytic reflection limits of
each model, never from eps(i*0): that point is exactly where the Drude and
plasma descriptions of the TE zero mode part ways.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .constants import C, HBAR, K_B
from .errors import DomainError, require_nonnegative, require_positive
from .materials import IdealMetal, eps_imag_freq, response, zero_frequency_plasma_weight
from .records import record

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
# The largest (nodes, rows) block a call at default numerics evaluates: the
# first Matsubara step's 2 N + 2 explicit terms, 65-node tail rung and
# 33-node block, on the 129-node rule and the sliver node.
_KEPT_BLOCK = ((2 * _N_EXPLICIT + 2 + _FREQ_ORDER_START + 1 + _BLOCK_ORDER + 1)
               * (2 * _K_ORDER_START + 2))

class _Workspace(threading.local):
    """Scratch arrays of one thread, reused by every call it makes.

    take(name, shape) returns an uninitialised array over the buffer kept
    under name, which grows when a larger shape is taken.  A k-pass takes
    the grid of y, e^y and y^2, the r_TE and r_TM of each distinct response
    of the pair (the integrand overwrites the first r_TE) and one scratch
    block, y_m and then the denominators.  It holds one pair's arrays at a
    time, so what a thread keeps does not grow with the pair count.  A
    block whose (rows, nodes) span more than _KEPT_BLOCK, which only tighter
    numerics make, never reuses a buffer kept for smaller ones, and trim()
    drops what such blocks grew.  Every buffer has 7 doubles of slack, so
    that it starts on a 64-byte boundary.  An array stays valid until the
    next take of its name or trim(); nothing the engine returns is a view
    of one.
    """

    def __init__(self):
        self.buffers, self.oversized = {}, set()

    def take(self, name, shape):
        size, oversize = math.prod(shape), math.prod(shape[-2:]) > _KEPT_BLOCK
        buf = self.buffers.pop(name, None)
        if buf is None or buf.size < size or oversize and name not in self.oversized:
            buf = None  # dropped before anything is allocated
            raw = np.empty(size + 7)
            start = -raw.__array_interface__["data"][0] % 64 // 8
            buf = raw[start : start + size]
            if oversize:
                self.oversized.add(name)
        self.buffers[name] = buf
        return buf[:size].reshape(shape)

    def trim(self):
        """Ends a pass: drops what its blocks over _KEPT_BLOCK grew."""
        for name in self.oversized:
            self.buffers.pop(name, None)
        self.oversized.clear()


_WORKSPACE = _Workspace()


@record
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


@record
class PressureResult:
    """A pressure value with its convergence metadata.

    ``pressure`` is the attractive magnitude in Pa.  ``terms_used`` counts
    the k-integral rows behind it: explicit Matsubara terms plus the nodes
    of the finer frequency rule, order + 1 for a Clenshaw-Curtis rule of
    that order (the coarser rungs nested in it and the nodes of the block
    behind the truncation estimate are not counted, though the block's are
    evaluated in the same pass as the terms).
    ``truncation_estimate`` is |P(N) - P(2N)| for the Euler-Maclaurin tail
    plus the error of the block behind it, or at T = 0 the piece below the
    frequency grid; ``quadrature_estimate`` adds the k-integration error
    estimate and the frequency rule's error.  Both are in Pa.  Every rule
    error, of the k-rule, the frequency rule and the block alike, is
    |finer - coarser| of the last two rungs (at default numerics the 129-
    and 65-node k-rules) plus the finer sum's round-off floor,
    (order + 2) eps |finer|, so it is the coarser rule's error: an upper
    bound on the returned rule's error, not the error itself.
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
    The sum adds 64 k at a time, in k order as one k would, so memory stays
    linear in the order; j and k are floats, so no product needs a cast.
    """
    j = np.arange(order + 1.0)
    total = np.zeros(order + 1)
    for start in range(1, order // 2 + 1, 64):
        k = np.arange(float(start), min(start + 64, order // 2 + 1))[:, None]
        b = np.where(k == order // 2, 1.0, 2.0) / (4.0 * k * k - 1.0)
        total = np.add.accumulate(np.vstack((total, b * np.cos(2.0 * np.pi * k * j / order))))[-1]
    w = (1.0 - total) * (2.0 / order)
    w[[0, -1]] *= 0.5
    return np.cos(np.pi * j / order), w


def _log_rule(lo, hi, order):
    """The order-n Clenshaw-Curtis rule in u = ln v over [lo, hi]: (nodes v, stacked, weights).

    The stacked (n + 1, 2) weights hold the order-n weights beside the
    order-n/2 ones at even nodes and 0 at odd; all carry the Jacobian
    v du/dx.  Every rung of every ladder is this rule (see _nested_cc).
    """
    x, w = _clenshaw_curtis(order)
    u_lo = math.log(lo)
    half = 0.5 * (math.log(hi) - u_lo)
    nodes = np.exp(u_lo + (x + 1.0) * half)
    jac = nodes * half
    stacked = np.zeros((order + 1, 2))
    stacked[:, 0], stacked[::2, 1] = w, _clenshaw_curtis(order // 2)[1]
    return nodes, stacked * jac[:, None], w * jac


@lru_cache(maxsize=8)
def _k_rule(order):
    """The order-n k-rule, read-only: (offsets y - y_lo, stacked weights, weights).

    The offsets are _log_rule's nodes over [1e-9, 60], then the sliver's
    midpoint; the weights are its weights.
    """
    offsets, stacked, w = _log_rule(_Y_SLIVER, _Y_CUT, order)
    rule = np.append(offsets, 0.5 * _Y_SLIVER), stacked, w
    for a in rule:
        a.setflags(write=False)
    return rule


def _nested_cc(g, sample, rule, first, ceiling, tol, const=0.0):
    """The nested Clenshaw-Curtis ladder, from the rule first up to order ceiling.

    first is the starting rung's (nodes, stacked weights, weights), as
    _log_rule returns them, and rule(order) returns a finer rung's.  g[0]
    holds one material pair's integrand as (nodes, rows) or (nodes,), at
    first's nodes; g[1:] hold any companions that the same rule integrates.
    sample(nodes) returns such a sequence at the given nodes, the finer
    rule's odd ones, and may reuse the memory of g.  The coarser rule is
    the samples at even indices.  const is a piece outside the rule, added
    to both sums.  Every sum is one product, weights @ block, whose weights
    carry the Jacobian: the first rung's fine and coarse sums are one, with
    the stacked weights.  The error is |fine - coarse| plus the fine sum's
    round-off bound, eps per node times |fine|, which bounds a sum of
    non-negative terms taken in any order: every sample, weight and const
    is >= 0 (0 <= r_a r_b <= 1, and the weights and Jacobians are
    positive).  The ladder stops at the first rung where every row has an
    error within tol times its |fine| (floored at 1e-12 of the largest
    row; a single row is its own floor), or at ceiling.  Returns (fine,
    error, order, the companions' fine sums).
    """
    _, stacked, w = first
    order = len(w) - 1
    fine, coarse = stacked.T @ g[0] + const
    while True:
        size = abs(fine)
        err = abs(fine - coarse) + (order + 2) * _EPS * size
        if size.ndim:
            size = np.maximum(size, size.max(initial=0.0) * 1e-12)
        if order >= ceiling or (err <= tol * size).all():
            return fine, err, order, [w @ c for c in g[1:]]
        # g moves to the even indices of the order-2n rule before sample may reuse its memory.
        coarse, order = fine, 2 * order
        nodes, _, w = rule(order)
        nested = [np.empty((order + 1,) + a.shape[1:]) for a in g]
        for dst, a in zip(nested, g):
            dst[::2] = a
        for dst, b in zip(nested, sample(nodes[1:order:2])):
            dst[1::2] = b
        g = nested
        fine = w @ g[0] + const


def _fresnel(model, xi, gap, temperature, y, y_sq, r_te, r_tm, y_m):
    """(r_TE, r_TM) on a (nodes, rows) grid of y = 2 kappa a, written into r_te and r_tm.

    xi holds the (rows,) frequencies, and y and y^2 the grid, with
    kappa the full transverse decay constant sqrt(k^2 + xi^2/c^2).  In y
    units y_m^2 = y^2 + chi, chi = (eps - 1) (2 a xi/c)^2, is (2 a kappa_m)^2.
    r_TE = (kappa - kappa_m)/(kappa + kappa_m) is evaluated as
    -chi / (y + y_m)^2, which has no y - y_m cancellation where
    |r_TE| << 1.  Rows with xi = 0 use the analytic zero-frequency limits:
    r_TM = 1, and r_TE the same formula with chi the model's residual
    zero-frequency plasma weight times (2a/c)^2.  y_m is scratch of the
    grid's shape, so no pass allocates.
    """
    if isinstance(model, IdealMetal):
        r_te.fill(-1.0)
        r_tm.fill(1.0)
        return

    to_y = 2.0 * gap / C
    pos = xi > 0.0
    eps = eps_imag_freq(model, np.where(pos, xi, 1.0), temperature)
    chi = (eps - 1.0) * (xi * to_y) ** 2
    zero = ~pos
    any_zero = zero.any()
    if any_zero:
        # xi = 0: all these metals reflect TM perfectly; the TE coefficient
        # keeps only the model's residual zero-frequency plasma weight.
        chi[zero] = zero_frequency_plasma_weight(model, temperature) * to_y**2
    np.add(y_sq, chi, out=y_m)
    np.sqrt(y_m, out=y_m)
    # r_te holds the TM denominator until r_tm is done.
    np.multiply(eps, y, out=r_tm)
    np.add(r_tm, y_m, out=r_te)
    r_tm -= y_m
    r_tm /= r_te
    if any_zero:
        r_tm[:, zero] = 1.0
    np.add(y, y_m, out=r_te)
    r_te *= r_te
    np.divide(-chi, r_te, out=r_te)


def _k_integrand(pair, xi, gap, temperature, grid):
    """y^2 F(y) of one material pair on a (nodes, rows) grid of y, as (nodes, rows).

    xi holds the (rows,) frequencies, and grid the (3, nodes, rows) block
    of y, e^y and y^2, which a k-pass builds once for all its pairs; with
    the nodes first, each row's eps and chi broadcast along contiguous rows.
    F sums t/(1-t) over both polarizations with t = r_a r_b e^{-y}, taken
    as r_a r_b / (e^y - r_a r_b) so that one exp serves both.  The pair's
    models go through _fresnel once per distinct response
    (materials.response), so two objects that reflect alike cost one.
    Every k-integral sample passes through here once.  The result is
    written over the first response's r_TE, and it and every pass live in
    the thread's workspace: the result is valid until the next call.
    """
    y, exp_y, y_sq = grid
    models = {response(m, temperature): m for m in pair}
    r = _WORKSPACE.take("fresnel", (len(models), 2) + y.shape)
    # One scratch block holds y_m, then the denominators.
    den = _WORKSPACE.take("den", y.shape)
    for model, r_model in zip(models.values(), r):
        _fresnel(model, xi, gap, temperature, y, y_sq, *r_model, den)
    # The first model's r_TE takes the TE product, the second's r_TM the TM one.
    (out, r_tm_a), (r_te_b, r_tm) = r[0], r[-1]
    np.multiply(out, r_te_b, out=out)
    np.multiply(r_tm_a, r_tm, out=r_tm)
    np.subtract(exp_y, out, out=den)
    out /= den
    np.subtract(exp_y, r_tm, out=den)
    r_tm /= den
    out += r_tm
    out *= y_sq
    return out


def _k_integrals_adaptive(pairs, xi, gap, temperature, num):
    """(1/8a^3) int_{y_lo}^{y_lo+60} y^2 F(y) dy per pair and xi, by the nested CC ladder.

    Every row takes one _k_rule per order (see the module docstring):
    _log_rule over offsets y - y_lo in [1e-9, 60] plus the sliver
    [y_lo, y_lo + 1e-9] as one midpoint node outside the rule, 1e-9
    F(y_lo + 5e-10), the first rung's last node row.  The pass builds a
    rung's grid of y once and evaluates the pairs one at a time: each
    pair's integrand, then its ladder, which climbs and stops for that pair
    alone.  A climb builds the grid at its own nodes, so the next pair's
    first rung builds it again.  Returns the finer rule and its error as
    (pairs, rows) arrays, the two halves of one (2, pairs, rows) array.
    Rows whose lower limit reaches 60 are exactly zero, by rule.  They are
    sampled at xi = 0, since at a hot enough temperature their own
    frequencies overflow the material formulas.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    y_lo = np.minimum(2.0 * gap * xi / C, _Y_CUT)
    live = y_lo < _Y_CUT
    xi = np.where(live, xi, 0.0)
    rows = len(xi)
    # The offsets the grid was last built at, and the grid.
    built = (None,)

    def sample(pair, offsets):
        # The integrand of pair at offsets: on the first rung every node of
        # the rule and the sliver's midpoint, on a climb its odd nodes.
        nonlocal built
        if built[0] is not offsets:
            grid = _WORKSPACE.take("grid", (3, len(offsets), rows))
            y = np.add(offsets[:, None], y_lo, out=grid[0])
            np.exp(y, out=grid[1])
            np.multiply(y, y, out=grid[2])
            built = offsets, grid
        return _k_integrand(pair, xi, gap, temperature, built[1])

    first = _k_rule(2 * _K_ORDER_START)
    out = np.empty((2, len(pairs), rows))
    try:
        for p, pair in enumerate(pairs):
            f = sample(pair, first[0])
            out[:, p] = _nested_cc([f[:-1]], lambda offsets, pair=pair: [sample(pair, offsets)],
                                   _k_rule, first, _K_ORDER_MAX, num.rel_tol_quadrature,
                                   f[-1] * _Y_SLIVER)[:2]
    finally:
        _WORKSPACE.trim()
    # Rows at the cutoff are sampled only to keep the block whole.
    out[:, :, ~live] = 0.0
    out /= 8.0 * gap**3
    return out


def _log_grid_integral(xi_lo, xi_hi, order, ceiling, args, first=None):
    """int_{xi_lo}^{xi_hi} J(xi) dxi of one pair, by the nested CC ladder of _log_rule.

    args is (gap, temperature, pair, num).  The ladder starts at the given
    order and stops by ceiling; every rung is _log_rule(xi_lo, xi_hi,
    order).  first, if given, is (rule, (values, errors)): the starting
    rung's _log_rule and the pair's row of what _k_integrals_adaptive
    returns at its nodes, which are then not sampled again.  The k-errors
    are integrated by the same rule, as its companion.  Returns (finer
    rule, its k-integration error, its rule error, its node count,
    xi_lo J(xi_lo)) as Python numbers, the last from the x = -1 end node.
    The material response is evaluated at the requested temperature.
    """
    gap, temperature, pair, num = args
    rule = partial(_log_rule, xi_lo, xi_hi)

    def climb(xi):
        return _k_integrals_adaptive([pair], xi, gap, temperature, num)[:, 0]

    start, k = first or (rule(order), None)
    k = climb(start[0]) if k is None else k
    value, err, order, (k_err,) = _nested_cc(k, climb, rule, start, ceiling,
                                             num.rel_tol_quadrature)
    return float(value), float(k_err), float(err), order + 1, float(xi_lo * k[0][-1])


def plate_pressures(gap, temperature, pairs, num=DEFAULT_NUMERICS):
    """The PressureResult of each (mat_a, mat_b) pair at one (gap, T), as one batch.

    The pairs share the first k-pass; every later pass holds one pair.  The
    first pass evaluates the pairs one at a time over one y grid (see
    _k_integrals_adaptive), and then each pair climbs its own frequency
    ladders and doubles its own N until its Matsubara sum stops.  Each
    result is therefore bit for bit the one its pair gets alone, from
    plate_pressure.  Raises DomainError before evaluating anything for a gap
    or temperature outside its domain, and for a gap at which a
    free-electron model's response vanishes from eps: where eps(i c/2a) - 1,
    at the frequency whose y_lo is 1, rounds to 0 (below ~9e-17 m for
    aluminium), or c/2a itself overflows.  The pressure there would be
    silently wrong, and exactly 0 with zero bars further down.
    Raises it too where a numpy pass or a result overflows, so every number
    returned is finite and no numpy warning is printed.  Every evaluation
    enters the engine here (see the module docstring).
    """
    _require_domain(gap, temperature, pairs)
    try:
        # An overflow inside numpy raises here instead of printing a warning.
        with np.errstate(over="raise", invalid="raise"):
            results = _plate_pressures(gap, temperature, pairs, num) if pairs else []
        finite = all(math.isfinite(v) for r in results
                     for v in (r.pressure, r.truncation_estimate, r.quadrature_estimate))
    except FloatingPointError:
        finite = False
    if not finite:
        raise DomainError(f"the pressure at gap {gap!r} m and temperature "
                          f"{temperature!r} K overflows")
    return results


def _require_domain(gap, temperature, pairs):
    """The DomainError plate_pressures raises before evaluating anything."""
    require_positive("gap", gap)
    require_nonnegative("temperature", temperature)
    xi_gap = C / (2.0 * gap)
    # In pair order, so the same batch meets the same refusal first on every run.
    for model in dict.fromkeys(m for pair in pairs for m in pair
                               if not isinstance(m, IdealMetal)):
        if not (math.isfinite(xi_gap) and eps_imag_freq(model, xi_gap, temperature) > 1.0):
            raise DomainError(f"the material response vanishes at gap {gap!r} m: "
                              "eps(i c/2a) - 1 rounds to 0")


def _plate_pressures(gap, temperature, pairs, num):
    """plate_pressures for checked pairs, at least one."""
    # k_B T / pi = pref * xi_1: the sum and the integral share one prefactor.
    pref = HBAR / (2.0 * math.pi**2)
    xi_1 = 2.0 * math.pi * K_B * temperature / HBAR
    # The frequency grid ends where J vanishes under the y cutoff and starts
    # at xi_min, below which J is flat.
    xi_min, xi_hi = 1e-9 * C / (2.0 * gap), _Y_CUT * C / (2.0 * gap)
    ceiling = 1 << ((2 * num.t_zero_nodes).bit_length() - 1)
    if (2 * _N_EXPLICIT + 1) * xi_1 < xi_min:
        # T = 0, or so cold that every explicit term lies below xi_min.  Every
        # such ladder at default numerics climbs past CC-64, so it starts at CC-128.
        order = min(2 * _FREQ_ORDER_START, ceiling)
        rule = _log_rule(xi_min, xi_hi, order)
        results = []
        for pair, *k in zip(pairs, *_k_integrals_adaptive(pairs, rule[0], gap, temperature, num)):
            # The pair's row of the shared pass is its ladder's first rung.
            value, quad_err, rule_err, nodes, low = _log_grid_integral(
                xi_min, xi_hi, order, ceiling, (gap, temperature, pair, num), (rule, k))
            results.append(PressureResult(pref * (value + low), nodes, pref * low,
                                          pref * (quad_err + rule_err)))
        return results
    # Terms with 2 a xi_n / c >= Y_CUT vanish identically under the cutoff.
    n_ceiling = xi_hi // xi_1 + 2

    def step(n, start):
        # The Matsubara step at n as one k-integral pass: the terms start..2n + 1
        # (n_ceiling at most), and while terms lie beyond 2n, the first rungs of
        # the tail behind P(2n) over [(2n+1/2) xi_1, xi_hi] and of the block
        # over [(n+1/2), (2n+1/2)] xi_1.  Returns the pass's frequencies, each
        # ladder's (range, first rung's rule) and where each part of the pass ends.
        ns = np.arange(start, min(n_ceiling, 2 * n + 1) + 1, dtype=float)
        ranges = () if n_ceiling <= 2 * n else (
            ((2 * n + 0.5) * xi_1, xi_hi, min(_FREQ_ORDER_START, ceiling), ceiling),
            ((n + 0.5) * xi_1, (2 * n + 0.5) * xi_1, _BLOCK_ORDER, _BLOCK_ORDER))
        rules = [(r, _log_rule(*r[:3])) for r in ranges]
        ends = list(accumulate([len(ns)] + [len(rule[0]) for _, rule in rules]))
        return np.concatenate([ns * xi_1] + [rule[0] for _, rule in rules]), rules, ends

    first = step(_N_EXPLICIT, 0)
    passes = _k_integrals_adaptive(pairs, first[0], gap, temperature, num)
    # The n = 0 term at half weight.
    passes[:, :, 0] *= 0.5
    results = []
    for pair, vals, errs in zip(pairs, *passes):
        # The pair's row of the shared pass, then passes of its own; prev is
        # the last truncation estimate.
        n, prev, (_, rules, ends) = _N_EXPLICIT, math.inf, first
        # The terms f(n) and their k-errors.
        f = err = np.zeros(0)
        while True:
            f = np.concatenate((f, vals[: ends[0]]))
            err = np.concatenate((err, errs[: ends[0]]))
            if not rules:
                # f holds every term up to n_ceiling; the rest vanish under the cutoff.
                results.append(PressureResult(pref * xi_1 * float(f.sum()), len(f), 0.0,
                                              pref * xi_1 * float(err.sum())))
                break
            # Each rule's first rung is the next len(nodes) rows after the terms.
            (tail, tail_err, rule_err, nodes, _), (block, _, block_err, _, _) = (
                _log_grid_integral(*ladder, (gap, temperature, pair, num),
                                   (rule, (vals[a:b], errs[a:b])))
                for (ladder, rule), a, b in zip(rules, ends, ends[1:]))
            # P(2n) = xi_1 [sum_{m<=2n} f_m + f'(2n+1/2)/24] + int_{(2n+1/2) xi_1} J dxi,
            # and its k-integration error.
            value = xi_1 * float(f[: 2 * n + 1].sum() + (f[2 * n + 1] - f[2 * n]) / 24.0) + tail
            quad_err = xi_1 * float(err[: 2 * n + 2].sum()) + tail_err
            # |P(n) - P(2n)|: the two tails differ by the terms n < m <= 2n, the
            # f' corrections and the block int J dxi over [(n+1/2), (2n+1/2)] xi_1,
            # the CC-32 rule with its error added.
            slopes = (f[n + 1] - f[n] - f[2 * n + 1] + f[2 * n]) / 24.0
            estimate = abs(xi_1 * float(slopes - f[n + 1 : 2 * n + 1].sum()) + block) + block_err
            # Stop at the series tolerance, or where more explicit terms
            # cannot help: the k-quadrature or frequency-rule error
            # dominates, or the estimate stops shrinking.
            if not (estimate > max(num.rel_tol_series * value, quad_err, rule_err)
                    and estimate < prev):
                results.append(PressureResult(pref * value, len(f) + nodes, pref * estimate,
                                              pref * (quad_err + rule_err)))
                break
            n, prev = 2 * n, estimate
            xi, rules, ends = step(n, len(f))
            vals, errs = _k_integrals_adaptive([pair], xi, gap, temperature, num)[:, 0]
    return results


def plate_pressure(gap, temperature, mat_a, mat_b, num=DEFAULT_NUMERICS):
    """Attractive Casimir pressure magnitude (Pa) between parallel plates.

    Sums the Matsubara terms n <= N explicitly and replaces the rest by the
    frequency integral of the same k-integral (see the module docstring);
    at T = 0 there are no explicit terms.  Only the stop rule and the y
    cutoff bound N; there is no term budget.  The one-pair case of
    plate_pressures, whose DomainError it raises.
    """
    return plate_pressures(gap, temperature, [(mat_a, mat_b)], num)[0]


def differential_pressure(gap, temperature, mat_a, mat_b, reference, num=DEFAULT_NUMERICS):
    """Signed pressure difference P(mat_a, mat_b) - P(reference pair) in Pa.

    ``reference`` is a (model, model) tuple evaluated at the same gap and
    temperature; used for plasma-vs-Drude and superconducting-vs-normal
    differentials.  Pairs whose responses at this temperature are the same
    (a superconductor above t_c against its normal state) differ by exactly
    0.0, which is returned without evaluating either; otherwise both pairs
    are one plate_pressures call, each evaluated exactly as plate_pressure
    would.  Either way, the arguments plate_pressures refuses raise its
    DomainError.
    """
    ref_a, ref_b = reference
    pairs = [(mat_a, mat_b), (ref_a, ref_b)]
    key = (response(mat_a, temperature), response(mat_b, temperature))
    if (response(ref_a, temperature), response(ref_b, temperature)) in (key, key[::-1]):
        _require_domain(gap, temperature, pairs)
        return 0.0
    p, p_ref = plate_pressures(gap, temperature, pairs, num)
    return p.pressure - p_ref.pressure
