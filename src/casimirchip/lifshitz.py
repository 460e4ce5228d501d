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
|finer| as its error (every sample is >= 0, so |finer| is the sum of
|terms|), and the order doubles while that exceeds the quadrature
tolerance, up to a ceiling.  That is the coarser rule's error, a
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
All rows of a pair climb together, so its ladder stops when every one of
its rows has converged.  Each polarization's t/(1 - t) is sampled as
r_a r_b / (e^y - r_a r_b), one exp per sample, with r_TE in a form free of
the kappa - kappa_m cancellation.

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
estimate.  Every default call at T = 0 climbs past the 65-node rung, so
that ladder starts at the 129-node one (CC-64 at its even indices).

Each Matsubara step is one k-integral pass: the step that extends the
explicit terms to 2N + 1 also evaluates the first rungs of the tail behind
P(2N) and of the block, so at default numerics a call at 100 nm evaluates
228 k-integral rows in one pass at finite T (130 explicit terms, the
65-node tail rung and the 33-node block) and 129 at T = 0.  Further passes
come only from the rungs a frequency ladder climbs to and from doubling N.
The cost does not grow as T falls, and the evaluation order is fixed, so
results are bit-stable regardless of how callers parallelize.

Material pairs are evaluated in batches at one (gap, T) by plate_pressures:
plate_pressure is a batch of one pair, differential_pressure one of two,
and a (gap, T) cell of designer.run_gap_sweep one of all len(pairs) pairs
of the sweep.  The pairs share every xi_n and every y grid, so kappa, e^y
and y^2 are computed once per grid and each distinct response
(``materials.response``: omega_p, gamma and f_s at T, or a perfect
conductor) goes through the Fresnel coefficients once per grid; per pair
only the products r_a r_b, the two divisions and the y^2 multiply remain.
The batch climbs together, until its last pair has stopped, and each pair's
sums are taken where it stops alone: at the first rung where its rows have
converged, and at the first N where its Matsubara sum stops; a pair that
has stopped rides along.  Every sum is per row, so each pair's result is
bit for bit the one it gets alone.  Two pairs with the same responses at T
(a superconductor above t_c against its normal state) differ by exactly
0.0, which a differential returns without evaluating either.  Every pass
over a (rows, nodes) grid writes into a per-thread workspace whose arrays
the thread's next call reuses, instead of allocating (and page-faulting)
fresh ones: 2.1 MB per thread for one pair and 3.1 MB for two with two
responses at default numerics (so a thread of the bundled two-pair sweep
holds 3.1 MB), which a thread's first call pays for.  A block larger than
the largest a call at default numerics evaluates (228 rows x 130 nodes per
pair, the first Matsubara step) gets arrays of its own, so tighter numerics
leave nothing larger behind, and nothing the engine returns is a view of
the workspace.

The xi = 0 term is always computed from the analytic reflection limits of
each model, never from eps(i*0): that point is exactly where the Drude and
plasma descriptions of the TE zero mode part ways.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import C, HBAR, K_B
from .errors import DomainError, require_nonnegative, require_positive
from .materials import IdealMetal, eps_imag_freq, response, zero_frequency_plasma_weight

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
# The largest (rows, nodes) block a call at default numerics evaluates: the
# first Matsubara step's 2 N + 2 explicit terms, 65-node tail rung and
# 33-node block, on the 129-node rule and the sliver node.
_KEPT_BLOCK = ((2 * _N_EXPLICIT + 2 + _FREQ_ORDER_START + 1 + _BLOCK_ORDER + 1)
               * (2 * _K_ORDER_START + 2))


class _Workspace(threading.local):
    """Scratch arrays of one thread, reused by every call it makes.

    take(name, shape) returns an uninitialised array over the flat buffer
    kept under name, grown when a block needs more.  A request whose last
    two axes (rows, nodes) span more than _KEPT_BLOCK, which only tighter
    numerics make, gets an array of its own instead, so such a call leaves
    no larger buffer behind.  An array stays valid until the next take of its name;
    nothing the engine returns is a view of one.
    """

    def __init__(self):
        self.buffers = {}

    def take(self, name, shape):
        if shape[-2] * shape[-1] > _KEPT_BLOCK:
            return np.empty(shape)
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


_WORKSPACE = _Workspace()


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


def _weighted(samples, w):
    """samples * w in the workspace, contiguous in the shape of samples."""
    return np.multiply(samples, w, out=_WORKSPACE.take("terms", samples.shape))


def _nested_cc(g, sample, ceiling, tol, const=0.0):
    """The nested Clenshaw-Curtis ladder on [-1, 1], from the order of g up to ceiling.

    g[0] holds the integrand as (pairs, rows, nodes) or, with one row per
    pair, (pairs, nodes): per material pair, rows integrated alike at the
    nodes of the starting rule; g[1:] hold any companions that the same
    rule integrates.  sample(x) returns such a sequence at new nodes x for
    every pair, and may reuse the memory of g and of the workspace array
    "terms".  The coarser rule is the samples at even indices, and each
    doubling evaluates only the new odd nodes.  const is a piece outside
    the rule, added to both sums.  The error is |fine - coarse| plus the
    fine sum's round-off bound, eps per node times |fine|: every sample and
    const is >= 0 (0 <= r_a r_b <= 1, and the weights and Jacobians are
    positive), so |fine| is the sum of |terms| bit for bit.  The batch
    climbs until its last pair has stopped, and each pair's sums are taken
    at the first rung where it stops: where every one of its rows has an
    error within tol times its |fine| (floored at 1e-12 of the pair's
    largest row; a single row is its own floor), or at ceiling.  Every sum
    is per row, so no pair's result depends on the others.  Returns (fine,
    error, order, the companions' fine sums), each per pair.
    """
    count, order = len(g[0]), g[0].shape[-1] - 1
    # orders[p] is the order pair p stopped at, 0 while it climbs; out holds
    # the sums of the pairs that have stopped.
    orders, out = [0] * count, None
    coarse = _weighted(g[0][..., ::2], _clenshaw_curtis(order // 2)[1]).sum(axis=-1) + const
    while True:
        w = _clenshaw_curtis(order)[1]
        fine = _weighted(g[0], w).sum(axis=-1) + const
        size = abs(fine)
        err = abs(fine - coarse) + (order + 2) * _EPS * size
        if size.ndim > 1:
            size = np.maximum(size, size.max(axis=-1, initial=0.0, keepdims=True) * 1e-12)
        stop = (err <= tol * size).reshape(len(size), -1).all(axis=1).tolist()
        stopped = [p for p, s in enumerate(stop) if not orders[p] and (s or order >= ceiling)]
        sums = [fine, err] + [(c * w).sum(axis=-1) for c in g[1:]]
        if len(stopped) == count:
            return fine, err, [order] * count, sums[2:]
        if stopped:
            out = out or [np.empty_like(a) for a in sums]
            for dst, src in zip(out, sums):
                dst[stopped] = src[stopped]
            for p in stopped:
                orders[p] = order
            if all(orders):
                return out[0], out[1], orders, out[2:]
        # sample may reuse the memory that the first rung's g lives in.
        g = [a.copy() for a in g]
        coarse, order = fine, 2 * order
        g = [_nest(a, b) for a, b in zip(g, sample(_clenshaw_curtis(order)[0][1::2]))]


def _fresnel(model, xi_col, kappa, temperature, r_te, r_tm, kappa_m):
    """(r_TE, r_TM) on a (rows, nodes) grid, written into r_te and r_tm.

    xi_col is the (rows, 1) frequency column.  kappa is the full transverse
    decay constant sqrt(k^2 + xi^2/c^2), which the y substitution supplies
    directly, and kappa_m^2 = kappa^2 + chi with chi = (eps - 1) xi^2/c^2.
    r_TE = (kappa - kappa_m)/(kappa + kappa_m) is evaluated as
    -chi / (kappa + kappa_m)^2, which has no kappa - kappa_m cancellation
    where |r_TE| << 1.  Rows with xi = 0 use the analytic zero-frequency
    limits: r_TM = 1, and r_TE the same formula with chi the model's
    residual zero-frequency plasma weight over c^2.  kappa_m is scratch of
    the grid's shape, so no pass allocates.
    """
    if isinstance(model, IdealMetal):
        r_te.fill(-1.0)
        r_tm.fill(1.0)
        return

    pos = xi_col > 0.0
    eps = eps_imag_freq(model, np.where(pos, xi_col, 1.0), temperature)
    chi = (eps - 1.0) * (xi_col / C) ** 2
    zero = ~pos[:, 0]
    any_zero = zero.any()
    if any_zero:
        # xi = 0: all these metals reflect TM perfectly; the TE coefficient
        # keeps only the model's residual zero-frequency plasma weight.
        chi[zero] = zero_frequency_plasma_weight(model, temperature) / C**2
    np.multiply(kappa, kappa, out=kappa_m)
    kappa_m += chi
    np.sqrt(kappa_m, out=kappa_m)
    # r_te holds the TM denominator until r_tm is done.
    np.multiply(eps, kappa, out=r_tm)
    np.add(r_tm, kappa_m, out=r_te)
    r_tm -= kappa_m
    r_tm /= r_te
    if any_zero:
        r_tm[zero] = 1.0
    np.add(kappa, kappa_m, out=r_te)
    r_te *= r_te
    np.divide(-chi, r_te, out=r_te)


def _k_integrand(pairs, xi_col, gap, temperature, y):
    """y^2 F(y) of each material pair on one (rows, nodes) grid of y, as (pairs, rows, nodes).

    xi_col is the (rows, 1) frequency column.  F sums t/(1-t) over both
    polarizations with t = r_a r_b e^{-y}, taken as r_a r_b / (e^y - r_a r_b)
    so that one exp serves both.  kappa, e^y and y^2 are computed once for
    the grid and each distinct model object goes through _fresnel once
    (plate_pressures passes one object per response); per pair only the
    products r_a r_b, the two divisions and the y^2 multiply remain.  Every
    k-integral sample passes through here once.  The result and every pass
    live in the thread's workspace: the result is valid until the next call.
    """
    shape = y.shape
    models = {id(m): m for pair in pairs for m in pair}
    slot = {key: i for i, key in enumerate(models)}
    kappa, kappa_m, r_tm = _WORKSPACE.take("grid", (3,) + shape)
    np.divide(y, 2.0 * gap, out=kappa)
    r = _WORKSPACE.take("fresnel", (len(models), 2) + shape)
    for model, r_model in zip(models.values(), r):
        _fresnel(model, xi_col, kappa, temperature, *r_model, kappa_m)
    # kappa and kappa_m are free again, and the ladder's scratch is free
    # while the integrand is sampled.
    exp_y = np.exp(y, out=kappa)
    y_sq = np.multiply(y, y, out=kappa_m)
    out = _WORKSPACE.take("integrand", (len(pairs),) + shape)
    den = _WORKSPACE.take("terms", shape)
    for r_te, (a, b) in zip(out, pairs):
        r_a, r_b = r[slot[id(a)]], r[slot[id(b)]]
        np.multiply(r_a[0], r_b[0], out=r_te)
        np.multiply(r_a[1], r_b[1], out=r_tm)
        np.subtract(exp_y, r_te, out=den)
        r_te /= den
        np.subtract(exp_y, r_tm, out=den)
        r_tm /= den
        r_te += r_tm
        r_te *= y_sq
    return out


def _k_integrals_adaptive(pairs, xi, gap, temperature, num):
    """(1/8a^3) int_{y_lo}^{60} y^2 F(y) dy per pair and xi, by the nested Clenshaw-Curtis ladder.

    The rule is Clenshaw-Curtis in u = ln(y - y_lo) on [ln 1e-9,
    ln(60 - y_lo)] plus the sliver [y_lo, y_lo + 1e-9] as one midpoint
    node outside the rule, 1e-9 F(y_lo + 5e-10), evaluated with the first
    rung (see the module docstring).  Every pair shares the y grid and
    each rung; each stops where it stops alone.  Returns the finer rule and
    its error as (pairs, rows) arrays.  Rows whose lower limit reaches the cutoff are
    exactly zero.  They are sampled at xi = 0, since at a hot enough
    temperature their own frequencies overflow the material formulas.
    """
    xi_col = np.atleast_1d(np.asarray(xi, dtype=float))[:, None]
    y_lo = np.minimum(2.0 * gap * xi_col / C, _Y_CUT)
    live = y_lo < _Y_CUT
    xi_col = np.where(live, xi_col, 0.0)
    u_lo = math.log(_Y_SLIVER)
    half = 0.5 * (np.log(np.maximum(_Y_CUT - y_lo, _Y_SLIVER)) - u_lo)
    rows = len(xi_col)

    def sample(x, sliver=False):
        # The integrand at the nodes x, then, if asked, at the sliver's
        # midpoint, and the Jacobian at the nodes x.
        nodes = len(x)
        dy = np.multiply(x + 1.0, half, out=_WORKSPACE.take("dy", (rows, nodes)))
        dy += u_lo
        np.exp(dy, out=dy)
        y = _WORKSPACE.take("y", (rows, nodes + sliver))
        np.add(y_lo, dy, out=y[:, :nodes])
        if sliver:
            y[:, nodes] = y_lo[:, 0] + 0.5 * _Y_SLIVER
        f = _k_integrand(pairs, xi_col, gap, temperature, y)
        return f, np.multiply(dy, half, out=dy)

    f, jac = sample(_clenshaw_curtis(2 * _K_ORDER_START)[0], sliver=True)
    # A row at the cutoff has jac = 0; a zero sliver weight makes it exactly 0.
    sliver = f[..., -1] * np.where(live[:, 0], _Y_SLIVER, 0.0)
    g = f[..., :-1]
    g *= jac
    fine, err, _, _ = _nested_cc([g], lambda x: [np.multiply(*sample(x))], _K_ORDER_MAX,
                                 num.rel_tol_quadrature, sliver)
    return fine / (8.0 * gap**3), err / (8.0 * gap**3)


def _log_nodes(xi_lo, xi_hi, x):
    """The frequencies at the nodes x of [-1, 1] mapped linearly onto [ln xi_lo, ln xi_hi].

    Returns them with the half-width of that range, du/dx.
    """
    u_lo = math.log(xi_lo)
    half = 0.5 * (math.log(xi_hi) - u_lo)
    return np.exp(u_lo + (x + 1.0) * half), half


def _log_grid_integral(xi_lo, xi_hi, order, ceiling, args, first=None):
    """int_{xi_lo}^{xi_hi} J(xi) dxi by the nested Clenshaw-Curtis ladder in u = ln(xi).

    args is (gap, temperature, pairs, num).  The ladder starts at the given
    order and stops by ceiling, each pair where it stops alone.  first, if given,
    is the (values, errors) that _k_integrals_adaptive returns for the
    pairs at the starting rule's nodes (_log_nodes), which are then not
    sampled again.  The k-errors ride along under the same rule.  Returns,
    per pair, (finer rule, its k-integration error, its rule error, its
    node count, xi_lo J(xi_lo)) as Python numbers, the last from the
    x = -1 end node.  Material response is evaluated at the requested
    temperature.
    """
    gap, temperature, pairs, num = args

    def sample(x, k=None):
        # J and its k-error at the nodes x, each times the Jacobian xi du/dx.
        xi, half = _log_nodes(xi_lo, xi_hi, x)
        vals, errs = k or _k_integrals_adaptive(pairs, xi, gap, temperature, num)
        jac = xi * half
        return vals * jac, errs * jac

    g = sample(_clenshaw_curtis(order)[0], first)
    half = _log_nodes(xi_lo, xi_hi, 0.0)[1]
    value, err, order, k_err = _nested_cc(g, sample, ceiling, num.rel_tol_quadrature)
    return list(zip(value.tolist(), k_err[0].tolist(), err.tolist(), [o + 1 for o in order],
                    (g[0][:, -1] / half).tolist()))


def plate_pressures(gap, temperature, pairs, num=DEFAULT_NUMERICS):
    """The PressureResult of each (mat_a, mat_b) pair at one (gap, T), as one batch.

    The pairs share every frequency, y grid and k-integrand pass (see
    _k_integrand), and the batch climbs every ladder and doubles N until its
    last pair has stopped, but every stop decision is per pair: each
    pair's sums are taken at the first k- and frequency rung where it
    stops, and its result at the first N where its Matsubara sum stops,
    after which it rides along.  Each pair's terms and k-errors are one row
    of two (pairs, terms) arrays, so each result is bit for bit the one its
    pair gets alone, from plate_pressure.  Raises DomainError before
    evaluating anything for a gap or temperature outside its domain, and for
    a gap at which a free-electron model's response vanishes from eps: where
    eps(i c/2a) - 1, at the frequency whose y_lo is 1, rounds to 0 (below
    ~9e-17 m for aluminium), or c/2a itself overflows.  The pressure there
    would be silently wrong, and exactly 0 with zero bars further down.
    Raises it too where a numpy pass or a result overflows, so every number
    returned is finite and no numpy warning is printed.
    """
    _require_domain(gap, temperature, pairs)
    return _finite_pressures(gap, temperature, pairs, num)


def _require_domain(gap, temperature, pairs):
    """The DomainError plate_pressures raises before evaluating anything."""
    require_positive("gap", gap)
    require_nonnegative("temperature", temperature)
    xi_gap = C / (2.0 * gap)
    for model in {m for pair in pairs for m in pair if not isinstance(m, IdealMetal)}:
        if not (math.isfinite(xi_gap) and eps_imag_freq(model, xi_gap, temperature) > 1.0):
            raise DomainError(f"the material response vanishes at gap {gap!r} m: "
                              "eps(i c/2a) - 1 rounds to 0")


def _finite_pressures(gap, temperature, pairs, num):
    """plate_pressures for arguments _require_domain accepts."""
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


def _plate_pressures(gap, temperature, pairs, num):
    """plate_pressures for checked arguments and at least one pair."""
    # k_B T / pi = pref * xi_1: the sum and the integral share one prefactor.
    pref = HBAR / (2.0 * math.pi**2)
    xi_1 = 2.0 * math.pi * K_B * temperature / HBAR
    # The frequency grid ends where J vanishes under the y cutoff and starts
    # at xi_min, below which J is flat.
    xi_min, xi_hi = 1e-9 * C / (2.0 * gap), _Y_CUT * C / (2.0 * gap)
    ceiling = 1 << ((2 * num.t_zero_nodes).bit_length() - 1)
    # One model object per response (materials.response), which is how
    # _k_integrand tells the distinct ones apart.
    models = {}
    pairs = [tuple(models.setdefault(response(m, temperature), m) for m in pair)
             for pair in pairs]
    if (2 * _N_EXPLICIT + 1) * xi_1 < xi_min:
        # T = 0, or so cold that every explicit term lies below xi_min.  Every
        # such ladder at default numerics climbs past CC-64, so it starts at CC-128.
        return [PressureResult(pref * (value + low), nodes, pref * low,
                               pref * (quad_err + rule_err))
                for value, quad_err, rule_err, nodes, low
                in _log_grid_integral(xi_min, xi_hi, min(2 * _FREQ_ORDER_START, ceiling),
                                      ceiling, (gap, temperature, pairs, num))]
    # Terms with 2 a xi_n / c >= Y_CUT vanish identically under the cutoff.
    n_ceiling = xi_hi // xi_1 + 2
    n, results, trunc = _N_EXPLICIT, [None] * len(pairs), [math.inf] * len(pairs)
    # Row p of f (the terms f(n)) and of err (their k-errors) is pair p.
    f = err = np.zeros((len(pairs), 0))
    while True:
        # One k-integral pass for the Matsubara step at n: the terms up to
        # 2n + 1 (n_ceiling at most), the n = 0 term at half weight, and
        # while terms lie beyond 2n, the first rungs of the tail behind
        # P(2n) over [(2n+1/2) xi_1, xi_hi] and of the block over
        # [(n+1/2), (2n+1/2)] xi_1.
        ns = np.arange(f.shape[1], min(n_ceiling, 2 * n + 1) + 1, dtype=float)
        rules = () if n_ceiling <= 2 * n else (
            ((2 * n + 0.5) * xi_1, xi_hi, min(_FREQ_ORDER_START, ceiling), ceiling),
            ((n + 0.5) * xi_1, (2 * n + 0.5) * xi_1, _BLOCK_ORDER, _BLOCK_ORDER))
        xi = [ns * xi_1] + [_log_nodes(lo, hi, _clenshaw_curtis(order)[0])[0]
                            for lo, hi, order, _ in rules]
        vals, errs = _k_integrals_adaptive(pairs, np.concatenate(xi), gap, temperature, num)
        if n == _N_EXPLICIT:
            vals[:, 0], errs[:, 0] = 0.5 * vals[:, 0], 0.5 * errs[:, 0]
        cuts = np.cumsum([len(x) for x in xi])[:-1]
        vals, errs = np.split(vals, cuts, axis=1), np.split(errs, cuts, axis=1)
        f, err = np.concatenate((f, vals[0]), axis=1), np.concatenate((err, errs[0]), axis=1)
        if not rules:
            break
        tails, blocks = (_log_grid_integral(*rule, (gap, temperature, pairs, num), first)
                         for rule, first in zip(rules, zip(vals[1:], errs[1:])))
        for p, (tail, tail_err, rule_err, nodes, _), (block, _, block_err, _, _) in zip(
                range(len(pairs)), tails, blocks):
            # A pair whose sum has stopped rides along with its result kept.
            if results[p]:
                continue
            fp = f[p]
            # P(2n) = xi_1 [sum_{m<=2n} f_m + f'(2n+1/2)/24] + int_{(2n+1/2) xi_1} J dxi,
            # and its k-integration error.
            value = xi_1 * float(fp[: 2 * n + 1].sum() + (fp[2 * n + 1] - fp[2 * n]) / 24.0) + tail
            quad_err = xi_1 * float(err[p][: 2 * n + 2].sum()) + tail_err
            # |P(n) - P(2n)|: the two tails differ by the terms n < m <= 2n, the
            # f' corrections and the block int J dxi over [(n+1/2), (2n+1/2)] xi_1,
            # the CC-32 rule with its error added.
            slopes = (fp[n + 1] - fp[n] - fp[2 * n + 1] + fp[2 * n]) / 24.0
            estimate = abs(xi_1 * float(slopes - fp[n + 1 : 2 * n + 1].sum()) + block) + block_err
            prev, trunc[p] = trunc[p], estimate
            # Stop at the series tolerance, or where more explicit terms
            # cannot help: the k-quadrature or frequency-rule error
            # dominates, or the estimate stops shrinking.
            if not (estimate > max(num.rel_tol_series * value, quad_err, rule_err)
                    and estimate < prev):
                results[p] = PressureResult(pref * value, f.shape[1] + nodes, pref * estimate,
                                            pref * (quad_err + rule_err))
        if all(results):
            return results
        n *= 2
    # f now holds every term up to n_ceiling; the rest vanish under the cutoff.
    return [r or PressureResult(pref * xi_1 * float(fp.sum()), f.shape[1], 0.0,
                                pref * xi_1 * float(ep.sum()))
            for r, fp, ep in zip(results, f, err)]


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
    differentials.  Both pairs are one plate_pressures batch, each
    evaluated exactly as plate_pressure would; pairs whose responses at
    this temperature are the same (a superconductor above t_c against its
    normal state) differ by exactly 0.0, which is returned without
    evaluating either.  Either way, the arguments plate_pressures refuses
    raise its DomainError.
    """
    ref_a, ref_b = reference
    pairs = [(mat_a, mat_b), (ref_a, ref_b)]
    _require_domain(gap, temperature, pairs)
    key = (response(mat_a, temperature), response(mat_b, temperature))
    if (response(ref_a, temperature), response(ref_b, temperature)) in (key, key[::-1]):
        return 0.0
    p, p_ref = _finite_pressures(gap, temperature, pairs, num)
    return p.pressure - p_ref.pressure
