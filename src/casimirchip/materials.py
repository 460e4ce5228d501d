"""Dielectric response models evaluated at imaginary frequency.

The platform is built to distinguish competing descriptions of a metal's
low-frequency reflectivity, so the material model is a first-class tagged
variant:

* ``IdealMetal``      -- perfectly reflecting at all frequencies; handled via
  its exact reflection limits, never via a finite permittivity.
* ``Plasma``, ``Drude`` and ``SuperconductorTwoFluid`` -- one free-electron
  response with plasma frequency omega_p, relaxation rate gamma and a
  superfluid fraction f_s that responds without dissipation:

      eps(i xi) = 1 + f_s omega_p^2 / xi^2 + (1 - f_s) omega_p^2 / (xi (xi + gamma)),

  with f_s = 1 for plasma, 0 for Drude and the Gorter-Casimir
  1 - (T/T_c)^4 for the two-fluid superconductor.  The zero-frequency TE
  reflection keeps the superfluid weight f_s omega_p^2 only.

On the imaginary axis eps is real and >= 1 for all of these, so no complex
arithmetic is needed anywhere in the pressure engine.
"""

from __future__ import annotations

import math

from .errors import POSITIVE, DomainError, require_nonnegative, require_positive
from .records import record


def _check_parameters(model):
    """omega_p and t_c finite and > 0, gamma finite and >= 0 (where present)."""
    for name, check in (("omega_p", require_positive), ("gamma", require_nonnegative),
                        ("t_c", require_positive)):
        value = getattr(model, name, None)
        if value is not None:
            check(name, value)


@record
class IdealMetal:
    """Perfect conductor: r_TE = -1, r_TM = 1 at every frequency and angle."""


@record
class Plasma:
    """Collisionless free-electron response with plasma frequency omega_p (rad/s)."""

    omega_p: float

    def __post_init__(self):
        _check_parameters(self)


@record
class Drude:
    """Free-electron response with relaxation rate gamma (rad/s)."""

    omega_p: float
    gamma: float

    def __post_init__(self):
        _check_parameters(self)


@record
class SuperconductorTwoFluid:
    """Two-fluid superconductor: plasma-like superfluid + Drude-like normal fluid.

    Above t_c this coincides with ``Drude(omega_p, gamma)`` at every
    frequency; at T = 0 it coincides with ``Plasma(omega_p)``.
    """

    omega_p: float
    gamma: float
    t_c: float

    def __post_init__(self):
        _check_parameters(self)


def superfluid_fraction(temperature, t_c):
    """Gorter-Casimir superfluid fraction f_s = 1 - (T/T_c)^4, clamped to [0, 1].

    Returns 0 at and above t_c, 1 at T = 0; continuous across the
    transition.
    """
    require_nonnegative("temperature", temperature)
    require_positive("t_c", t_c)
    if temperature >= t_c:
        return 0.0
    return 1.0 - (temperature / t_c) ** 4


def _free_electron(model, temperature):
    """(omega_p, gamma, f_s) of a free-electron model at ``temperature``."""
    if isinstance(model, Plasma):
        return model.omega_p, 0.0, 1.0
    if isinstance(model, Drude):
        return model.omega_p, model.gamma, 0.0
    if isinstance(model, SuperconductorTwoFluid):
        return model.omega_p, model.gamma, superfluid_fraction(temperature, model.t_c)
    if isinstance(model, IdealMetal):
        raise TypeError(
            "IdealMetal has no finite permittivity; use its exact reflection limits"
        )
    raise TypeError(f"unknown material model: {model!r}")


def response(model, temperature):
    """What sets a model's reflection at ``temperature``.

    (omega_p, gamma, f_s) for the free-electron models, None for
    IdealMetal.  eps(i xi) and the zero-frequency plasma weight depend on
    nothing else, so two models with equal responses reflect identically,
    bit for bit (above t_c the two-fluid superconductor has Drude's).
    """
    if isinstance(model, IdealMetal):
        return None
    return _free_electron(model, temperature)


def eps_imag_freq(model, xi, temperature):
    """Permittivity eps(i xi) of ``model`` at imaginary frequency xi (rad/s).

    xi must be strictly positive: the xi = 0 point is where the competing
    models disagree and is handled analytically inside the pressure engine,
    never by evaluating eps at 0.  ``temperature`` (K) sets the two-fluid
    model's superfluid fraction and is ignored by the other models.  Accepts
    scalars or numpy arrays of xi; a float skips numpy, to the same bits.
    """
    omega_p, gamma, f_s = _free_electron(model, temperature)
    if isinstance(xi, float):
        scalar, valid = True, math.isfinite(xi) and xi > 0.0
    else:
        import numpy as np
        scalar, xi = np.ndim(xi) == 0, np.asarray(xi, dtype=float)
        valid = np.isfinite(xi).all() and not (xi <= 0.0).any()
    if not valid:
        raise DomainError(
            f"xi {POSITIVE}; the zero-frequency term must use the "
            "analytic limit path"
        )
    # A term of weight exactly 0 is skipped and a weight of exactly 1 leaves
    # bits as they are, so plasma (f_s = 1) and Drude (f_s = 0) give exactly
    # their one-term formulas.  The square is a product, as numpy's ** 2 is.
    out = 1.0
    if f_s > 0.0:
        ratio = omega_p / xi
        out = out + f_s * (ratio * ratio)
    if f_s < 1.0:
        out = out + ((1.0 - f_s) * omega_p**2) / (xi * (xi + gamma))
    return float(out) if scalar else out


def zero_frequency_plasma_weight(model, temperature):
    """Effective omega_p^2 governing the TE reflection at exactly zero frequency.

    Only the superfluid share f_s omega_p^2 survives: all of it for plasma,
    none for Drude (the TE zero mode vanishes), f_s(T) of it for the
    two-fluid superconductor.  IdealMetal is handled by its exact limits and
    is rejected here.
    """
    omega_p, _, f_s = _free_electron(model, temperature)
    return f_s * omega_p**2
