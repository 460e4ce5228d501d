"""Tensioned-nanostring mechanics for the beam pair.

The beams are modeled as taut strings: with ~GPa film stress, sub-micron
cross sections and hundreds of microns of length, the bending-stiffness
correction to both the static deflection and the fundamental frequency is
below 1% (flexural length scale sqrt(E I / S) ~ a few microns << L), so
the string equation

    -S w''(x) = q * 1_[x1, x2](x),   w(0) = w(L) = 0

replaces a full finite-element treatment.  Its solution is piecewise
quadratic, and the readout chain needs only its midpoint value
(``midpoint_deflection``), so the module is scalar arithmetic on Python
floats.  The evaporated metal loads the strings with mass but carries no
tension: the film is deposited after the nitride stress is set and relaxes
when the structure is released.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_nonnegative, require_positive, require_positive_fields


@dataclass(frozen=True)
class DeviceGeometry:
    """Nanobeam-pair geometry and film properties (SI units).

    ``effective_length`` is the span of the fundamental mode.  The physical
    strings are longer than the suspended section, so the overall
    dimensions underdetermine the modal span and it is an explicit input;
    the shipped example uses 340 um, which reproduces the ~950 kHz
    fundamental of the reference device with full film stress.
    """

    string_length: float          # m, overall string length
    effective_length: float       # m, modal span used by the string model
    width: float                  # m
    thickness: float              # m
    metal_eff_thickness: float    # m, metal thickness on the side faces
    metal_segment_length: float   # m, centered on the string
    plate_height: float           # m, height of the facing metalized walls
    gap: float                    # m
    film_stress: float            # Pa, tensile
    density_sin: float            # kg/m^3
    density_al: float             # kg/m^3

    def __post_init__(self):
        require_positive_fields(self)
        if self.metal_segment_length > self.effective_length:
            raise DomainError("metal_segment_length must not exceed effective_length")
        if self.effective_length > self.string_length:
            raise DomainError("effective_length must not exceed string_length")


@dataclass(frozen=True)
class BeamMechanicsDerived:
    """Derived string quantities: S = stress * (w t); f1 = (1/2L) sqrt(S/mu)."""

    tension: float  # N
    f1: float       # Hz
    m_eff: float    # kg
    k_eff: float    # N/m


def axial_tension(geometry):
    """Axial tension S = film_stress * (width * thickness) in N.

    Only the nitride cross section carries stress; the evaporated metal is
    unstressed.
    """
    return geometry.film_stress * geometry.width * geometry.thickness


def _mass_per_length(geometry):
    """mu in kg/m: nitride plus the metal mass averaged over the span."""
    mu_sin = geometry.density_sin * geometry.width * geometry.thickness
    metal_area = geometry.metal_eff_thickness * geometry.plate_height
    mu_al = (
        geometry.density_al * metal_area
        * geometry.metal_segment_length / geometry.effective_length
    )
    return mu_sin + mu_al


def midpoint_deflection(q, load_span, length, tension):
    """Midpoint deflection (m) of a pinned string under a uniform line load
    q over a span.

    The profile is piecewise quadratic (linear outside the span); this is
    its value at L/2.  For a full-span load it is q L^2 / (8 S), and for a
    centered span of length c it is (q c / 8 S)(2 L - c).
    """
    x1, x2 = load_span
    if not (0.0 <= x1 < x2 <= length):
        raise DomainError(f"load span must satisfy 0 <= x1 < x2 <= L, got {load_span!r}")
    require_positive("tension", tension)
    require_nonnegative("line load", q)
    c = x2 - x1
    xbar = 0.5 * (x1 + x2)
    mu = q / tension
    slope_left = mu * c * (length - xbar) / length
    x = 0.5 * length
    if x < x1:
        return slope_left * x
    if x <= x2:
        return slope_left * x - 0.5 * mu * (x - x1) ** 2
    return mu * c * xbar / length * (length - x)


def fundamental_frequency(geometry):
    """Fundamental string frequency f1 = (1 / 2 L) sqrt(S / mu) in Hz."""
    tension = axial_tension(geometry)
    mu = _mass_per_length(geometry)
    return math.sqrt(tension / mu) / (2.0 * geometry.effective_length)


def effective_stiffness(m_eff, f1):
    """Modal stiffness k_eff = m_eff (2 pi f1)^2 in N/m."""
    require_positive("m_eff", m_eff)
    require_positive("f1", f1)
    return m_eff * (2.0 * math.pi * f1) ** 2


def derive_mechanics(geometry, m_eff=None):
    """Bundle of derived string quantities.

    If ``m_eff`` is not supplied, the sine-mode estimate mu L / 2 for a
    single beam is used; a measured or simulated modal mass (which also
    captures the supports and the photonic-crystal region) supersedes it.
    """
    tension = axial_tension(geometry)
    mu = _mass_per_length(geometry)
    f1 = fundamental_frequency(geometry)
    if m_eff is None:
        m_eff = 0.5 * mu * geometry.effective_length
    return BeamMechanicsDerived(
        tension=tension,
        f1=f1,
        m_eff=m_eff,
        k_eff=effective_stiffness(m_eff, f1),
    )


def pressure_to_gap_change(pressure, geometry):
    """Gap closing (m) produced by an attractive pressure on the plate faces.

    The pressure acts on the metalized side walls as a line load
    q = P * plate_height over the centered metal segment; both beams
    deflect in the differential mode, so the gap change is twice the
    per-beam midpoint deflection.
    """
    require_nonnegative("pressure", pressure)
    tension = axial_tension(geometry)
    q = pressure * geometry.plate_height
    length = geometry.effective_length
    c = geometry.metal_segment_length
    x1 = 0.5 * (length - c)
    return 2.0 * midpoint_deflection(q, (x1, x1 + c), length, tension)
