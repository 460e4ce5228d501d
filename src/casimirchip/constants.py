"""Physical constants and thermal-frequency helpers.

All library interfaces are SI (m, s, K, Pa, Ohm, rad/s).  Unit conversion
(nm, GHz, mK, eV, ...) happens only at the CLI/config boundary, never here.
Constants are CODATA 2018 exact/recommended values, fixed at build time so
that derived numbers are reproducible; they are deliberately not
configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_nonnegative, require_positive


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 constants used throughout the library (SI)."""

    hbar: float = 1.054_571_817e-34  # J s
    c: float = 299_792_458.0         # m/s
    k_B: float = 1.380_649e-23       # J/K
    e: float = 1.602_176_634e-19     # C
    m_e: float = 9.109_383_7015e-31  # kg


CODATA = PhysicalConstants()

HBAR = CODATA.hbar
C = CODATA.c
K_B = CODATA.k_B
E_CHARGE = CODATA.e


def thermal_frequency(temperature):
    """Characteristic thermal angular frequency k_B T / hbar in rad/s.

    Below this frequency the reflectivity of a metal is sensitive to the
    onset of superconductivity, which is what makes the temperature
    dependence of the pressure model-discriminating.
    """
    require_nonnegative("temperature", temperature)
    return K_B * temperature / HBAR


def matsubara_frequency(n, temperature):
    """n-th Matsubara angular frequency xi_n = 2 pi n k_B T / hbar in rad/s.

    n must be a non-negative integer; temperature must be > 0 (the T = 0
    case is handled by a continuous frequency integral, not by this
    discrete spectrum).
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"Matsubara index must be a non-negative integer, got {n!r}")
    require_positive("temperature", temperature)
    return 2.0 * math.pi * n * K_B * temperature / HBAR
