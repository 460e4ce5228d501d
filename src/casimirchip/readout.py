"""Optical readout chain: gap changes to cavity shifts, PDH voltage, and
the minimum-detectable-pressure figure of merit.

Sign convention, used consistently: a gap decrease lowers the cavity
resonance frequency.  Only magnitudes enter the detectability
figures, but scan traces are signed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import C
from .errors import DomainError, require_positive_fields
from .mechanics import pressure_to_gap_change

# relative q_optical vs omega_c / kappa mismatch above which CavityParams warns
Q_MISMATCH_WARN = 0.05


@dataclass(frozen=True)
class CavityParams:
    """Optical cavity constants.

    ``g_om`` is the optomechanical coupling in rad/s per meter of gap
    change; ``kappa`` and ``kappa_e`` are total and extrinsic linewidths in
    rad/s.  On construction the quoted optical Q is cross-checked against
    omega_c / kappa; a mismatch above Q_MISMATCH_WARN is a warning, not an
    error.
    """

    lambda_res: float   # m
    kappa: float        # rad/s
    kappa_e: float      # rad/s
    q_optical: float    # dimensionless
    g_om: float         # rad/s per m

    def __post_init__(self):
        require_positive_fields(self)
        if self.kappa_e > self.kappa:
            raise DomainError("kappa_e must not exceed kappa")
        q_from_kappa = self.q_from_kappa
        if abs(q_from_kappa - self.q_optical) > Q_MISMATCH_WARN * self.q_optical:
            warnings.warn(
                f"q_optical = {self.q_optical:.3g} differs from omega_c/kappa = "
                f"{q_from_kappa:.3g} by more than {Q_MISMATCH_WARN:.0%}",
                stacklevel=2,
            )

    @property
    def omega_c(self):
        return 2.0 * math.pi * C / self.lambda_res

    @property
    def q_from_kappa(self):
        """Optical Q implied by the linewidth, omega_c / kappa."""
        return self.omega_c / self.kappa


@dataclass(frozen=True)
class ReadoutCalibration:
    """PDH-chain calibration constants.

    ``linear_window`` bounds the linear PDH response (about a quarter
    linewidth, in ordinary Hz); shifts beyond it are clamped with a
    warning.  ``drift_bound`` is the long-term drift over a measurement and
    may exceed the minimum resolvable shift.
    """

    pdh_slope: float              # V/Hz
    min_resolvable_shift: float   # Hz
    drift_bound: float            # Hz
    linear_window: float          # Hz

    def __post_init__(self):
        require_positive_fields(self)


@dataclass(frozen=True)
class PressureFloor:
    """Minimum detectable pressure and the gap change it produces."""

    pressure: float    # Pa
    gap_change: float  # m, cavity gap change at the minimum shift


def gap_change_to_frequency_shift(delta_gap, cavity):
    """Signed cavity frequency shift (Hz) for a signed gap change (m)."""
    if not math.isfinite(delta_gap):
        raise DomainError(f"delta_gap must be finite, got {delta_gap!r}")
    return cavity.g_om / (2.0 * math.pi) * delta_gap


def pdh_voltage(freq_shift, calib):
    """PDH DC voltage for a cavity frequency shift, V = slope * shift.

    Shifts beyond the linear window are clamped (with a warning) to the
    window edge.
    """
    if not math.isfinite(freq_shift):
        raise DomainError(f"freq_shift must be finite, got {freq_shift!r}")
    shift = freq_shift
    if abs(shift) > calib.linear_window:
        warnings.warn(
            f"frequency shift {shift:.3g} Hz is outside the linear PDH window "
            f"(+/-{calib.linear_window:.3g} Hz); clamping",
            stacklevel=2,
        )
        shift = math.copysign(calib.linear_window, shift)
    return calib.pdh_slope * shift


def min_detectable_pressure(geometry, cavity, calib):
    """Pressure floor of the full chain, inverted from the minimum shift.

    min shift -> gap change (/ g_om) -> pressure, by inverting the forward
    chain ``pressure_to_gap_change``, which is exactly linear in pressure.
    """
    gap_change = 2.0 * math.pi * calib.min_resolvable_shift / cavity.g_om
    pressure = gap_change / pressure_to_gap_change(1.0, geometry)
    return PressureFloor(pressure=pressure, gap_change=gap_change)
