"""Orchestration layer: gap sweeps, simulated temperature scans, and
detectability verdicts.

A gap sweep evaluates the grid of a ``config.SweepSpec`` (defined beside
its loader, so that loading a config needs no engine).  Each (gap,
temperature) cell's material pairs are one engine batch
(lifshitz.plate_pressures), each pair's pressure bit for bit the one
plate_pressure gives it alone.  Every cell is pure, so cells may be
computed concurrently; the rows are always built in lexicographic (gap,
temperature, pair) order in the calling thread, so the output and its
warnings come out in that order for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import CasimirChipError, DomainError, require_nonnegative, require_positive
from .lifshitz import DEFAULT_NUMERICS, differential_pressure, plate_pressure, plate_pressures
from .mechanics import pressure_to_gap_change
from .readout import (
    gap_change_to_frequency_shift,
    min_detectable_pressure,
    pdh_voltage,
)


@dataclass(frozen=True)
class SweepRow:
    gap: float           # m
    temperature: float   # K
    pair: str
    pressure: float      # Pa (nan on error)
    gap_change: float    # m
    freq_shift: float    # Hz
    voltage: float       # V
    detectable: bool
    margin: float        # pressure / floor
    error: str = ""


@dataclass(frozen=True)
class DetectabilityVerdict:
    """Comparison of one named pressure signal against the chain floor."""

    name: str
    signal: float      # Pa
    floor: float       # Pa
    freq_shift: float  # Hz
    detectable: bool
    margin: float      # signal / floor


@dataclass(frozen=True)
class MaterialPairDifferential:
    """Theory input: Lifshitz pressure difference between two material pairs."""

    pair: tuple       # (material model, material model)
    reference: tuple  # (material model, material model)

    def delta_pressure(self, gap, temperature, num=DEFAULT_NUMERICS):
        mat_a, mat_b = self.pair
        return differential_pressure(gap, temperature, mat_a, mat_b,
                                     self.reference, num)


@dataclass(frozen=True)
class StepPressureSignal:
    """Theory input: an opaque pressure magnitude switching on below t_c.

    Used for signals whose magnitude is quoted rather than derived, e.g.
    the proposed gravitational-Casimir pressure between superconductors.
    """

    magnitude: float  # Pa
    t_c: float        # K

    def __post_init__(self):
        require_nonnegative("magnitude", self.magnitude)
        require_positive("t_c", self.t_c)

    def delta_pressure(self, gap, temperature, num=DEFAULT_NUMERICS):
        return self.magnitude if temperature < self.t_c else 0.0


def _chain_shift(delta_pressure, geometry, cavity):
    """Signed cavity shift for a signed differential pressure.

    Extra attraction closes the gap, which lowers the resonance.
    """
    closing = pressure_to_gap_change(abs(delta_pressure), geometry)
    delta_gap = -math.copysign(closing, delta_pressure) if delta_pressure else 0.0
    return gap_change_to_frequency_shift(delta_gap, cavity)


def run_gap_sweep(spec, geometry, cavity, calib, num=DEFAULT_NUMERICS, workers=1):
    """Evaluate the full (gap, temperature, pair) grid into SweepRow records.

    ``spec`` is a ``config.SweepSpec``.  Each (gap, temperature) cell is one
    plate_pressures batch over all of ``spec.pairs``, and ``workers``
    threads, which must be >= 1, evaluate the cells.  If a cell's batch
    raises, its pairs are evaluated one at a time by plate_pressure, so a
    failed evaluation marks only its own row's ``error`` column and the
    sweep continues.  The threads return only the engine's results: the
    calling thread builds the rows, so they and pdh_voltage's clamp
    warnings come out in lexicographic (gap, temperature, pair index)
    order regardless of ``workers``.
    """
    require_positive("workers", workers)
    floor = min_detectable_pressure(geometry, cavity, calib).pressure
    pairs = [(mat_a, mat_b) for _, mat_a, mat_b in spec.pairs]
    cells = [(gap, temp) for gap in spec.gaps() for temp in spec.temperatures]

    def solo(gap, temp, mat_a, mat_b):
        try:
            return plate_pressure(gap, temp, mat_a, mat_b, num)
        except CasimirChipError as exc:
            return exc

    def row(gap, temp, label, result):
        if isinstance(result, CasimirChipError):
            return SweepRow(gap, temp, label, math.nan, math.nan, math.nan,
                            math.nan, False, math.nan, error=str(result))
        pressure = result.pressure
        gap_change = pressure_to_gap_change(pressure, geometry)
        freq_shift = gap_change_to_frequency_shift(-gap_change, cavity)
        voltage = pdh_voltage(freq_shift, calib)
        margin = pressure / floor
        return SweepRow(gap, temp, label, pressure, gap_change, freq_shift,
                        voltage, margin >= 1.0, margin)

    def evaluate(cell):
        try:
            return plate_pressures(*cell, pairs, num)
        except CasimirChipError:
            return [solo(*cell, *pair) for pair in pairs]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(evaluate, cells))
    return [row(gap, temp, label, result)
            for (gap, temp), cell in zip(cells, results)
            for (label, _, _), result in zip(spec.pairs, cell)]


def simulate_temperature_scan(geometry, cavity, t_grid, theory, num=DEFAULT_NUMERICS):
    """Predicted cavity shift vs temperature, relative to the hottest point.

    Mirrors the measured observable: shift(T) = chain(dP(T) - dP(T_base))
    with T_base = max(t_grid), where dP is the theory's differential
    pressure at the device gap.  Returns a list of (temperature, shift_Hz)
    in the input grid order.
    """
    t_grid = list(t_grid)
    if not t_grid:
        return []
    t_c = getattr(theory, "t_c", None)
    if t_c is not None and not (min(t_grid) < t_c <= max(t_grid)):
        raise DomainError(
            f"temperature grid {min(t_grid)}..{max(t_grid)} K must span "
            f"the transition at {t_c} K"
        )
    t_base = max(t_grid)
    gap = geometry.gap
    dp_base = theory.delta_pressure(gap, t_base, num)
    out = []
    for temp in t_grid:
        dp = dp_base if temp == t_base else theory.delta_pressure(gap, temp, num)
        out.append((temp, _chain_shift(dp - dp_base, geometry, cavity)))
    return out


def detectability_report(signals, geometry, cavity, calib):
    """Verdicts for named pressure signals against the chain floor.

    ``signals`` is a sequence of (name, pressure_Pa) pairs; each verdict
    carries the implied cavity shift magnitude and the signal/floor margin.
    """
    floor = min_detectable_pressure(geometry, cavity, calib).pressure
    verdicts = []
    for name, signal in signals:
        require_nonnegative(f"signal {name!r}", signal)
        shift = abs(_chain_shift(signal, geometry, cavity))
        margin = signal / floor
        verdicts.append(DetectabilityVerdict(
            name=name, signal=signal, floor=floor, freq_shift=shift,
            detectable=margin >= 1.0, margin=margin,
        ))
    return verdicts
