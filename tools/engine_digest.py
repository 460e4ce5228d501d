"""Print a count and a sha256 digest of the engine's results on a fixed grid.

Two checkouts whose engines agree bit for bit print the same two lines, so
a refactor of lifshitz.py can be checked against its parent with

    PYTHONPATH=src python tools/engine_digest.py

run in each checkout on one machine.  The package is imported from
PYTHONPATH, not from this file's checkout.

The grid crosses gaps from 20 nm to 1 um; temperatures from T = 0 through
the 1 mK crossover and T_c = 0.9 K (0.8999 K lies just below it) up to
300 K; the 15 unordered pairs of an ideal metal, plasma, Drude, a two-fluid
superconductor and a second Drude metal; and four numerics: the default,
both tolerances at 1e-11, the smallest frequency rule and a tight series
tolerance.  At each (gap, T, numerics) every pair is evaluated alone by
plate_pressure, all pairs as one plate_pressures batch, and every pair as
the first operand of a differential_pressure against the next pair.

Each k-integral pass builds its y grid once per rung and evaluates its
pairs one at a time over it, and a pair whose k-ladder climbs leaves the
grid at the climb's nodes, so the next pair builds it again.  The grid
covers passes of 1, 2 and 15 pairs at every row count a call makes: the
228-row Matsubara passes, the 354-row passes at 1e-11, where k-ladders
climb, the 180-row passes of the smallest frequency rule and the
129-row T = 0 passes.  One more cell, at 100 nm and 1.3 K with the default
and 1e-11 numerics, holds 40 distinct pairs: the 14 pairs other than
ideal/ideal with omega_p scaled by 1, 0.95 and 0.9, the first 40 of them.
It is evaluated the same three ways.
The digest covers the repr of each PressureResult and of each
differential, in that order.
"""

import dataclasses
import hashlib
import itertools

from casimirchip import (
    DEFAULT_NUMERICS,
    Drude,
    IdealMetal,
    LifshitzNumerics,
    Plasma,
    SuperconductorTwoFluid,
    differential_pressure,
    plate_pressure,
    plate_pressures,
)

GAPS = (20e-9, 100e-9, 300e-9, 1e-6)
TEMPERATURES = (0.0, 1e-9, 0.01, 0.1, 0.5, 0.8999, 0.95, 1.3, 4.0, 10.0, 300.0)
MATERIALS = (
    IdealMetal(),
    Plasma(1.83e16),
    Drude(1.83e16, 7.6e13),
    SuperconductorTwoFluid(1.83e16, 7.6e13, t_c=0.9),
    Drude(1.37e16, 5.32e13),
)
PAIRS = list(itertools.combinations_with_replacement(MATERIALS, 2))
NUMERICS = (
    DEFAULT_NUMERICS,
    LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11),
    LifshitzNumerics(t_zero_nodes=8),
    LifshitzNumerics(rel_tol_series=1e-9),
)


def scaled(model, factor):
    """model with omega_p scaled by factor; the ideal metal has none."""
    if isinstance(model, IdealMetal):
        return model
    return dataclasses.replace(model, omega_p=factor * model.omega_p)


MANY_PAIRS = [(scaled(a, factor), scaled(b, factor))
                 for factor in (1.0, 0.95, 0.9) for a, b in PAIRS[1:]][:40]


def cell(gap, temp, pairs, num):
    """Each pair alone, all pairs as one batch, then each pair's differential."""
    for mat_a, mat_b in pairs:
        yield plate_pressure(gap, temp, mat_a, mat_b, num)
    yield from plate_pressures(gap, temp, pairs, num)
    for (mat_a, mat_b), reference in zip(pairs, pairs[1:] + pairs[:1]):
        yield differential_pressure(gap, temp, mat_a, mat_b, reference, num)


def results():
    """Every result on the grid, then the 40-pair cell, in a fixed order."""
    for gap, temp, num in itertools.product(GAPS, TEMPERATURES, NUMERICS):
        yield from cell(gap, temp, PAIRS, num)
    for num in NUMERICS[:2]:
        yield from cell(100e-9, 1.3, MANY_PAIRS, num)


def main():
    digest, count = hashlib.sha256(), 0
    for result in results():
        digest.update(repr(result).encode() + b"\n")
        count += 1
    print(f"results {count}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
