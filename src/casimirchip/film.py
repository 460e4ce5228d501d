"""Superconducting film characterization from four-point R(T) data.

Dirty-limit length scales at T = 0:

    xi     = 0.85 sqrt(xi0 ell)           ~ sqrt(xi0 ell)
    lambda = 0.62 lambda_L sqrt(xi0 / ell) ~ lambda_L sqrt(xi0 / ell)

with the mean free path ell obtained from the 4 K conductivity through the
material constant rho * ell.  Both the exact (prefactor at T = 0; the
factor sqrt(T_c / (T_c - T)) is 1 there) and approximate (plateau) forms
are exposed, and every report states which one produced a number: quoted
film parameters in the literature mix the two conventions.

R(T) tables are read into tuples of Python floats, and the T_c extraction
runs on them directly: the module imports no numpy.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import warnings

from .errors import DomainError, TransitionNotFoundError, require_positive, require_positive_fields
from .records import record

RT_CSV_HEADER = ("temperature_K", "resistance_ohm")

# High-temperature plateau = longest suffix (descending from the hottest
# point) whose relative resistance variation stays below this.
_PLATEAU_REL_VARIATION = 0.05
# A resistance drop counts as a transition step once it exceeds this
# fraction of the normal-state resistance.
_STEP_FRACTION = 0.25


@record
class FilmParams:
    """Film and wire constants for the characterization chain (SI units)."""

    xi0: float          # m, bulk coherence length
    lambda_l: float     # m, London penetration depth
    rho_ell: float      # Ohm m^2, material constant rho * ell
    wire_length: float  # m
    cross_section: float  # m^2
    t_c: float          # K

    def __post_init__(self):
        require_positive_fields(self)


@record
class RTCurve:
    """Resistance-vs-temperature data, sorted with duplicates averaged."""

    temperature: tuple  # K, strictly increasing
    resistance: tuple   # Ohm, >= 0

    def __len__(self):
        return len(self.temperature)


@record
class TcResult:
    """Extracted transition: T_c, width, plateau levels and step structure."""

    t_c: float               # K
    transition_width: float  # K, T(90% R_n) - T(10% R_n)
    r_normal: float          # Ohm
    r_residual: float        # Ohm
    steps: tuple             # of (T_step, R_before, R_after)
    multi_step: bool
    threshold_crossing: float  # K, naive global 50% crossing


def conductivity_from_four_point(wire_length, cross_section, r_4k):
    """Conductivity sigma = L / (zeta R) in (Ohm m)^-1 from a 4 K resistance."""
    for name, val in (("wire_length", wire_length), ("cross_section", cross_section),
                      ("r_4k", r_4k)):
        require_positive(name, val)
    return wire_length / (cross_section * r_4k)


def mean_free_path(sigma, rho_ell):
    """Electron mean free path ell = sigma * (rho ell) in m."""
    for name, val in (("sigma", sigma), ("rho_ell", rho_ell)):
        require_positive(name, val)
    return sigma * rho_ell


def _dirty_limit_args(xi0, ell, mode):
    require_positive("xi0", xi0)
    require_positive("ell", ell)
    if mode not in ("exact", "approx"):
        raise DomainError(f"mode must be 'exact' or 'approx', got {mode!r}")


def coherence_length(xi0, ell, mode):
    """Dirty-limit coherence length in m at T = 0.

    approx: sqrt(xi0 ell); exact: 0.85 sqrt(xi0 ell).
    """
    _dirty_limit_args(xi0, ell, mode)
    base = math.sqrt(xi0 * ell)
    if mode == "approx":
        return base
    return 0.85 * base


def penetration_depth(lambda_l, xi0, ell, mode):
    """Dirty-limit penetration depth in m at T = 0.

    approx: lambda_L sqrt(xi0/ell); exact: 0.62 lambda_L sqrt(xi0/ell).
    """
    require_positive("lambda_l", lambda_l)
    _dirty_limit_args(xi0, ell, mode)
    base = lambda_l * math.sqrt(xi0 / ell)
    if mode == "approx":
        return base
    return 0.62 * base


def ingest_rt_table(raw):
    """Parse an R(T) table, given as bytes (UTF-8) or text, into an RTCurve;
    a leading byte-order mark is skipped.

    The header must be exactly ``temperature_K,resistance_ohm``; blank and
    ``#`` lines are skipped.  Rows are sorted by temperature; duplicate
    temperatures are averaged with a warning.  Undecodable bytes and
    malformed rows raise DomainError, the latter with their line numbers.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"R(T) table is not UTF-8 text: {exc}") from None
    raw = raw.removeprefix("\ufeff")

    data_lines = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            data_lines.append((lineno, stripped))
    if not data_lines:
        raise DomainError("empty R(T) table")
    header_line, header = data_lines[0]
    cols = tuple(name.strip() for name in next(csv.reader(io.StringIO(header))))
    if cols != RT_CSV_HEADER:
        raise DomainError(
            f"line {header_line}: header must be "
            f"'{','.join(RT_CSV_HEADER)}', got '{header}'"
        )

    bad = []
    rows = []
    for lineno, line in data_lines[1:]:
        fields = next(csv.reader(io.StringIO(line)))
        if len(fields) != 2:
            bad.append(f"line {lineno}: expected 2 columns, got {len(fields)}")
            continue
        try:
            t, r = float(fields[0]), float(fields[1])
        except ValueError:
            bad.append(f"line {lineno}: non-numeric cell in '{line}'")
            continue
        if not (math.isfinite(t) and math.isfinite(r)) or r < 0:
            bad.append(f"line {lineno}: non-finite or negative value in '{line}'")
            continue
        rows.append((t, r))
    if bad:
        raise DomainError("malformed R(T) rows: " + "; ".join(bad))
    if not rows:
        raise DomainError("R(T) table contains no data rows")

    # Each temperature's resistances, in file order.
    groups = {}
    for t, r in rows:
        groups.setdefault(t, []).append(r)
    duplicates = len(rows) - len(groups)
    if duplicates:
        warnings.warn(f"averaged {duplicates} duplicate-temperature rows", stacklevel=2)
    temperature = sorted(groups)
    return RTCurve(
        temperature=tuple(temperature),
        resistance=tuple(sum(groups[t]) / len(groups[t]) for t in temperature),
    )


def _median(ordered):
    """Median of a non-empty sorted sequence; the mean of the middle pair
    for an even count."""
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _first_crossing(t_desc, r_desc, level):
    """Highest temperature where R first falls below ``level`` (descending scan)."""
    for i in range(1, len(r_desc)):
        if r_desc[i - 1] >= level > r_desc[i]:
            t0, t1 = t_desc[i - 1], t_desc[i]
            r0, r1 = r_desc[i - 1], r_desc[i]
            return t0 + (level - r0) * (t1 - t0) / (r1 - r0)
    return None


def _plateau_segments(r_desc, band):
    """Quasi-constant segments (descending T) separated by resistance steps.

    A segment extends while each point stays within ``band`` of the
    segment's running mean.  Returns a list of (start, stop, level) with
    stop exclusive.
    """
    segments = []
    start = 0
    total = r_desc[0]
    count = 1
    for i in range(1, len(r_desc)):
        mean = total / count
        if abs(r_desc[i] - mean) <= band:
            total += r_desc[i]
            count += 1
        else:
            segments.append((start, i, mean))
            start, total, count = i, r_desc[i], 1
    segments.append((start, len(r_desc), total / count))
    return segments


def extract_tc(curve):
    """Extract the superconducting transition from an R(T) curve.

    R_normal is the median of the high-temperature plateau.  Steps are all
    resistance drops exceeding 25% of R_normal between successive
    quasi-plateaus; each is located at its local mid-level crossing.  T_c
    is reported from the final step (the one reaching the residual state):
    on a clean single-step curve this coincides with the conventional
    crossing of 50% of R_normal, which is also reported separately as
    ``threshold_crossing``.  Curves with more than one step set
    ``multi_step``.
    """
    if len(curve) < 10:
        raise DomainError(f"need at least 10 points, got {len(curve)}")
    r_min = min(curve.resistance)
    r_max = max(curve.resistance)
    if r_max <= 0.0 or (r_min > 0.0 and r_max / r_min <= 2.0):
        raise TransitionNotFoundError(
            "curve does not span a transition (max R / min R <= 2)"
        )

    # Descending temperature: scan from the normal state into the transition.
    t_desc = curve.temperature[::-1]
    r_desc = curve.resistance[::-1]

    # Normal-state plateau: longest suffix from the hottest point with
    # < 5% relative variation.
    # ``window`` is r_desc[:plateau_end + 1] kept sorted.
    window = [r_desc[0]]
    plateau_end = 1
    while plateau_end < len(r_desc):
        bisect.insort(window, r_desc[plateau_end])
        mid = _median(window)
        if mid <= 0.0 or (window[-1] - window[0]) > _PLATEAU_REL_VARIATION * mid:
            break
        plateau_end += 1
    r_normal = _median(sorted(r_desc[:plateau_end]))
    if plateau_end < 2 or r_normal <= 0.0:
        raise TransitionNotFoundError("no high-temperature plateau detected")

    threshold_crossing = _first_crossing(t_desc, r_desc, 0.5 * r_normal)
    if threshold_crossing is None:
        raise TransitionNotFoundError("resistance never crosses 50% of R_normal")

    # Step structure between quasi-plateaus.  Only segments of 3+ points
    # count as plateaus, so scattered points on a transition edge cannot
    # spawn spurious intermediate steps; everything between two plateaus is
    # a single step located at its local mid-level crossing.
    band = max(_PLATEAU_REL_VARIATION * r_normal, 1e-12)
    segments = _plateau_segments(r_desc, band)
    plateaus = [(s, e, lvl) for (s, e, lvl) in segments if e - s >= 3]
    steps = []
    for (s0, e0, lvl0), (s1, e1, lvl1) in zip(plateaus, plateaus[1:]):
        drop = lvl0 - lvl1
        if drop > _STEP_FRACTION * r_normal:
            local_mid = 0.5 * (lvl0 + lvl1)
            t_step = _first_crossing(t_desc[e0 - 1: s1 + 1], r_desc[e0 - 1: s1 + 1],
                                     local_mid)
            if t_step is None:
                t_step = 0.5 * (t_desc[e0 - 1] + t_desc[s1])
            steps.append((t_step, lvl0, lvl1))
    if not steps:
        raise TransitionNotFoundError("no resistance step exceeds 25% of R_normal")

    r_residual = steps[-1][2]
    t_c = steps[-1][0]
    width_hi = _first_crossing(t_desc, r_desc, 0.9 * r_normal)
    width_lo = _first_crossing(t_desc, r_desc, 0.1 * r_normal)
    if width_hi is not None and width_lo is not None:
        width = width_hi - width_lo
    else:
        width = 0.0
    return TcResult(
        t_c=t_c,
        transition_width=width,
        r_normal=r_normal,
        r_residual=r_residual,
        steps=tuple(steps),
        multi_step=len(steps) > 1,
        threshold_crossing=threshold_crossing,
    )
