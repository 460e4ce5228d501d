"""Text, JSON and CSV emission.

Numeric CSV fields are written with 17 significant digits so every emitted
table re-ingests losslessly.  ``#``-prefixed lines are comments in every
format emitted here.
"""

from __future__ import annotations

import csv
import io
import json
import math

SWEEP_CSV_HEADER = (
    "gap_m", "temperature_K", "pair", "pressure_Pa", "gap_change_m",
    "freq_shift_Hz", "voltage_V", "detectable", "margin", "error",
)
SCAN_CSV_HEADER = ("temperature_K", "freq_shift_Hz")
VERDICT_CSV_HEADER = (
    "name", "signal_Pa", "floor_Pa", "freq_shift_Hz", "detectable", "margin",
)


def fmt(value):
    """Float to text at 17 significant digits (lossless round trip)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_kv(pairs, fmt_name):
    """(key, value) pairs as ``key = value`` lines, or with ``"json"`` as a
    JSON object; keys carry units."""
    if fmt_name == "json":
        # JSON has no NaN: it is written as null.
        data = {key: None if isinstance(value, float) and math.isnan(value) else value
                for key, value in pairs}
        return json.dumps(data, indent=2) + "\n"
    return "\n".join(f"{key} = {fmt(value)}" for key, value in pairs) + "\n"


def _table(header, rows, comments=()):
    """CSV text: ``# key = value`` lines from the (key, value) pairs in
    ``comments``, then the header, then the rows."""
    out = io.StringIO()
    for key, value in comments:
        out.write(f"# {key} = {fmt(value)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def sweep_csv(rows):
    return _table(SWEEP_CSV_HEADER, (
        (fmt(row.gap), fmt(row.temperature), row.pair, fmt(row.pressure),
         fmt(row.gap_change), fmt(row.freq_shift), fmt(row.voltage),
         fmt(row.detectable), fmt(row.margin), row.error)
        for row in rows))


def scan_csv(points, resolution_band, drift_band):
    """Plot-ready two-column trace; noise bands ride along as comments."""
    return _table(SCAN_CSV_HEADER,
                  ((fmt(temperature), fmt(shift)) for temperature, shift in points),
                  (("resolution_band_Hz", resolution_band), ("drift_band_Hz", drift_band)))


def verdicts_csv(verdicts):
    return _table(VERDICT_CSV_HEADER, (
        (v.name, fmt(v.signal), fmt(v.floor), fmt(v.freq_shift),
         fmt(v.detectable), fmt(v.margin))
        for v in verdicts))
