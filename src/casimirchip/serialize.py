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
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    return str(value)


def kv_text(pairs):
    """``key = value`` lines from (key, value) pairs; keys carry units."""
    return "\n".join(f"{key} = {fmt(value)}" for key, value in pairs) + "\n"


def kv_json(pairs):
    def jsonable(value):
        if isinstance(value, float) and math.isnan(value):
            return None
        if isinstance(value, tuple):
            return [jsonable(v) for v in value]
        return value

    return json.dumps({k: jsonable(v) for k, v in pairs}, indent=2) + "\n"


def render_kv(pairs, fmt_name):
    if fmt_name == "json":
        return kv_json(pairs)
    return kv_text(pairs)


def sweep_csv(rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for row in rows:
        writer.writerow([
            fmt(row.gap), fmt(row.temperature), row.pair, fmt(row.pressure),
            fmt(row.gap_change), fmt(row.freq_shift), fmt(row.voltage),
            fmt(row.detectable), fmt(row.margin), row.error,
        ])
    return out.getvalue()


def scan_csv(points, resolution_band, drift_band):
    """Plot-ready two-column trace; noise bands ride along as comments."""
    out = io.StringIO()
    out.write(f"# resolution_band_Hz = {fmt(resolution_band)}\n")
    out.write(f"# drift_band_Hz = {fmt(drift_band)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCAN_CSV_HEADER)
    for temperature, shift in points:
        writer.writerow([fmt(temperature), fmt(shift)])
    return out.getvalue()


def verdicts_csv(verdicts):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(VERDICT_CSV_HEADER)
    for v in verdicts:
        writer.writerow([
            v.name, fmt(v.signal), fmt(v.floor), fmt(v.freq_shift),
            fmt(v.detectable), fmt(v.margin),
        ])
    return out.getvalue()

