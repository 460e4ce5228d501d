"""Measurement-chain modeling for on-chip Casimir experiments between
superconducting nanobeams: finite-temperature Lifshitz pressure under
competing dielectric models, film characterization from four-point data,
tensioned-beam mechanics, optomechanical readout, and detectability
analysis.

The public names are exported lazily (PEP 562): ``import casimirchip``
imports no submodule, and each name's module is imported the first time
the name is looked up.  Loading a device config
(``casimirchip.load_device_config``) therefore leaves numpy unloaded, and
neither it nor the import loads ``dataclasses`` or ``inspect``: the
package's records are built by ``records.record``.  The pressure engine
and numpy load with the first name that needs them.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it; the one export list
_EXPORTS = {
    "DetectabilityVerdict": "designer",
    "MaterialPairDifferential": "designer",
    "StepPressureSignal": "designer",
    "SweepRow": "designer",
    "detectability_report": "designer",
    "run_gap_sweep": "designer",
    "simulate_temperature_scan": "designer",
    "CasimirChipError": "errors",
    "ConfigError": "errors",
    "DomainError": "errors",
    "TransitionNotFoundError": "errors",
    "FilmParams": "film",
    "RTCurve": "film",
    "TcResult": "film",
    "coherence_length": "film",
    "conductivity_from_four_point": "film",
    "extract_tc": "film",
    "ingest_rt_table": "film",
    "mean_free_path": "film",
    "penetration_depth": "film",
    "DEFAULT_NUMERICS": "lifshitz",
    "LifshitzNumerics": "lifshitz",
    "PressureResult": "lifshitz",
    "differential_pressure": "lifshitz",
    "ideal_pressure_closed_form": "lifshitz",
    "plate_pressure": "lifshitz",
    "plate_pressures": "lifshitz",
    "DeviceConfig": "config",
    "SweepSpec": "config",
    "example_config_path": "config",
    "load_device_config": "config",
    "parse_material_spec": "config",
    "Drude": "materials",
    "IdealMetal": "materials",
    "Plasma": "materials",
    "SuperconductorTwoFluid": "materials",
    "eps_imag_freq": "materials",
    "superfluid_fraction": "materials",
    "DeviceGeometry": "mechanics",
    "axial_tension": "mechanics",
    "effective_stiffness": "mechanics",
    "fundamental_frequency": "mechanics",
    "midpoint_deflection": "mechanics",
    "pressure_to_gap_change": "mechanics",
    "CavityParams": "readout",
    "PressureFloor": "readout",
    "ReadoutCalibration": "readout",
    "gap_change_to_frequency_shift": "readout",
    "min_detectable_pressure": "readout",
    "pdh_voltage": "readout",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """The exported ``name``, imported from its submodule on first access
    and kept in the package's namespace, so later lookups skip this hook."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
