"""Device config files and quantity parsing.

Config values are plain ``key = value`` pairs under INI-style sections.
Every dimensional key carries an explicit unit suffix (``gap_nm``,
``kappa_GHz``, ...): nm-vs-m slips are the dominant failure mode in this
domain, so unsuffixed numerics are simply not part of the schema and
unknown keys are rejected.  All problems in a file are collected and
reported together, not first-failure.

Everything is converted to SI here, at the boundary; the rest of the
library never sees nm, GHz, mK or eV.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from importlib import resources

from .constants import E_CHARGE, HBAR
from .errors import ConfigError, DomainError
from .film import FilmParams
from .materials import Drude, IdealMetal, Plasma, SuperconductorTwoFluid
from .mechanics import DeviceGeometry
from .readout import CavityParams, ReadoutCalibration

TWO_PI = 2.0 * math.pi

# SI factor per unit suffix; angular keys additionally pick up 2 pi at
# assembly time (config files quote ordinary frequencies).
_UNIT_FACTORS = {
    "fm": 1e-15, "pm": 1e-12, "nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0,
    "nm2": 1e-18, "um2": 1e-12, "m2": 1.0,
    "mK": 1e-3, "K": 1.0,
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12,
    "mPa": 1e-3, "Pa": 1.0, "MPa": 1e6, "GPa": 1e9,
    "pg": 1e-15, "ng": 1e-12, "kg": 1.0,
    "nW": 1e-9, "uW": 1e-6, "mW": 1e-3, "W": 1.0,
    "ohm": 1.0, "ohm_m2": 1.0, "per_ohm_m": 1.0,
    "kg_per_m3": 1.0,
    "GHz_per_nm": 1e18,        # Hz per m
    "mV_per_MHz": 1e-9,        # V per Hz
    "eV": E_CHARGE / HBAR,     # rad/s for an energy-quoted frequency
    "meV": 1e-3 * E_CHARGE / HBAR,
    "": 1.0,                   # explicitly dimensionless keys
}


def _num(unit):
    factor = _UNIT_FACTORS[unit]

    def convert(text, where):
        try:
            return float(text) * factor
        except ValueError:
            raise ConfigError([f"{where}: expected a number, got {text!r}"]) from None

    return convert


def _text(options):
    def convert(text, where):
        if options and text not in options:
            raise ConfigError(
                [f"{where}: expected one of {sorted(options)}, got {text!r}"]
            )
        return text

    return convert


# section -> key -> (converter, required)
_SCHEMA = {
    "geometry": {
        "string_length_um": (_num("um"), True),
        "effective_length_um": (_num("um"), True),
        "width_nm": (_num("nm"), True),
        "thickness_nm": (_num("nm"), True),
        "metal_eff_thickness_nm": (_num("nm"), True),
        "metal_segment_length_um": (_num("um"), True),
        "plate_height_nm": (_num("nm"), True),
        "gap_nm": (_num("nm"), True),
        "parallelism_jitter_nm": (_num("nm"), True),
        "film_stress_GPa": (_num("GPa"), True),
        "density_sin_kg_per_m3": (_num("kg_per_m3"), True),
        "density_al_kg_per_m3": (_num("kg_per_m3"), True),
    },
    "mechanics": {
        "m_eff_pg": (_num("pg"), True),
    },
    "cavity": {
        "wavelength_nm": (_num("nm"), True),
        "kappa_GHz": (_num("GHz"), True),
        "kappa_e_GHz": (_num("GHz"), True),
        "q_optical": (_num(""), True),
        "g_om_GHz_per_nm": (_num("GHz_per_nm"), True),
    },
    "readout": {
        "pdh_slope_mV_per_MHz": (_num("mV_per_MHz"), True),
        "min_resolvable_shift_MHz": (_num("MHz"), True),
        "drift_bound_MHz": (_num("MHz"), True),
        "operating_power_nW": (_num("nW"), False),
        "breakdown_power_uW": (_num("uW"), False),
    },
    "film": {
        "xi0_nm": (_num("nm"), True),
        "lambda_london_nm": (_num("nm"), True),
        "rho_ell_ohm_m2": (_num("ohm_m2"), True),
        "tc_K": (_num("K"), True),
        "wire_length_um": (_num("um"), True),
        "wire_cross_section_um2": (_num("um2"), True),
        "sigma_4k_per_ohm_m": (_num("per_ohm_m"), False),
        "r4k_ohm": (_num("ohm"), False),
        "quoted_mean_free_path_nm": (_num("nm"), False),
    },
}

# material kind -> (class, its parameter keys in constructor order); the
# one table behind [material.NAME] sections and inline CLI specs alike
_MATERIAL_KINDS = {
    "ideal": (IdealMetal, ()),
    "plasma": (Plasma, ("omega_p_eV",)),
    "drude": (Drude, ("omega_p_eV", "gamma_meV")),
    "superconductor": (SuperconductorTwoFluid, ("omega_p_eV", "gamma_meV", "tc_K")),
}

_MATERIAL_SCHEMA = {
    "model": (_text(set(_MATERIAL_KINDS)), True),
    "omega_p_eV": (_num("eV"), False),
    "gamma_meV": (_num("meV"), False),
    "tc_K": (_num("K"), False),
}

_SWEEP_SCHEMA = {
    "gap_min_nm": (_num("nm"), True),
    "gap_max_nm": (_num("nm"), True),
    "gap_step_nm": (_num("nm"), True),
    "temperatures_K": (None, True),  # comma list, parsed specially
    "pairs": (None, True),           # comma list of name/name
}


@dataclass(frozen=True)
class SweepSettings:
    """Sweep grid as read from a config: material pairs stay as names."""

    gap_min: float
    gap_max: float
    gap_step: float
    temperatures: tuple
    pair_names: tuple  # of (name_a, name_b)


@dataclass(frozen=True)
class DeviceConfig:
    """Everything needed to drive the analysis chain for one device."""

    geometry: DeviceGeometry
    m_eff: float
    cavity: CavityParams
    calib: ReadoutCalibration
    film: FilmParams
    film_measured: dict = field(default_factory=dict)
    materials: dict = field(default_factory=dict)
    sweep: SweepSettings | None = None
    signals: tuple = ()
    annotations: dict = field(default_factory=dict)


def _build_material(kind, values, where):
    """Material of ``kind`` from converted parameter values; raises
    ConfigError naming every missing, extra or out-of-domain parameter."""
    cls, keys = _MATERIAL_KINDS[kind]
    problems = [f"{where}: model '{kind}' requires {key}"
                for key in keys if key not in values]
    problems += [f"{where}: model '{kind}' does not take {key}"
                 for key in values if key not in keys]
    if problems:
        raise ConfigError(problems)
    try:
        return cls(*(values[key] for key in keys))
    except DomainError as exc:
        raise ConfigError([f"{where}: {exc}"]) from None


def _parse_section(parser, section, schema, problems):
    values = {}
    if not parser.has_section(section):
        required = [k for k, (_, req) in schema.items() if req]
        if required:
            problems.append(f"missing section [{section}]")
        return values
    for key in parser.options(section):
        if key not in schema:
            problems.append(f"[{section}]: unknown key '{key}' (unit suffix missing or typo?)")
            continue
        converter, _ = schema[key]
        if converter is None:
            values[key] = parser.get(section, key)
            continue
        try:
            values[key] = converter(parser.get(section, key), f"[{section}] {key}")
        except ConfigError as exc:
            problems.extend(exc.problems)
    for key, (_, required) in schema.items():
        if required and key not in values:
            problems.append(f"[{section}]: missing required key '{key}'")
    return values


def split_pair(text):
    """('A', 'B') from an 'A/B' material pair; raises DomainError otherwise."""
    a, slash, b = text.partition("/")
    if not slash:
        raise DomainError(f"material pair must be 'A/B', got {text.strip()!r}")
    return a.strip(), b.strip()


def _parse_sweep(parser, defined, problems):
    """SweepSettings from the [sweep] section, or None when a gap key is
    missing; every problem found is appended to ``problems``.  Pair names
    other than 'ideal' must be in ``defined``."""
    sv = _parse_section(parser, "sweep", _SWEEP_SCHEMA, problems)
    for key in ("temperatures_K", "pairs"):
        if key in sv and not sv[key].strip(" ,"):
            problems.append(f"[sweep] {key}: the list is empty")
    temps = []
    for item in sv.get("temperatures_K", "").split(","):
        item = item.strip()
        if not item:
            continue
        try:
            temps.append(float(item))
        except ValueError:
            problems.append("[sweep] temperatures_K: expected a comma-separated "
                            f"number list, got {item!r}")
    pair_names = []
    for item in sv.get("pairs", "").split(","):
        if not item.strip():
            continue
        try:
            pair_names.append(split_pair(item))
        except DomainError as exc:
            problems.append(f"[sweep] pairs: {exc}")
    undefined = dict.fromkeys(name for pair in pair_names for name in pair
                              if name != "ideal" and name not in defined)
    for name in undefined:
        problems.append(f"[sweep] pairs: material '{name}' is not defined")
    if not all(k in sv for k in ("gap_min_nm", "gap_max_nm", "gap_step_nm")):
        return None
    return SweepSettings(
        gap_min=sv["gap_min_nm"], gap_max=sv["gap_max_nm"],
        gap_step=sv["gap_step_nm"], temperatures=tuple(temps),
        pair_names=tuple(pair_names),
    )


def _read_config(path):
    """INI parser holding ``path``; unreadable or malformed files raise ConfigError."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from None
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from None
    return parser


def load_sweep_settings(path, materials):
    """The [sweep] section of a config file, checked as ``load_device_config``
    checks it, with pair names looked up in ``materials`` (e.g. the loaded
    device config's); raises ConfigError with every problem found.  Other
    sections are not read."""
    parser = _read_config(path)
    problems = []
    sweep = _parse_sweep(parser, materials, problems)
    if problems:
        raise ConfigError(problems)
    return sweep


def load_device_config(path):
    """Parse and assemble a device config file; raises ConfigError with
    every problem found."""
    parser = _read_config(path)

    problems = []
    known = set(_SCHEMA) | {"sweep", "signals"}
    for section in parser.sections():
        if section in known or section.startswith("material."):
            continue
        problems.append(f"unknown section [{section}]")

    values = {s: _parse_section(parser, s, _SCHEMA[s], problems) for s in _SCHEMA}

    materials = {}
    material_names = [s[len("material."):] for s in parser.sections()
                      if s.startswith("material.")]
    for name in material_names:
        section = f"material.{name}"
        mat_values = _parse_section(parser, section, _MATERIAL_SCHEMA, problems)
        kind = mat_values.pop("model", None)
        if kind is None:
            continue
        try:
            materials[name] = _build_material(kind, mat_values, f"[{section}]")
        except ConfigError as exc:
            problems.extend(exc.problems)

    sweep = None
    if parser.has_section("sweep"):
        # a section that failed to build still counts as defined: its own
        # problems are reported already
        sweep = _parse_sweep(parser, material_names, problems)

    signals = []
    if parser.has_section("signals"):
        for key in parser.options("signals"):
            if not key.endswith("_Pa"):
                problems.append(f"[signals]: key '{key}' must carry a _Pa suffix")
                continue
            try:
                signals.append((key[:-3], float(parser.get("signals", key))))
            except ValueError:
                problems.append(f"[signals] {key}: expected a number")

    def build(label, ctor, kwargs):
        if any(v is None for v in kwargs.values()):
            return None
        try:
            return ctor(**kwargs)
        except DomainError as exc:
            problems.append(f"{label}: {exc}")
            return None

    g = values["geometry"]
    geometry = build("[geometry]", DeviceGeometry, {
        "string_length": g.get("string_length_um"),
        "effective_length": g.get("effective_length_um"),
        "width": g.get("width_nm"),
        "thickness": g.get("thickness_nm"),
        "metal_eff_thickness": g.get("metal_eff_thickness_nm"),
        "metal_segment_length": g.get("metal_segment_length_um"),
        "plate_height": g.get("plate_height_nm"),
        "gap": g.get("gap_nm"),
        "parallelism_jitter": g.get("parallelism_jitter_nm"),
        "film_stress": g.get("film_stress_GPa"),
        "density_sin": g.get("density_sin_kg_per_m3"),
        "density_al": g.get("density_al_kg_per_m3"),
    }) if g else None

    c = values["cavity"]
    cavity = build("[cavity]", CavityParams, {
        "lambda_res": c.get("wavelength_nm"),
        "kappa": TWO_PI * c["kappa_GHz"] if "kappa_GHz" in c else None,
        "kappa_e": TWO_PI * c["kappa_e_GHz"] if "kappa_e_GHz" in c else None,
        "q_optical": c.get("q_optical"),
        "g_om": TWO_PI * c["g_om_GHz_per_nm"] if "g_om_GHz_per_nm" in c else None,
    }) if c else None

    r = values["readout"]
    calib = None
    if r and cavity is not None:
        calib = build("[readout]", ReadoutCalibration, {
            "pdh_slope": r.get("pdh_slope_mV_per_MHz"),
            "min_resolvable_shift": r.get("min_resolvable_shift_MHz"),
            "drift_bound": r.get("drift_bound_MHz"),
            "linear_window": cavity.kappa / TWO_PI / 4.0,
        })

    f = values["film"]
    film = build("[film]", FilmParams, {
        "xi0": f.get("xi0_nm"),
        "lambda_l": f.get("lambda_london_nm"),
        "rho_ell": f.get("rho_ell_ohm_m2"),
        "wire_length": f.get("wire_length_um"),
        "cross_section": f.get("wire_cross_section_um2"),
        "t_c": f.get("tc_K"),
    }) if f else None

    m_eff = values["mechanics"].get("m_eff_pg")

    if problems or None in (geometry, cavity, calib, film, m_eff):
        if not problems:
            problems.append("config incomplete")
        raise ConfigError(problems)

    film_measured = {
        key: f[srckey]
        for key, srckey in (
            ("sigma_4k", "sigma_4k_per_ohm_m"),
            ("r_4k", "r4k_ohm"),
            ("quoted_mean_free_path", "quoted_mean_free_path_nm"),
        )
        if srckey in f
    }
    annotations = {
        key: r[srckey]
        for key, srckey in (
            ("operating_power_W", "operating_power_nW"),
            ("breakdown_power_W", "breakdown_power_uW"),
        )
        if srckey in r
    }
    return DeviceConfig(
        geometry=geometry, m_eff=m_eff, cavity=cavity, calib=calib, film=film,
        film_measured=film_measured, materials=dict(materials), sweep=sweep,
        signals=tuple(signals), annotations=annotations,
    )


def example_config_path():
    """Path to the bundled example device config (reference 100 nm device)."""
    return resources.files("casimirchip.data") / "example_device.cfg"


_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]*)\s*$")


def _parse_quantity(text, units, kind):
    match = _QUANTITY_RE.match(text)
    if not match:
        raise DomainError(f"cannot parse {kind} {text!r}")
    number, unit = match.groups()
    try:
        value = float(number)
    except ValueError:
        raise DomainError(f"cannot parse {kind} {text!r}") from None
    if unit == "µm":
        unit = "um"
    if not unit:
        if value == 0.0:
            return 0.0
        raise DomainError(f"{kind} {text!r} needs a unit suffix ({'/'.join(units)})")
    if unit not in units:
        raise DomainError(f"{kind} unit must be one of {'/'.join(units)}, got {unit!r}")
    return value * _UNIT_FACTORS[unit]


def parse_length(text):
    """'100nm', '0.1um', '1e-7m' ... -> meters (bare 0 allowed)."""
    return _parse_quantity(text, ("fm", "pm", "nm", "um", "mm", "m"), "length")


def parse_temperature(text):
    """'10mK', '1.2K' -> kelvin (bare 0 allowed)."""
    return _parse_quantity(text, ("mK", "K"), "temperature")


def parse_pressure(text):
    """'0.5Pa', '6mPa' -> pascal (bare 0 allowed)."""
    return _parse_quantity(text, ("mPa", "Pa", "MPa", "GPa"), "pressure")


def parse_material_spec(text, materials=None):
    """Material from a CLI token.

    Accepts 'ideal', a material name defined in the config, or an inline
    spec like 'plasma:omega_p_eV=12', 'drude:omega_p_eV=12,gamma_meV=50',
    'superconductor:omega_p_eV=12,gamma_meV=50,tc_K=0.9'.
    """
    materials = materials or {}
    token = text.strip()
    if token == "ideal":
        return IdealMetal()
    if token in materials:
        return materials[token]
    kind, sep, body = token.partition(":")
    if not sep:
        known = ", ".join(sorted(materials)) or "none loaded"
        raise DomainError(
            f"unknown material {token!r} (config materials: {known}; or use an "
            "inline spec like 'drude:omega_p_eV=12,gamma_meV=50')"
        )
    if kind not in _MATERIAL_KINDS:
        raise DomainError(f"unknown material kind {kind!r} in {text!r}")
    values = {}
    try:
        for item in body.split(","):
            key, eq, val = item.strip().partition("=")
            if not eq:
                raise DomainError(f"bad material parameter {item!r} in {text!r}")
            if key == "model" or key not in _MATERIAL_SCHEMA:
                raise DomainError(f"unknown material parameter {key!r} in {text!r}")
            values[key] = _MATERIAL_SCHEMA[key][0](val, f"material spec {text!r} {key}")
        return _build_material(kind, values, f"material spec {text!r}")
    except ConfigError as exc:
        raise DomainError("; ".join(exc.problems)) from None
