"""Device config files and quantity parsing.

Config values are plain ``key = value`` pairs under INI-style sections.
Every dimensional key carries an explicit unit suffix (``gap_nm``,
``kappa_GHz``, ...): nm-vs-m slips are the dominant failure mode in this
domain, so unsuffixed numerics are simply not part of the schema and
unknown keys are rejected.  All problems in a file are collected and
reported together, not first-failure.

Everything is converted to SI here, at the boundary; the rest of the
library never sees nm, GHz, mK or eV.

Loading a config imports neither numpy nor the pressure engine: the
[sweep] section's ``SweepSpec`` is defined here, and of the modules whose
classes a config builds only ``materials`` uses numpy, inside
``eps_imag_freq``.  Nor does it import ``dataclasses`` or ``inspect``
(the records are ``records.record`` classes), and a config loaded by path
does not import ``importlib.resources``, which only ``example_config_path``
needs.

A config file is read on every load, and the last ``DeviceConfig`` built
is kept with the file's text and name (``_last``): a process that loads
one config many times in a row parses it once.  A repeat load builds only
the ``CavityParams`` again, so its Q check warns as a first load does,
through the caller's filters and once per place under the default ones.
Each load gets fresh ``materials``, ``film_measured`` and ``annotations``
dicts (the frozen objects inside are shared).  A config that fails to
build is not kept, and leaves the kept one as it was.
"""

from __future__ import annotations

import configparser
import math
import re
from types import MappingProxyType

from .constants import E_CHARGE, HBAR
from .errors import ConfigError, DomainError, require_nonnegative, require_positive
from .film import FilmParams
from .materials import Drude, IdealMetal, Plasma, SuperconductorTwoFluid
from .mechanics import DeviceGeometry
from .readout import CavityParams, ReadoutCalibration
from .records import record, replace

TWO_PI = 2.0 * math.pi

# SI factor per unit suffix
_UNIT_FACTORS = {
    "fm": 1e-15, "pm": 1e-12, "nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0,
    "um2": 1e-12,
    "mK": 1e-3, "K": 1.0,
    "MHz": 1e6, "GHz": 1e9,
    "mPa": 1e-3, "Pa": 1.0, "MPa": 1e6, "GPa": 1e9,
    "pg": 1e-15,
    "nW": 1e-9, "uW": 1e-6,
    "ohm": 1.0, "ohm_m2": 1.0, "per_ohm_m": 1.0,
    "kg_per_m3": 1.0,
    "GHz_per_nm": 1e18,        # Hz per m
    "mV_per_MHz": 1e-9,        # V per Hz
    "eV": E_CHARGE / HBAR,     # rad/s for an energy-quoted frequency
    "meV": 1e-3 * E_CHARGE / HBAR,
    "": 1.0,                   # explicitly dimensionless keys
}


def _num(unit, scale=1.0, check=require_positive):
    """Converter to SI; ``scale`` is 2 pi for angular keys (config files
    quote ordinary frequencies).  ``check`` runs on the number as written,
    named by its ``[section] key``: every factor is positive, so the range
    rule holds the same before and after scaling, unless the product
    underflows to 0, which is refused here."""
    factor = _UNIT_FACTORS[unit]

    def convert(text, where):
        try:
            value = float(text)
        except ValueError:
            raise ConfigError([f"{where}: expected a number, got {text!r}"]) from None
        try:
            check(where, value)
        except DomainError as exc:
            raise ConfigError([str(exc)]) from None
        si = scale * (value * factor)
        if value and not si:
            raise ConfigError([f"{where}: {value!r} rounds to 0 in SI units"])
        return si

    return convert


def _text(options):
    def convert(text, where):
        if text not in options:
            raise ConfigError(
                [f"{where}: expected one of {sorted(options)}, got {text!r}"]
            )
        return text

    return convert


def split_pair(text):
    """('A', 'B') from an 'A/B' material pair; raises DomainError otherwise."""
    a, slash, b = text.partition("/")
    if not slash:
        raise DomainError(f"material pair must be 'A/B', got {text.strip()!r}")
    return a.strip(), b.strip()


def _pair(text, where):
    try:
        return split_pair(text)
    except DomainError as exc:
        raise ConfigError([f"{where}: {exc}"]) from None


def _list(item):
    """Converter for a comma-separated list of ``item`` values; each bad
    item, or an empty list, is a problem."""

    def convert(text, where):
        values, problems = [], []
        for part in filter(None, (part.strip() for part in text.split(","))):
            try:
                values.append(item(part, where))
            except ConfigError as exc:
                problems.extend(exc.problems)
        if not values and not problems:
            problems.append(f"{where}: the list is empty")
        if problems:
            raise ConfigError(problems)
        return tuple(values)

    return convert


def _modal_mass(m_eff):
    """[mechanics]'s m_eff as is: the section builds no class, and its
    one key is checked by its converter."""
    return m_eff


# section -> (DeviceConfig field, class it builds, key -> (field, converter,
# required)); the one place a device key is named.  Required keys are the
# constructor arguments; an optional key lands in _SIDE_TABLES under its
# field name.  _modal_mass stands in for a class.
_SCHEMA = {
    "geometry": ("geometry", DeviceGeometry, {
        "string_length_um": ("string_length", _num("um"), True),
        "effective_length_um": ("effective_length", _num("um"), True),
        "width_nm": ("width", _num("nm"), True),
        "thickness_nm": ("thickness", _num("nm"), True),
        "metal_eff_thickness_nm": ("metal_eff_thickness", _num("nm"), True),
        "metal_segment_length_um": ("metal_segment_length", _num("um"), True),
        "plate_height_nm": ("plate_height", _num("nm"), True),
        "gap_nm": ("gap", _num("nm"), True),
        "film_stress_GPa": ("film_stress", _num("GPa"), True),
        "density_sin_kg_per_m3": ("density_sin", _num("kg_per_m3"), True),
        "density_al_kg_per_m3": ("density_al", _num("kg_per_m3"), True),
    }),
    "mechanics": ("m_eff", _modal_mass, {
        "m_eff_pg": ("m_eff", _num("pg"), True),
    }),
    "cavity": ("cavity", CavityParams, {
        "wavelength_nm": ("lambda_res", _num("nm"), True),
        "kappa_GHz": ("kappa", _num("GHz", TWO_PI), True),
        "kappa_e_GHz": ("kappa_e", _num("GHz", TWO_PI), True),
        "q_optical": ("q_optical", _num(""), True),
        "g_om_GHz_per_nm": ("g_om", _num("GHz_per_nm", TWO_PI), True),
    }),
    "readout": ("calib", ReadoutCalibration, {
        "pdh_slope_mV_per_MHz": ("pdh_slope", _num("mV_per_MHz"), True),
        "min_resolvable_shift_MHz": ("min_resolvable_shift", _num("MHz"), True),
        "drift_bound_MHz": ("drift_bound", _num("MHz"), True),
        "operating_power_nW": ("operating_power_W", _num("nW"), False),
        "breakdown_power_uW": ("breakdown_power_W", _num("uW"), False),
    }),
    "film": ("film", FilmParams, {
        "xi0_nm": ("xi0", _num("nm"), True),
        "lambda_london_nm": ("lambda_l", _num("nm"), True),
        "rho_ell_ohm_m2": ("rho_ell", _num("ohm_m2"), True),
        "tc_K": ("t_c", _num("K"), True),
        "wire_length_um": ("wire_length", _num("um"), True),
        "wire_cross_section_um2": ("cross_section", _num("um2"), True),
        "sigma_4k_per_ohm_m": ("sigma_4k", _num("per_ohm_m"), False),
        "r4k_ohm": ("r_4k", _num("ohm"), False),
        "quoted_mean_free_path_nm": ("quoted_mean_free_path", _num("nm"), False),
    }),
}

_SIDE_TABLES = {"readout": "annotations", "film": "film_measured"}

# material kind -> (class, its parameter keys in constructor order); the
# one table behind [material.NAME] sections and inline CLI specs alike
_MATERIAL_KINDS = {
    "ideal": (IdealMetal, ()),
    "plasma": (Plasma, ("omega_p_eV",)),
    "drude": (Drude, ("omega_p_eV", "gamma_meV")),
    "superconductor": (SuperconductorTwoFluid, ("omega_p_eV", "gamma_meV", "tc_K")),
}

_MATERIAL_SCHEMA = {
    "model": ("model", _text(set(_MATERIAL_KINDS)), True),
    "omega_p_eV": ("omega_p_eV", _num("eV"), False),
    "gamma_meV": ("gamma_meV", _num("meV", check=require_nonnegative), False),
    "tc_K": ("tc_K", _num("K"), False),
}

# [sweep] keys -> SweepSpec fields; pair names are resolved to materials
# by _parse_sweep
_SWEEP_SCHEMA = {
    "gap_min_nm": ("gap_min", _num("nm"), True),
    "gap_max_nm": ("gap_max", _num("nm"), True),
    "gap_step_nm": ("gap_step", _num("nm"), True),
    "temperatures_K": ("temperatures", _list(_num("K", check=require_nonnegative)), True),
    "pairs": ("pairs", _list(_pair), True),
}


@record
class SweepSpec:
    """Grid of gaps, temperatures and material pairs to evaluate.

    ``pairs`` holds (label, material_a, material_b) triples; the label is
    carried into the output table.  Built from a [sweep] section by
    ``_parse_sweep`` and evaluated by ``designer.run_gap_sweep``; it lives
    here, beside its loader, so that loading a config needs no engine.
    """

    gap_min: float       # m
    gap_max: float       # m
    gap_step: float      # m
    temperatures: tuple  # K
    pairs: tuple         # of (label, material model, material model)

    def __post_init__(self):
        if not (0 < self.gap_min <= self.gap_max):
            raise DomainError("need 0 < gap_min <= gap_max")
        require_positive("gap_max", self.gap_max)
        require_positive("gap_step", self.gap_step)
        for t in self.temperatures:
            require_nonnegative("temperatures", t)

    def gaps(self):
        n = int(round((self.gap_max - self.gap_min) / self.gap_step))
        out = [self.gap_min + i * self.gap_step for i in range(n + 1)]
        return tuple(g for g in out if g <= self.gap_max * (1 + 1e-12))


@record
class DeviceConfig:
    """Everything needed to drive the analysis chain for one device."""

    geometry: DeviceGeometry
    m_eff: float
    cavity: CavityParams
    calib: ReadoutCalibration
    film: FilmParams
    film_measured: dict
    materials: dict
    sweep: SweepSpec | None
    signals: tuple
    annotations: dict


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


def _parse_section(ini, section, schema, problems):
    """Converted values of ``section`` keyed by field; every problem found
    is appended to ``problems``."""
    values = {}
    if section not in ini:
        if any(required for _, _, required in schema.values()):
            problems.append(f"missing section [{section}]")
        return values
    entries = ini[section]
    for key, text in entries.items():
        if key not in schema:
            problems.append(f"[{section}]: unknown key '{key}' (unit suffix missing or typo?)")
            continue
        name, converter, _ = schema[key]
        try:
            values[name] = converter(text, f"[{section}] {key}")
        except ConfigError as exc:
            problems.extend(exc.problems)
    for key, (_, _, required) in schema.items():
        if required and key not in entries:
            problems.append(f"[{section}]: missing required key '{key}'")
    return values


def _parse_sweep(ini, materials, defined, problems):
    """SweepSpec from the [sweep] section, or None when a key is missing or
    malformed; every problem found, the SweepSpec range check included, is
    appended to ``problems``.  Pair names other than 'ideal' must be in
    ``defined``; each pair resolves through ``materials``."""
    values = _parse_section(ini, "sweep", _SWEEP_SCHEMA, problems)
    names = values.get("pairs", ())
    undefined = dict.fromkeys(name for pair in names for name in pair
                              if name != "ideal" and name not in defined)
    for name in undefined:
        problems.append(f"[sweep] pairs: material '{name}' is not defined")
    if len(values) < len(_SWEEP_SCHEMA):
        return None
    known = {"ideal", *materials}
    values["pairs"] = tuple(
        (f"{a}/{b}", parse_material_spec(a, materials), parse_material_spec(b, materials))
        for a, b in names if a in known and b in known
    )
    try:
        return SweepSpec(**values)
    except DomainError as exc:
        problems.append(f"[sweep]: {exc}")
        return None


def _read_text(path):
    """(text, file name) of the UTF-8 config file at ``path``, read afresh
    on every call, a leading byte-order mark skipped; an unreadable file
    raises ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            # line by line, as configparser reads a file, so a decoding
            # error reports the same byte position
            return "".join(handle).removeprefix("\ufeff"), handle.name
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from None


def _parse_ini(text, source):
    """Read-only {section: {key: value}} of INI ``text``, in file order; a
    syntax error raises ConfigError, whose message names ``source``."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from None
    return MappingProxyType({section: MappingProxyType(dict(parser[section]))
                             for section in parser.sections()})


def load_sweep_spec(path, materials):
    """SweepSpec from the [sweep] section of a config file, checked as
    ``load_device_config`` checks it, with pair names looked up in
    ``materials`` (e.g. the loaded device config's); raises ConfigError
    with every problem found.  Other sections are not read."""
    ini = _parse_ini(*_read_text(path))
    problems = []
    spec = _parse_sweep(ini, materials, materials, problems)
    if problems:
        raise ConfigError(problems)
    return spec


def _build(ini):
    """DeviceConfig of a parsed INI; raises ConfigError with every problem
    found."""
    problems = []
    known = set(_SCHEMA) | {"sweep", "signals"}
    for section in ini:
        if section in known or section.startswith("material."):
            continue
        problems.append(f"unknown section [{section}]")

    parts = {}
    for section, (target, cls, schema) in _SCHEMA.items():
        values = _parse_section(ini, section, schema, problems)
        required = [name for name, _, req in schema.values() if req]
        args = {name: values.pop(name) for name in required if name in values}
        if section in _SIDE_TABLES:
            parts[_SIDE_TABLES[section]] = values
        if len(args) < len(required):
            continue
        if cls is ReadoutCalibration:
            if "cavity" not in parts:
                continue
            args["linear_window"] = parts["cavity"].kappa / TWO_PI / 4.0
        try:
            parts[target] = cls(**args)
        except DomainError as exc:
            problems.append(f"[{section}]: {exc}")

    materials = {}
    material_names = [s[len("material."):] for s in ini if s.startswith("material.")]
    for name in material_names:
        section = f"material.{name}"
        found = len(problems)
        mat_values = _parse_section(ini, section, _MATERIAL_SCHEMA, problems)
        kind = mat_values.pop("model", None)
        # a key the section has but could not convert is not missing
        if kind is None or len(problems) > found:
            continue
        try:
            materials[name] = _build_material(kind, mat_values, f"[{section}]")
        except ConfigError as exc:
            problems.extend(exc.problems)

    sweep = None
    if "sweep" in ini:
        # a section that failed to build still counts as defined: its own
        # problems are reported already
        sweep = _parse_sweep(ini, materials, material_names, problems)

    signal_schema = {key: (key[:-3], _num("Pa", check=require_nonnegative), False)
                     for key in ini.get("signals", ()) if key.endswith("_Pa")}
    signals = tuple(_parse_section(ini, "signals", signal_schema, problems).items())

    if problems:
        raise ConfigError(problems)
    return DeviceConfig(materials=materials, sweep=sweep, signals=signals, **parts)


# The last (config text, file name) built and its DeviceConfig, as one
# tuple, so a thread reads and replaces both at once and needs no lock.
_last = (None, None)


def load_device_config(path):
    """Parse and assemble a device config file; raises ConfigError with
    every problem found.

    The file is read on every call.  The last text built, under the same
    name, is not built again (``_last``): its cavity is, so that
    CavityParams' warning is issued as on the first load, and the
    ``materials``, ``film_measured`` and ``annotations`` dicts are fresh;
    the other frozen objects are shared.  A config that fails to build
    leaves the kept one as it was.
    """
    global _last
    key = _read_text(path)
    last, config = _last
    if key == last:
        replace(config.cavity)
    else:
        config = _build(_parse_ini(*key))
        _last = key, config
    return replace(config, materials=dict(config.materials),
                   film_measured=dict(config.film_measured),
                   annotations=dict(config.annotations))


def example_config_path():
    """Path to the bundled example device config (reference 100 nm device)."""
    # imported here: loading a config by path needs neither it nor the
    # pathlib, zipfile and tempfile it imports
    from importlib import resources

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


def parse_material_spec(text, materials):
    """Material from a CLI token.

    Accepts 'ideal', a material name defined in the config, or an inline
    spec like 'plasma:omega_p_eV=12', 'drude:omega_p_eV=12,gamma_meV=50',
    'superconductor:omega_p_eV=12,gamma_meV=50,tc_K=0.9'.
    """
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
            if key in values:
                raise DomainError(f"duplicate material parameter {key!r} in {text!r}")
            values[key] = _MATERIAL_SCHEMA[key][1](val, f"material spec {text!r} {key}")
        return _build_material(kind, values, f"material spec {text!r}")
    except ConfigError as exc:
        raise DomainError("; ".join(exc.problems)) from None
