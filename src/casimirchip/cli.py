"""Command-line front end.

Quantities on the command line carry unit suffixes (``100nm``, ``10mK``,
``0.5Pa``); a bare ``0`` is accepted where zero is unambiguous.  Handlers
return their command's stdout; ``main`` writes it and returns 0.  Warnings
and errors go to stderr, a warning as one ``warning: <message>`` line; an
error writes no stdout and exits 1 (domain) or 2 (usage or config error).

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set already: the
engine's only BLAS calls are its quadrature sums, small single-thread
matrix-vector and dot products, so OpenBLAS's thread pool would only add
start-up time and idle threads.  The package itself (``import
casimirchip``) leaves the environment alone.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

# Before the first package import below, which loads numpy and its BLAS.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import (
    load_device_config,
    load_sweep_spec,
    parse_length,
    parse_material_spec,
    parse_pressure,
    parse_temperature,
    split_pair,
)
from .designer import (
    MaterialPairDifferential,
    StepPressureSignal,
    detectability_report,
    run_gap_sweep,
    simulate_temperature_scan,
)
from .errors import CasimirChipError, ConfigError, DomainError
from .film import (
    coherence_length,
    conductivity_from_four_point,
    extract_tc,
    ingest_rt_table,
    mean_free_path,
    penetration_depth,
)
from .lifshitz import DEFAULT_NUMERICS, LifshitzNumerics, plate_pressure
from .mechanics import (
    axial_tension,
    effective_stiffness,
    fundamental_frequency,
    pressure_to_gap_change,
)
from .readout import (
    Q_MISMATCH_WARN,
    gap_change_to_frequency_shift,
    min_detectable_pressure,
    pdh_voltage,
)
from .serialize import render_kv, scan_csv, sweep_csv, verdicts_csv


# Surfaces rougher than ~5 nm rms make a smaller nominal gap meaningless.
ROUGHNESS_SCALE = 5e-9


def _text_value(parse):
    """An argparse type from a text parser: text it cannot parse is a usage
    error (exit 2), while the parsed value's domain is checked later (exit 1)."""
    def convert(text):
        try:
            return parse(text)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _theory(text):
    """'grav-casimir', or an 'A/B-vs-C/D' token's two name pairs."""
    token = text.strip()
    if token == "grav-casimir":
        return token
    pair_part, sep, ref_part = token.partition("-vs-")
    if not sep:
        raise DomainError(f"theory must be 'grav-casimir' or 'A/B-vs-C/D', got {text!r}")
    return split_pair(pair_part), split_pair(ref_part)


def _signal(text):
    """('NAME', pressure) from a 'NAME=PRESSURE' token."""
    name, eq, value = text.partition("=")
    name = name.strip()
    if not (eq and name):
        raise DomainError(f"signal must be NAME=PRESSURE, got {text!r}")
    return name, parse_pressure(value)


def _add_config_arg(parser, required):
    parser.add_argument(
        "--config", required=required, metavar="FILE",
        help="device config file (unit-suffixed keys; see the bundled "
             "example_device.cfg)",
    )


def _add_numerics_args(parser):
    parser.add_argument("--rel-tol-series", type=float,
                        default=DEFAULT_NUMERICS.rel_tol_series,
                        help="relative tolerance of the Matsubara sum (dimensionless)")
    parser.add_argument("--rel-tol-quadrature", type=float,
                        default=DEFAULT_NUMERICS.rel_tol_quadrature,
                        help="relative tolerance of the k-integration and of the "
                             "frequency integral (dimensionless)")


def _numerics(args):
    return LifshitzNumerics(
        rel_tol_quadrature=args.rel_tol_quadrature,
        rel_tol_series=args.rel_tol_series,
    )


@functools.cache
def _build_parser():
    """The CLI's argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="casimirchip",
        description="Measurement-chain modeling for on-chip Casimir experiments "
                    "between superconducting nanobeams.  Internally everything is "
                    "SI; command-line quantities carry unit suffixes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure", help="parallel-plate Casimir pressure")
    p.add_argument("--gap", required=True, type=_text_value(parse_length),
                   help="plate separation with unit, e.g. 100nm or 0.1um")
    p.add_argument("--temp", required=True, type=_text_value(parse_temperature),
                   help="temperature with unit, e.g. 1.2K or 10mK (bare 0 allowed)")
    p.add_argument("--model-a", required=True, metavar="MATERIAL",
                   help="'ideal', a config material name, or an inline spec "
                        "like drude:omega_p_eV=12,gamma_meV=50")
    p.add_argument("--model-b", required=True, metavar="MATERIAL",
                   help="second plate material (same syntax as --model-a)")
    _add_config_arg(p, required=False)
    _add_numerics_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("sweep", help="gap sweep over material pairs (CSV)")
    _add_config_arg(p, required=True)
    p.add_argument("--spec", metavar="FILE",
                   help="config file whose [sweep] section overrides the device "
                        "config's (gap_*_nm, temperatures_K, pairs)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel evaluators; CSV and warnings are byte-identical for any value")
    _add_numerics_args(p)

    p = sub.add_parser("scan", help="simulated temperature scan of the cavity shift")
    _add_config_arg(p, required=True)
    p.add_argument("--tmin", required=True, type=_text_value(parse_temperature),
                   help="coldest grid point, e.g. 100mK")
    p.add_argument("--tmax", required=True, type=_text_value(parse_temperature),
                   help="hottest grid point, e.g. 1.2K")
    p.add_argument("--points", type=int, default=25, help="grid size")
    p.add_argument("--theory", required=True, type=_text_value(_theory),
                   help="'grav-casimir' (step signal from [signals]) or "
                        "'A/B-vs-C/D' with material names/inline specs, e.g. "
                        "al_sc/al_sc-vs-al_drude/al_drude")
    _add_numerics_args(p)

    p = sub.add_parser("film", help="dirty-limit film parameters (xi, lambda, ell)")
    _add_config_arg(p, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--sigma", type=float, metavar="S",
                       help="measured 4 K conductivity in (ohm m)^-1; default: "
                            "sigma_4k_per_ohm_m from the config, else its r4k_ohm")
    group.add_argument("--r4k", type=float, metavar="OHM",
                       help="measured 4 K wire resistance in ohm (uses the config "
                            "wire length and cross section)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("tc", help="extract T_c from a four-point R(T) CSV")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="CSV with header temperature_K,resistance_ohm "
                        "(# lines are comments)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("transduce",
                       help="pressure -> gap change, cavity shift, PDH voltage")
    _add_config_arg(p, required=True)
    p.add_argument("--pressure", required=True, type=_text_value(parse_pressure),
                   help="attractive pressure with unit, e.g. 0.5Pa or 6mPa")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("detect", help="detectability verdicts vs the chain floor")
    _add_config_arg(p, required=True)
    p.add_argument("--signal", action="append", type=_text_value(_signal),
                   metavar="NAME=PRESSURE",
                   help="named signal, e.g. grav=0.5Pa (repeatable; defaults to "
                        "the config [signals] section)")

    p = sub.add_parser("validate", help="config lint and derived-parameter report")
    _add_config_arg(p, required=True)
    return parser


def _cmd_pressure(args):
    materials = {}
    if args.config:
        materials = load_device_config(args.config).materials
    mat_a = parse_material_spec(args.model_a, materials)
    mat_b = parse_material_spec(args.model_b, materials)
    result = plate_pressure(args.gap, args.temp, mat_a, mat_b, _numerics(args))
    return render_kv([
        ("pressure_Pa", result.pressure),
        ("terms_used", result.terms_used),
        ("truncation_estimate_Pa", result.truncation_estimate),
        ("quadrature_estimate_Pa", result.quadrature_estimate),
    ], args.format)


def _cmd_sweep(args):
    if args.workers < 1:
        raise argparse.ArgumentError(None, f"--workers must be >= 1, got {args.workers}")
    cfg = load_device_config(args.config)
    spec = load_sweep_spec(args.spec, cfg.materials) if args.spec else cfg.sweep
    if spec is None:
        raise ConfigError(["config has no [sweep] section and no --spec was given"])
    rows = run_gap_sweep(spec, cfg.geometry, cfg.cavity, cfg.calib,
                         _numerics(args), workers=args.workers)
    return sweep_csv(rows)


def _resolve_theory(theory, cfg):
    """The scan's signal from a parsed ``--theory`` and the device config."""
    if theory == "grav-casimir":
        magnitude = dict(cfg.signals).get("gravitational_casimir")
        if magnitude is None:
            raise ConfigError(
                ["theory grav-casimir needs gravitational_casimir_Pa in [signals]"]
            )
        return StepPressureSignal(magnitude, cfg.film.t_c)
    pair, ref = theory

    def pair_of(names):
        return tuple(parse_material_spec(name, cfg.materials) for name in names)

    return MaterialPairDifferential(pair_of(pair), pair_of(ref))


def _cmd_scan(args):
    tmin, tmax = args.tmin, args.tmax
    if not (tmin < tmax and args.points >= 2):
        raise argparse.ArgumentError(None, "need tmin < tmax and at least 2 grid points")
    cfg = load_device_config(args.config)
    theory = _resolve_theory(args.theory, cfg)
    step = (tmax - tmin) / (args.points - 1)
    grid = [tmin + i * step for i in range(args.points)]
    points = simulate_temperature_scan(cfg.geometry, cfg.cavity, grid, theory,
                                       _numerics(args))
    return scan_csv(points, resolution_band=cfg.calib.min_resolvable_shift,
                    drift_band=cfg.calib.drift_bound)


def _cmd_film(args):
    cfg = load_device_config(args.config)
    film, measured = cfg.film, cfg.film_measured
    # The first of --r4k, --sigma, sigma_4k_per_ohm_m and r4k_ohm that is given.
    sigma, r_4k = args.sigma, args.r4k
    if r_4k is not None:
        source = f"r4k = {r_4k} ohm"
    elif sigma is not None:
        source = "--sigma"
    elif "sigma_4k" in measured:
        sigma, source = measured["sigma_4k"], "config sigma_4k_per_ohm_m"
    elif "r_4k" in measured:
        r_4k = measured["r_4k"]
        source = f"config r4k_ohm = {r_4k} ohm"
    else:
        raise ConfigError(["no conductivity: give --sigma/--r4k or set "
                           "sigma_4k_per_ohm_m or r4k_ohm"])
    if sigma is None:
        sigma = conductivity_from_four_point(film.wire_length, film.cross_section, r_4k)

    ell = mean_free_path(sigma, film.rho_ell)
    pairs = [
        ("conductivity_source", source),
        ("sigma_4k_per_ohm_m", sigma),
        ("rho_ell_ohm_m2", film.rho_ell),
        ("mean_free_path_from_sigma_nm", ell * 1e9),
    ]
    quoted = measured.get("quoted_mean_free_path")
    ells = [("from_sigma", ell)]
    if quoted is not None:
        pairs.append(("quoted_mean_free_path_nm", quoted * 1e9))
        if abs(quoted - ell) > 0.05 * ell:
            pairs.append((
                "mean_free_path_note",
                "sigma * rho_ell and the quoted mean free path disagree; "
                "lengths are reported for both, unresolved",
            ))
        ells.append(("from_quoted", quoted))
    for tag, l_mfp in ells:
        pairs.extend([
            (f"coherence_length_approx_{tag}_nm",
             coherence_length(film.xi0, l_mfp, mode="approx") * 1e9),
            (f"coherence_length_exact_t0_{tag}_nm",
             coherence_length(film.xi0, l_mfp, mode="exact") * 1e9),
            (f"penetration_depth_approx_{tag}_nm",
             penetration_depth(film.lambda_l, film.xi0, l_mfp, mode="approx") * 1e9),
            (f"penetration_depth_exact_t0_{tag}_nm",
             penetration_depth(film.lambda_l, film.xi0, l_mfp, mode="exact") * 1e9),
        ])
    pairs.append(("mode_note",
                  "approx = plateau form; exact_t0 = prefactor form at T = 0"))
    return render_kv(pairs, args.format)


def _cmd_tc(args):
    with open(args.input, "rb") as handle:
        curve = ingest_rt_table(handle.read())
    result = extract_tc(curve)
    pairs = [
        ("tc_K", result.t_c),
        ("transition_width_K", result.transition_width),
        ("r_normal_ohm", result.r_normal),
        ("r_residual_ohm", result.r_residual),
        ("multi_step", result.multi_step),
        ("threshold_crossing_K", result.threshold_crossing),
        ("n_steps", len(result.steps)),
    ]
    for i, (t_step, before, after) in enumerate(result.steps, start=1):
        pairs.extend([
            (f"step{i}_T_K", t_step),
            (f"step{i}_R_before_ohm", before),
            (f"step{i}_R_after_ohm", after),
        ])
    return render_kv(pairs, args.format)


def _cmd_transduce(args):
    cfg = load_device_config(args.config)
    pressure = args.pressure
    gap_change = pressure_to_gap_change(pressure, cfg.geometry)
    # 0.0 - x, not -x: a zero pressure shifts the cavity by +0, not -0.
    shift = gap_change_to_frequency_shift(0.0 - gap_change, cfg.cavity)
    voltage = pdh_voltage(shift, cfg.calib)
    return render_kv([
        ("pressure_Pa", pressure),
        ("gap_closing_m", gap_change),
        ("freq_shift_Hz", shift),
        ("pdh_voltage_V", voltage),
    ], args.format)


def _cmd_detect(args):
    cfg = load_device_config(args.config)
    signals = args.signal or list(cfg.signals)
    if not signals:
        raise ConfigError(["no signals: give --signal or a [signals] section"])
    verdicts = detectability_report(signals, cfg.geometry, cfg.cavity, cfg.calib)
    return verdicts_csv(verdicts)


def _cmd_validate(args):
    lines = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = load_device_config(args.config)
    lines.append(f"config ok: {args.config}")
    for w in caught:
        lines.append(f"warning: {w.message}")

    cavity = cfg.cavity
    q_from_kappa = cavity.q_from_kappa
    rel = abs(q_from_kappa - cavity.q_optical) / cavity.q_optical
    lines.append(
        f"q_optical vs omega_c/kappa: {cavity.q_optical:.4g} vs "
        f"{q_from_kappa:.4g} ({rel:.2%} apart; warn above {Q_MISMATCH_WARN:.0%})"
    )
    f1 = fundamental_frequency(cfg.geometry)
    lines.append(f"axial tension: {axial_tension(cfg.geometry):.4g} N")
    lines.append(f"fundamental frequency: {f1 / 1e3:.1f} kHz "
                 f"(effective length {cfg.geometry.effective_length * 1e6:.0f} um)")
    lines.append(f"modal stiffness: {effective_stiffness(cfg.m_eff, f1):.3g} N/m "
                 f"(m_eff {cfg.m_eff * 1e15:.0f} pg)")
    floor = min_detectable_pressure(cfg.geometry, cfg.cavity, cfg.calib)
    lines.append(f"pressure floor: {floor.pressure * 1e3:.2f} mPa at gap change "
                 f"{floor.gap_change * 1e15:.0f} fm")
    ratio = cfg.calib.min_resolvable_shift / (cavity.kappa / (2.0 * math.pi))
    lines.append(f"min shift / linewidth: {ratio:.2%}")
    if cfg.geometry.gap <= ROUGHNESS_SCALE:
        lines.append(f"warning: gap is at or below the {ROUGHNESS_SCALE * 1e9:.0f} nm "
                     "roughness scale")
    for name, value in cfg.annotations.items():
        lines.append(f"annotation {name} = {value:.4g}")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "pressure": _cmd_pressure,
    "sweep": _cmd_sweep,
    "scan": _cmd_scan,
    "film": _cmd_film,
    "tc": _cmd_tc,
    "transduce": _cmd_transduce,
    "detect": _cmd_detect,
    "validate": _cmd_validate,
}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one ``warning: <message>`` line on stderr, the form
    ``validate`` reports config warnings in: no source path or line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        # the caller's filters stay; only the display changes
        warnings.showwarning = _show_warning
        try:
            sys.stdout.write(_HANDLERS[args.command](args))
            return 0
        except ConfigError as exc:
            for problem in exc.problems:
                print(f"config error: {problem}", file=sys.stderr)
            return 2
        except argparse.ArgumentError as exc:
            # A command-line value the handler rejects, e.g. --tmin >= --tmax.
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except CasimirChipError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
