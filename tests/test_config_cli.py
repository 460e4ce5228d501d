import argparse
import contextlib
import csv
import inspect
import json
import math
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from casimirchip import (
    DEFAULT_NUMERICS,
    ConfigError,
    DomainError,
    Drude,
    IdealMetal,
    MaterialPairDifferential,
    Plasma,
    ReadoutCalibration,
    SuperconductorTwoFluid,
    SweepSpec,
    example_config_path,
    load_device_config,
    parse_material_spec,
    simulate_temperature_scan,
)
from casimirchip import cli, config
from casimirchip.cli import _build_parser, _numerics, main
from casimirchip.config import parse_length, parse_pressure, parse_temperature
from casimirchip.serialize import fmt, render_kv, scan_csv

EXAMPLE = str(example_config_path())


def csv_table(text):
    """(header, rows) of an emitted CSV table, ``#`` comment lines skipped."""
    header, *rows = csv.reader(line for line in text.splitlines()
                               if not line.startswith("#"))
    return tuple(header), rows


# ------------------------------------------------------------------- config

def test_example_config_loads():
    cfg = load_device_config(EXAMPLE)
    assert cfg.geometry.gap == pytest.approx(100e-9)
    assert cfg.cavity.kappa == pytest.approx(2 * math.pi * 4.2e9)
    assert cfg.cavity.g_om == pytest.approx(2 * math.pi * 50e18)
    assert cfg.calib.min_resolvable_shift == pytest.approx(10e6)
    assert cfg.m_eff == pytest.approx(418e-15)
    assert cfg.film.t_c == pytest.approx(0.9)
    assert set(cfg.materials) == {"al_plasma", "al_drude", "al_sc"}
    assert isinstance(cfg.materials["al_drude"], Drude)
    assert isinstance(cfg.materials["al_sc"], SuperconductorTwoFluid)
    assert cfg.sweep is not None
    assert dict(cfg.signals)["gravitational_casimir"] == pytest.approx(0.5)
    # energy-quoted omega_p converts through e/hbar
    assert cfg.materials["al_plasma"].omega_p == pytest.approx(1.823e16, rel=1e-3)


def test_config_collects_all_problems(tmp_path):
    bad = tmp_path / "bad.cfg"
    text = (example_config_path().read_text()
            .replace("gap_nm = 100", "gap = 100")
            .replace("kappa_GHz = 4.2", "kappa_GHz = not-a-number"))
    bad.write_text(text)
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    problems = "\n".join(excinfo.value.problems)
    assert "unknown key 'gap'" in problems
    assert "missing required key 'gap_nm'" in problems
    assert "expected a number" in problems


def test_schema_required_fields_are_constructor_parameters():
    for section, (_, cls, schema) in config._SCHEMA.items():
        required = {name for name, _, req in schema.values() if req}
        if cls is ReadoutCalibration:
            required.add("linear_window")
        assert required == set(inspect.signature(cls).parameters), section
    fields = {name for name, _, _ in config._SWEEP_SCHEMA.values()}
    assert fields == set(inspect.signature(SweepSpec).parameters)


def test_sweep_section_loads_as_sweep_spec():
    cfg = load_device_config(EXAMPLE)
    sweep = cfg.sweep
    assert isinstance(sweep, SweepSpec)
    assert (sweep.gap_min, sweep.gap_max, sweep.gap_step) == pytest.approx(
        (100e-9, 300e-9, 10e-9))
    assert sweep.temperatures == (1.3,)
    plasma, drude = cfg.materials["al_plasma"], cfg.materials["al_drude"]
    assert sweep.pairs == (("al_plasma/al_plasma", plasma, plasma),
                           ("al_drude/al_drude", drude, drude))


def test_sweep_range_problem_is_collected_with_the_others(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text()
                   .replace("gap_nm = 100", "gap_nm = x")
                   .replace("temperatures_K = 1.3", "temperatures_K = 1.3, -1"))
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    assert excinfo.value.problems == [
        "[geometry] gap_nm: expected a number, got 'x'",
        "[sweep] temperatures_K must be finite and >= 0, got -1.0",
    ]


def test_config_rejects_unknown_section(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text() + "\n[typo]\nx_nm = 1\n")
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    assert any("unknown section" in p for p in excinfo.value.problems)


def test_config_rewritten_with_same_size_and_mtime_is_read_again(tmp_path):
    path = tmp_path / "device.cfg"
    path.write_text(example_config_path().read_text())
    assert load_device_config(path).geometry.gap == pytest.approx(100e-9)
    before = path.stat()
    path.write_text(path.read_text().replace("gap_nm = 100", "gap_nm = 200"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert load_device_config(path).geometry.gap == pytest.approx(200e-9)


@pytest.mark.parametrize("text, problem", [
    ("[geometry]\ngap_nm = 1\n[geometry]\n",
     "config syntax: While reading from {path!r} [line  3]: "
     "section 'geometry' already exists"),
    ("[typo]\n", "unknown section [typo]"),
    ("[material.x]\nmodel = foo\n",
     "[material.x] model: expected one of ['drude', 'ideal', 'plasma', 'superconductor'], "
     "got 'foo'"),
    ("[material.x]\nomega_p_eV = 12\n", "[material.x]: missing required key 'model'"),
    ("[sweep]\npairs = al_drude\n",
     "[sweep] pairs: material pair must be 'A/B', got 'al_drude'"),
    ("[sweep]\ntemperatures_K = 1.3, x\n",
     "[sweep] temperatures_K: expected a number, got 'x'"),
    ("[signals]\ngravitational_casimir_Pa = x\n",
     "[signals] gravitational_casimir_Pa: expected a number, got 'x'"),
], ids=["syntax", "schema", "unknown-model", "no-model", "pair-without-slash",
        "bad-temperature", "non-numeric-signal"])
def test_broken_config_raises_the_same_problems_on_every_call(tmp_path, text, problem):
    # the same text under two names: a syntax error names the file it is in
    for name in ("a.cfg", "b.cfg"):
        path = tmp_path / name
        path.write_text(text)
        for _ in range(2):
            with pytest.raises(ConfigError) as excinfo:
                load_device_config(str(path))
            assert problem.format(path=str(path)) in excinfo.value.problems


def test_config_loads_share_no_mutable_state():
    first = load_device_config(EXAMPLE)
    first.materials.clear()
    first.film_measured.clear()
    first.annotations.clear()
    second = load_device_config(EXAMPLE)
    assert set(second.materials) == {"al_plasma", "al_drude", "al_sc"}
    assert "sigma_4k" in second.film_measured and second.annotations
    with pytest.raises(TypeError):
        config._parse_ini(*config._read_text(EXAMPLE))["geometry"]["gap_nm"] = "1"


@pytest.mark.parametrize("edits, error", [
    ([{}], None),
    ([{}, {"gap_nm = 100": "gap_nm = 101"}], None),
    ([{"[signals]": "[extra]\n[signals]"}], ConfigError),
], ids=["one-text", "two-texts-one-cavity", "broken"])
def test_memoized_config_warns_once_per_place_under_the_default_filters(
        tmp_path, edits, error):
    # CavityParams' warning comes from one place, so under the default
    # filters it shows once: for a text loaded again from the memo, for two
    # texts with the same cavity, and for a config that fails to build.
    paths = []
    for i, edit in enumerate(edits):
        text = example_config_path().read_text()
        for old, new in {"q_optical = 4.5e4": "q_optical = 9e4", **edit}.items():
            text = text.replace(old, new)
        paths.append(tmp_path / f"mismatch{i}.cfg")
        paths[-1].write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for path in paths:
            for _ in range(3):
                with pytest.raises(error) if error else contextlib.nullcontext():
                    load_device_config(path)
    assert [str(w.message)[:30] for w in caught] == ["q_optical = 9e+04 differs from"]


def test_the_callers_filters_act_on_a_memo_hit_as_on_a_first_load(tmp_path):
    path = tmp_path / "mismatch.cfg"
    path.write_text(example_config_path().read_text().replace(
        "q_optical = 4.5e4", "q_optical = 9e4"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", module=r"casimirchip\.readout")
        for _ in range(2):
            load_device_config(path)
    assert caught == []

    def load(action):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter(action)
            return load_device_config(path)

    path.write_text(path.read_text().replace("gap_nm = 100", "gap_nm = 101"))
    for _ in range(2):
        with pytest.raises(UserWarning, match="q_optical = 9e"):
            load("error")
    kept = load("default")
    # a memo hit that raises keeps its entry
    with pytest.raises(UserWarning, match="q_optical = 9e"):
        load("error")
    assert load("default").geometry is kept.geometry


def test_concurrent_first_loads_leave_the_warning_filters_as_they_were(tmp_path):
    # Loads that build at once in four threads leave the process-wide
    # warning filters as they were: a build that set filters of its own
    # and restored them afterwards, as catch_warnings does, would restore a
    # stale list when two builds interleave.
    example = example_config_path().read_text()
    paths = []
    for i in range(48):
        paths.append(tmp_path / f"device{i}.cfg")
        paths[-1].write_text(example.replace("gap_nm = 100", f"gap_nm = {100 + i}"))
    before, interval = list(warnings.filters), sys.getswitchinterval()
    gaps = {}

    def load(chunk):
        for path in chunk:
            gaps[path] = load_device_config(path).geometry.gap

    threads = [threading.Thread(target=load, args=(paths[i::4],)) for i in range(4)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert warnings.filters == before
    assert gaps == {path: pytest.approx((100 + i) * 1e-9) for i, path in enumerate(paths)}


def test_another_threads_warning_is_shown_once_and_not_memoized(tmp_path):
    # While two threads build configs, another thread warns; each of its
    # warnings is shown once, to the caller's recorder, and none is kept
    # with a built config: a later load of the kept text issues none.
    example = example_config_path().read_text()
    paths = []
    for i in range(8):
        paths.append(tmp_path / f"device{i}.cfg")
        paths[-1].write_text(example.replace("gap_nm = 100", f"gap_nm = {100 + i}"))
    done, raised = threading.Event(), []

    def warn():
        while not done.is_set() and len(raised) < 20_000:
            warnings.warn("noise")
            raised.append(1)

    def load(chunk):
        for path in chunk:
            loaded[path] = load_device_config(path)

    loaded, interval = {}, sys.getswitchinterval()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warner = threading.Thread(target=warn)
        loaders = [threading.Thread(target=load, args=(paths[i::2],)) for i in range(2)]
        sys.setswitchinterval(1e-6)
        try:
            warner.start()
            for thread in loaders:
                thread.start()
            for thread in loaders:
                thread.join(timeout=60)
        finally:
            done.set()
            warner.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in (warner, *loaders))
        assert sum(str(w.message) == "noise" for w in caught) == len(raised)
        # the last text built is kept: loading it again shares the first
        # load's frozen objects
        held = [path for path in paths if config._read_text(path) == config._last[0]]
        assert len(held) == 1
        assert load_device_config(held[0]).geometry is loaded[held[0]].geometry
    assert sum(str(w.message) == "noise" for w in caught) == len(raised)


def test_memo_hit_equals_a_fresh_build():
    first = load_device_config(EXAMPLE)
    hit = load_device_config(EXAMPLE)
    assert hit.geometry is first.geometry
    key, cached = config._last
    assert key == config._read_text(EXAMPLE)
    for name in ("materials", "film_measured", "annotations"):
        assert getattr(hit, name) is not getattr(cached, name)
    config._last = (None, None)
    fresh = load_device_config(EXAMPLE)
    assert fresh.geometry is not hit.geometry
    assert fresh == hit


def test_a_config_behind_a_byte_order_mark_loads_as_without(tmp_path):
    # Notepad and Excel's "CSV UTF-8" start a UTF-8 file with the mark.
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + example_config_path().read_bytes())
    example = load_device_config(EXAMPLE)
    assert load_device_config(bom) == example
    spec = config.load_sweep_spec(bom, example.materials)
    assert spec == config.load_sweep_spec(EXAMPLE, example.materials) == example.sweep


def test_a_bad_byte_behind_a_byte_order_mark_is_reported_at_its_file_offset(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xef\xbb\xbf[geometry]\ngap_nm = 100\xff\n")
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(bad)
    assert "byte 0xff in position 26" in str(excinfo.value)


def test_a_text_built_after_another_is_built_again(tmp_path):
    # Only the last text built is kept: loading A, B, A builds A twice, and
    # its second build warns as the first did; a fourth load of A is a hit.
    example = example_config_path().read_text()
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text(example.replace("q_optical = 4.5e4", "q_optical = 9e4"))
    b.write_text(example)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fresh = {path: config._build(config._parse_ini(*config._read_text(path)))
                 for path in (a, b)}
    loads, caught, warned = [], [], ["q_optical = 9e+04 differs from"]
    for path in (a, b, a, a):
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            loads.append(load_device_config(path))
        caught.append([str(w.message)[:30] for w in shown])
        assert loads[-1] == fresh[path]
    assert caught == [warned, [], warned, warned]
    assert loads[2].geometry is not loads[0].geometry
    assert loads[3].geometry is loads[2].geometry


def test_signals_require_pa_suffix(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text().replace(
        "gravitational_casimir_Pa", "gravitational_casimir"))
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    assert ("[signals]: unknown key 'gravitational_casimir' (unit suffix missing or typo?)"
            in excinfo.value.problems)


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_signal_range_problem_is_collected_with_the_others(tmp_path, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text()
                   .replace("gap_nm = 100", "gap_nm = x")
                   .replace("gravitational_casimir_Pa = 0.5",
                            f"gravitational_casimir_Pa = {value}"))
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    assert excinfo.value.problems == [
        "[geometry] gap_nm: expected a number, got 'x'",
        f"[signals] gravitational_casimir_Pa must be finite and >= 0, got {float(value)!r}",
    ]


@pytest.mark.parametrize("command", [["validate"], ["transduce", "--pressure", "1Pa"]])
def test_modal_mass_range_problem_is_collected_with_the_others(tmp_path, capsys, command):
    # [mechanics] builds no class; its m_eff used to go unchecked at load,
    # so validate failed later with a domain error and transduce ran.
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text()
                   .replace("gap_nm = 100", "gap_nm = -5")
                   .replace("m_eff_pg = 418", "m_eff_pg = -418"))
    problems = [
        "[geometry] gap_nm must be finite and > 0, got -5.0",
        "[mechanics] m_eff_pg must be finite and > 0, got -418.0",
    ]
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    assert excinfo.value.problems == problems
    code, out, err = run_cli(capsys, *command, "--config", str(bad))
    assert (code, out) == (2, "")
    assert err == "".join(f"config error: {problem}\n" for problem in problems)


@pytest.mark.parametrize("command", [["validate"], ["transduce", "--pressure", "1Pa"]])
def test_value_that_underflows_in_si_is_a_config_error(tmp_path, capsys, command):
    # Each is > 0 as written and 0.0 once scaled to SI; neither [mechanics]
    # nor an optional key has a class that would refuse the 0.
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text()
                   .replace("m_eff_pg = 418", "m_eff_pg = 1e-310")
                   .replace("operating_power_nW = 200", "operating_power_nW = 1e-320"))
    code, out, err = run_cli(capsys, *command, "--config", str(bad))
    assert (code, out) == (2, "")
    assert err == ("config error: [mechanics] m_eff_pg: 1e-310 rounds to 0 in SI units\n"
                   "config error: [readout] operating_power_nW: 1e-320 rounds to 0 in SI units\n")


def test_parse_material_specs():
    cfg = load_device_config(EXAMPLE)
    assert isinstance(parse_material_spec("ideal", cfg.materials), IdealMetal)
    assert parse_material_spec("al_drude", cfg.materials) is cfg.materials["al_drude"]
    inline = parse_material_spec("plasma:omega_p_eV=12", {})
    assert isinstance(inline, Plasma)
    sc = parse_material_spec("superconductor:omega_p_eV=12,gamma_meV=50,tc_K=0.9", {})
    assert isinstance(sc, SuperconductorTwoFluid)
    with pytest.raises(DomainError):
        parse_material_spec("unobtainium", cfg.materials)
    with pytest.raises(DomainError):
        parse_material_spec("drude:omega_p_eV=12", {})  # gamma missing


def test_material_section_domain_error_is_collected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text()
                   .replace("model = plasma\nomega_p_eV = 12.0",
                            "model = plasma\nomega_p_eV = -12")
                   .replace("gap_nm = 100", "gap_nm = x"))
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    problems = excinfo.value.problems
    assert "[material.al_plasma] omega_p_eV must be finite and > 0, got -12.0" in problems
    assert any("gap_nm" in p for p in problems)
    # the failed material is reported once, not again as undefined in [sweep]
    assert not any("not defined" in p for p in problems)


@pytest.mark.parametrize("old, new, problem", [
    ("gamma_meV = 50\n\n[material.al_sc]", "gamma_meV = abc\n\n[material.al_sc]",
     "[material.al_drude] gamma_meV: expected a number, got 'abc'"),
    ("omega_p_eV = 12.0\n\n[material.al_drude]", "omega_p_eV = -12\n\n[material.al_drude]",
     "[material.al_plasma] omega_p_eV must be finite and > 0, got -12.0"),
], ids=["malformed", "out-of-range"])
def test_material_key_that_fails_to_convert_is_not_also_missing(tmp_path, old, new, problem):
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text().replace(old, new))
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    assert excinfo.value.problems == [problem]


def test_inline_spec_bad_number_raises_domain_error():
    with pytest.raises(DomainError, match="expected a number"):
        parse_material_spec("drude:omega_p_eV=abc,gamma_meV=1", {})


@pytest.mark.parametrize("spec, message", [
    ("bogus:omega_p_eV=1", "unknown material kind 'bogus'"),
    ("drude:omega_p_eV", "bad material parameter 'omega_p_eV'"),
    ("drude:foo=1", "unknown material parameter 'foo'"),
], ids=["unknown-kind", "no-value", "unknown-key"])
def test_inline_spec_malformed_raises_domain_error(spec, message):
    with pytest.raises(DomainError, match=re.escape(f"{message} in {spec!r}")):
        parse_material_spec(spec, {})


def test_material_rejects_key_its_kind_does_not_take(tmp_path):
    with pytest.raises(DomainError, match="does not take tc_K"):
        parse_material_spec("plasma:omega_p_eV=12,tc_K=1", {})
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text().replace(
        "model = plasma\nomega_p_eV = 12.0", "model = plasma\nomega_p_eV = 12.0\ntc_K = 1"))
    with pytest.raises(ConfigError) as excinfo:
        load_device_config(str(bad))
    assert excinfo.value.problems == [
        "[material.al_plasma]: model 'plasma' does not take tc_K"
    ]


def test_quantity_parsers():
    assert parse_length("100nm") == pytest.approx(100e-9)
    assert parse_length("0.1um") == pytest.approx(100e-9)
    assert parse_length("1e-7m") == pytest.approx(100e-9)
    assert parse_length("0") == 0.0
    assert parse_length("1µm") == parse_length("1um") == pytest.approx(1e-6)
    assert parse_temperature("10mK") == pytest.approx(0.01)
    assert parse_temperature("1.2K") == pytest.approx(1.2)
    assert parse_pressure("6mPa") == pytest.approx(6e-3)
    with pytest.raises(DomainError):
        parse_length("100")  # bare nonzero number: no unit
    with pytest.raises(DomainError, match="cannot parse length"):
        parse_length("1.2.3nm")
    with pytest.raises(DomainError):
        parse_temperature("10s")


# ---------------------------------------------------------------- serialize

def test_fmt_round_trips_doubles():
    values = [13.001257724477536, 1e-300, -2.5e17, 0.1 + 0.2]
    assert all(float(fmt(v)) == v for v in values)


def test_render_kv_writes_nan_as_text_nan_and_json_null():
    import json

    pairs = [("a_Pa", math.nan), ("b_Pa", -math.nan), ("n", 3), ("ok", True)]
    assert fmt(math.nan) == fmt(-math.nan) == "nan"
    assert render_kv(pairs, "text") == "a_Pa = nan\nb_Pa = nan\nn = 3\nok = true\n"
    text = render_kv(pairs, "json")
    assert text.endswith("}\n") and "NaN" not in text
    assert json.loads(text) == {"a_Pa": None, "b_Pa": None, "n": 3, "ok": True}


def test_scan_csv_round_trip_and_bands():
    points = [(0.5, -6.1e8), (0.9, 0.0), (1.2, 1.0 / 3.0)]
    text = scan_csv(points, resolution_band=1e7, drift_band=3e7)
    assert "# resolution_band_Hz = 10000000" in text
    header, rows = csv_table(text)
    assert header == ("temperature_K", "freq_shift_Hz")
    parsed = [(float(t), float(s)) for t, s in rows]
    assert parsed == points


# ---------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_pressure_ideal(capsys):
    code, out, err = run_cli(
        capsys, "pressure", "--gap", "100nm", "--temp", "0",
        "--model-a", "ideal", "--model-b", "ideal",
    )
    assert code == 0 and err == ""
    value = float(out.splitlines()[0].split("=")[1])
    assert value == pytest.approx(13.00, abs=0.01)


def test_cli_pressure_json_format(capsys):
    import json

    code, out, _ = run_cli(
        capsys, "pressure", "--gap", "1um", "--temp", "0",
        "--model-a", "ideal", "--model-b", "ideal", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pressure_Pa"] == pytest.approx(1.300e-3, rel=1e-3)


def test_cli_pressure_named_material(capsys):
    code, out, _ = run_cli(
        capsys, "pressure", "--gap", "150nm", "--temp", "1.3K",
        "--model-a", "al_drude", "--model-b", "al_drude", "--config", EXAMPLE,
    )
    assert code == 0
    assert float(out.splitlines()[0].split("=")[1]) > 0


def test_cli_pressure_usage_error(capsys):
    code = main(["pressure", "--gap", "100nm"])
    capsys.readouterr()
    assert code == 2


def test_cli_pressure_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "pressure", "--gap", "100nm", "--temp=-1K",
        "--model-a", "ideal", "--model-b", "ideal",
    )
    assert code == 1 and out == "" and "error" in err


def test_cli_pressure_past_the_float_range_is_one_error_line(capsys):
    code, out, err = run_cli(
        capsys, "pressure", "--gap", "100nm", "--temp", "1e300K",
        "--model-a", "ideal", "--model-b", "ideal",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err


def test_cli_pressure_rejects_duplicate_inline_key(capsys):
    spec = "plasma:omega_p_eV=12,omega_p_eV=1"
    code, out, err = run_cli(
        capsys, "pressure", "--gap", "100nm", "--temp", "0",
        "--model-a", spec, "--model-b", "ideal",
    )
    assert code == 1 and out == ""
    assert err == f"error: duplicate material parameter 'omega_p_eV' in {spec!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["scan", "--config", EXAMPLE, "--tmin", "0.5K", "--tmax", "1K",
      "--theory", "al_sc-vs-al_drude"],
     "argument --theory: material pair must be 'A/B', got 'al_sc'"),
    (["scan", "--config", EXAMPLE, "--tmin", "0.5K", "--tmax", "1K", "--theory", "al_sc"],
     "argument --theory: theory must be 'grav-casimir' or 'A/B-vs-C/D', got 'al_sc'"),
    (["scan", "--config", EXAMPLE, "--tmin", "1K", "--tmax", "0.5K",
      "--theory", "grav-casimir"],
     "usage error: need tmin < tmax and at least 2 grid points"),
    (["scan", "--config", EXAMPLE, "--tmin", "0.5K", "--tmax", "1K", "--points", "1",
      "--theory", "grav-casimir"],
     "usage error: need tmin < tmax and at least 2 grid points"),
    (["pressure", "--gap", "100xx", "--temp", "0", "--model-a", "ideal", "--model-b", "ideal"],
     "argument --gap: length unit must be one of fm/pm/nm/um/mm/m, got 'xx'"),
    (["sweep", "--config", EXAMPLE, "--workers", "0"],
     "usage error: --workers must be >= 1, got 0"),
], ids=["theory-pair", "theory-without-vs", "tmin-above-tmax", "one-point", "gap-unit",
        "zero-workers"])
def test_cli_malformed_value_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.filterwarnings("ignore:frequency shift")
def test_cli_sweep_with_spec_file(capsys, tmp_path):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(
        "[sweep]\ngap_min_nm = 100\ngap_max_nm = 120\ngap_step_nm = 10\n"
        "temperatures_K = 1.3\npairs = al_drude/al_drude\n"
    )
    code, out, err = run_cli(
        capsys, "sweep", "--config", EXAMPLE, "--spec", str(spec), "--workers", "2",
    )
    assert code == 0 and err == ""
    header, rows = csv_table(out)
    assert header[0] == "gap_m"
    assert len(rows) == 3
    gaps = [float(r[0]) for r in rows]
    assert gaps == sorted(gaps)
    # lossless numeric round trip at 17 significant digits
    for row in rows:
        assert float(row[3]) > 0


SPEC_OK = ("[sweep]\ngap_min_nm = 100\ngap_max_nm = 120\ngap_step_nm = 10\n"
           "temperatures_K = 1.3\npairs = al_drude/al_drude\n")


@pytest.mark.parametrize("text", [
    SPEC_OK + "gap_step_nm = 20\n",   # duplicate key
    SPEC_OK + "[sweep]\n",            # duplicate section
    "[sweep\n",                       # no section header
], ids=["duplicate-key", "duplicate-section", "syntax"])
def test_cli_sweep_malformed_spec_exits_two(capsys, tmp_path, text):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(text)
    code, out, err = run_cli(capsys, "sweep", "--config", EXAMPLE, "--spec", str(spec))
    assert code == 2 and out == ""
    assert err.startswith("config error: config syntax:")


def _sweep_via(how, tmp_path, **replace):
    """argv running a sweep whose [sweep] keys are overridden, through the
    device config itself or through a --spec file."""
    text = SPEC_OK if how == "spec" else example_config_path().read_text()
    for key, value in replace.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    if how == "spec":
        return ["sweep", "--config", EXAMPLE, "--spec", str(path)]
    return ["sweep", "--config", str(path)]


@pytest.mark.parametrize("how", ["config", "spec"])
def test_cli_sweep_undefined_pair_name_exits_two_once(capsys, tmp_path, how):
    code, out, err = run_cli(capsys, *_sweep_via(how, tmp_path, pairs="nope/nope"))
    assert code == 2 and out == ""
    assert err == "config error: [sweep] pairs: material 'nope' is not defined\n"


@pytest.mark.parametrize("how", ["config", "spec"])
@pytest.mark.parametrize("key", ["temperatures_K", "pairs"])
def test_cli_sweep_empty_list_exits_two(capsys, tmp_path, how, key):
    code, out, err = run_cli(capsys, *_sweep_via(how, tmp_path, **{key: ""}))
    assert code == 2 and out == ""
    assert f"config error: [sweep] {key}: the list is empty" in err


SWEEP_RANGE_PROBLEMS = pytest.mark.parametrize("replace, message", [
    ({"gap_min_nm": "400"}, "[sweep]: need 0 < gap_min <= gap_max"),
    ({"temperatures_K": "1.3, -1"}, "[sweep] temperatures_K must be finite and >= 0, got -1.0"),
    ({"gap_max_nm": "inf"}, "[sweep] gap_max_nm must be finite and > 0, got inf"),
    ({"gap_step_nm": "inf"}, "[sweep] gap_step_nm must be finite and > 0, got inf"),
], ids=["gap-range", "negative-temperature", "infinite-gap-max", "infinite-gap-step"])


@pytest.mark.parametrize("how", ["config", "spec"])
@SWEEP_RANGE_PROBLEMS
def test_cli_sweep_range_problem_exits_two(capsys, tmp_path, how, replace, message):
    code, out, err = run_cli(capsys, *_sweep_via(how, tmp_path, **replace))
    assert code == 2 and out == ""
    assert err == f"config error: {message}\n"


@SWEEP_RANGE_PROBLEMS
def test_cli_validate_reports_sweep_range_problem(capsys, tmp_path, replace, message):
    config_path = _sweep_via("config", tmp_path, **replace)[-1]
    code, out, err = run_cli(capsys, "validate", "--config", config_path)
    assert code == 2 and out == ""
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["pressure", "--gap", "100nm", "--temp", "0", "--model-a", "ideal",
     "--model-b", "ideal"],
    ["sweep", "--config", EXAMPLE],
    ["scan", "--config", EXAMPLE, "--tmin", "0.5K", "--tmax", "1K",
     "--theory", "grav-casimir"],
], ids=["pressure", "sweep", "scan"])
def test_cli_numerics_default_to_library_defaults(argv):
    assert _numerics(_build_parser().parse_args(argv)) == DEFAULT_NUMERICS


def test_cli_has_no_t_zero_nodes_flag(capsys):
    code, out, err = run_cli(
        capsys, "pressure", "--gap", "100nm", "--temp", "0", "--model-a", "ideal",
        "--model-b", "ideal", "--t-zero-nodes", "64",
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --t-zero-nodes 64" in err


@pytest.mark.parametrize("command", [
    ["sweep", "--config", EXAMPLE],
    ["scan", "--config", EXAMPLE, "--tmin", "0.5K", "--tmax", "1K", "--theory", "grav-casimir"],
], ids=["sweep", "scan"])
def test_cli_has_no_output_flag(capsys, tmp_path, command):
    # CSV goes to stdout, like every other command's output.
    path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, *command, "--output", str(path))
    assert code == 2 and out == "" and not path.exists()
    assert f"unrecognized arguments: --output {path}" in err


def test_cli_scan_grav_stub(capsys):
    code, out, err = run_cli(
        capsys, "scan", "--config", EXAMPLE, "--tmin", "500mK", "--tmax", "1.2K",
        "--points", "8", "--theory", "grav-casimir",
    )
    assert code == 0 and err == ""
    assert "# resolution_band_Hz" in out and "# drift_band_Hz" in out
    header, rows = csv_table(out)
    assert header == ("temperature_K", "freq_shift_Hz")
    assert len(rows) == 8
    shifts = [float(s) for _, s in rows]
    assert shifts[-1] == 0.0
    assert 0.5e9 <= abs(shifts[0]) <= 4.5e9


def test_cli_film_reports_both_mean_free_paths(capsys):
    code, out, err = run_cli(capsys, "film", "--config", EXAMPLE)
    assert code == 0 and err == ""
    lines = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    assert float(lines["mean_free_path_from_sigma_nm"]) == pytest.approx(16.4, rel=1e-3)
    assert float(lines["quoted_mean_free_path_nm"]) == pytest.approx(10.8)
    assert "disagree" in lines["mean_free_path_note"]
    assert float(lines["coherence_length_approx_from_quoted_nm"]) == pytest.approx(
        131.5, rel=1e-3
    )
    assert float(lines["penetration_depth_exact_t0_from_quoted_nm"]) == pytest.approx(
        120.7, rel=1e-3
    )


def test_cli_film_with_r4k(capsys):
    # --r4k 45 goes through the config's wire geometry to --sigma 4.1e7's value.
    for flag, value, source in (("--r4k", "45", "r4k = 45.0 ohm"),
                                ("--sigma", "4.1e7", "--sigma")):
        code, out, _ = run_cli(capsys, "film", "--config", EXAMPLE, flag, value)
        assert code == 0
        lines = dict(l.split(" = ", 1) for l in out.splitlines() if " = " in l)
        assert lines["conductivity_source"] == source
        assert float(lines["sigma_4k_per_ohm_m"]) == pytest.approx(4.1e7, rel=1e-3)


def _example_without(tmp_path, *, sections=(), keys=(), replace=None):
    """Path of a copy of the example config without the named sections and
    keys, and with ``replace`` (old, new) applied to its text."""
    text = example_config_path().read_text()
    for name in sections:
        text = re.sub(rf"(?ms)^\[{name}\]\n.*?(?=^\[|\Z)", "", text)
    for key in keys:
        text = re.sub(rf"(?m)^{key} = .*\n", "", text)
    if replace:
        text = text.replace(*replace)
    path = tmp_path / "device.cfg"
    path.write_text(text)
    return str(path)


def test_cli_film_falls_back_to_the_config_r4k(capsys, tmp_path):
    # r4k_ohm is the last conductivity source, after --r4k, --sigma and
    # sigma_4k_per_ohm_m: through the wire geometry it gives --r4k 45's sigma.
    config_path = _example_without(tmp_path, keys=["sigma_4k_per_ohm_m"])
    code, out, err = run_cli(capsys, "film", "--config", config_path)
    assert code == 0 and err == ""
    lines = dict(l.split(" = ", 1) for l in out.splitlines() if " = " in l)
    assert lines["conductivity_source"] == "config r4k_ohm = 45.0 ohm"
    _, via_flag, _ = run_cli(capsys, "film", "--config", EXAMPLE, "--r4k", "45")
    assert out.splitlines()[1:] == via_flag.splitlines()[1:]
    # Both keys given: sigma_4k_per_ohm_m wins, as before.
    _, out, _ = run_cli(capsys, "film", "--config", EXAMPLE)
    assert "conductivity_source = config sigma_4k_per_ohm_m\n" in out


def test_cli_film_without_any_conductivity_exits_two(capsys, tmp_path):
    config_path = _example_without(tmp_path, keys=["sigma_4k_per_ohm_m", "r4k_ohm"])
    code, out, err = run_cli(capsys, "film", "--config", config_path)
    assert code == 2 and out == ""
    assert err == ("config error: no conductivity: give --sigma/--r4k or set "
                   "sigma_4k_per_ohm_m or r4k_ohm\n")


def test_cli_scan_material_pair_theory_is_the_library_scan(capsys):
    # The paper's observable: the superconducting pair against its normal
    # state, read as a cavity shift relative to the hottest point.
    code, out, err = run_cli(
        capsys, "scan", "--config", EXAMPLE, "--tmin", "500mK", "--tmax", "1.2K",
        "--points", "7", "--theory", "al_sc/al_sc-vs-al_drude/al_drude",
    )
    assert code == 0 and err == ""
    cfg = load_device_config(EXAMPLE)
    pair = (cfg.materials["al_sc"],) * 2
    reference = (cfg.materials["al_drude"],) * 2
    theory = MaterialPairDifferential(pair, reference)
    tmin, tmax = parse_temperature("500mK"), parse_temperature("1.2K")
    step = (tmax - tmin) / 6
    grid = [tmin + i * step for i in range(7)]
    points = simulate_temperature_scan(cfg.geometry, cfg.cavity, grid, theory)
    assert out == scan_csv(points, resolution_band=cfg.calib.min_resolvable_shift,
                           drift_band=cfg.calib.drift_bound)
    rows = [(float(t), float(shift)) for t, shift in csv_table(out)[1]]
    assert rows[-1][1] == 0.0
    below = [shift for t, shift in rows if t < cfg.film.t_c]
    assert len(below) == 4 and all(shift < 0.0 for shift in below)


@pytest.mark.parametrize("argv, section, message", [
    (["sweep"], "sweep", "config has no [sweep] section and no --spec was given"),
    (["scan", "--tmin", "0.5K", "--tmax", "1K", "--theory", "grav-casimir"], "signals",
     "theory grav-casimir needs gravitational_casimir_Pa in [signals]"),
    (["detect"], "signals", "no signals: give --signal or a [signals] section"),
], ids=["sweep", "scan-grav-casimir", "detect"])
def test_cli_command_without_its_config_section_exits_two(capsys, tmp_path, argv,
                                                          section, message):
    config_path = _example_without(tmp_path, sections=[section])
    code, out, err = run_cli(capsys, argv[0], "--config", config_path, *argv[1:])
    assert code == 2 and out == ""
    assert err == f"config error: {message}\n"


def test_cli_tc_missing_input_exits_one(capsys, tmp_path):
    path = tmp_path / "missing.csv"
    code, out, err = run_cli(capsys, "tc", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: [Errno 2] ") and str(path) in err


def test_cli_validate_warns_at_the_roughness_scale(capsys, tmp_path):
    config_path = _example_without(tmp_path, replace=("gap_nm = 100\n", "gap_nm = 4\n"))
    code, out, err = run_cli(capsys, "validate", "--config", config_path)
    assert code == 0 and err == ""
    assert "warning: gap is at or below the 5 nm roughness scale" in out.splitlines()
    _, out, _ = run_cli(capsys, "validate", "--config", EXAMPLE)
    assert "roughness" not in out


def test_cli_tc_two_step(capsys, tmp_path):
    t = np.linspace(0.6, 1.6, 160)
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    r = 1.0 + 19.0 * sig((t - 0.9) / 0.003) + 25.0 * sig((t - 1.2) / 0.003)
    path = tmp_path / "twostep.csv"
    path.write_text(
        "temperature_K,resistance_ohm\n"
        + "".join(f"{ti},{ri}\n" for ti, ri in zip(t, r))
    )
    code, out, err = run_cli(capsys, "tc", "--input", str(path))
    assert code == 0 and err == ""
    lines = dict(l.split(" = ", 1) for l in out.splitlines())
    assert float(lines["tc_K"]) == pytest.approx(0.9, abs=0.02)
    assert lines["multi_step"] == "true"
    assert int(lines["n_steps"]) == 2
    assert float(lines["step1_T_K"]) == pytest.approx(1.2, abs=0.02)
    assert float(lines["step2_T_K"]) == pytest.approx(0.9, abs=0.02)


def test_cli_tc_no_transition_exits_one(capsys, tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text(
        "temperature_K,resistance_ohm\n"
        + "".join(f"{0.5 + 0.01 * i},45.0\n" for i in range(20))
    )
    code, out, err = run_cli(capsys, "tc", "--input", str(path))
    assert code == 1 and "error" in err


def test_cli_tc_non_utf8_input_exits_one(capsys, tmp_path):
    path = tmp_path / "not_utf8.csv"
    path.write_bytes(b"temperature_K,resistance_ohm\n0.5,45.0\xff\n")
    code, out, err = run_cli(capsys, "tc", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: R(T) table is not UTF-8 text")


def test_cli_transduce(capsys):
    code, out, err = run_cli(
        capsys, "transduce", "--config", EXAMPLE, "--pressure", "0.5Pa",
    )
    assert code == 0 and err == ""
    lines = dict(l.split(" = ", 1) for l in out.splitlines())
    assert 10e-12 <= float(lines["gap_closing_m"]) <= 30e-12
    assert -4.5e9 <= float(lines["freq_shift_Hz"]) <= -0.5e9
    assert float(lines["pdh_voltage_V"]) < 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_transduce_zero_pressure_shifts_by_plus_zero(capsys, fmt):
    # No pressure closes no gap: the shift and the voltage print as +0.
    code, out, err = run_cli(capsys, "transduce", "--config", EXAMPLE, "--pressure", "0",
                             "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        values, zero = json.loads(out, parse_float=str), "0.0"
    else:
        values, zero = dict(l.split(" = ", 1) for l in out.splitlines()), "0"
    assert values["freq_shift_Hz"] == values["pdh_voltage_V"] == zero


def test_cli_repeats_each_warning_as_a_fresh_process_would(capsys):
    # Under the interpreter's default filters a warning shows once per
    # source line; each main call still prints its clamp warning, as a
    # message line.
    argv = ("transduce", "--config", EXAMPLE, "--pressure", "500Pa")
    with warnings.catch_warnings():
        warnings.resetwarnings()
        warnings.simplefilter("default")
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert first == second
    code, out, err = first
    assert code == 0 and "pdh_voltage_V" in out
    assert err.startswith("warning: frequency shift") and err.count("\n") == 1


def test_cli_detect_default_signals(capsys):
    code, out, err = run_cli(capsys, "detect", "--config", EXAMPLE)
    assert code == 0 and err == ""
    header, rows = csv_table(out)
    assert header[0] == "name"
    row = dict(zip(header, rows[0]))
    assert row["name"] == "gravitational_casimir"
    assert row["detectable"] == "true"
    assert 40 <= float(row["margin"]) <= 170


def test_cli_detect_custom_signal(capsys):
    code, out, _ = run_cli(
        capsys, "detect", "--config", EXAMPLE, "--signal", "faint=1mPa",
    )
    assert code == 0
    _, rows = csv_table(out)
    assert rows[0][0] == "faint"
    assert rows[0][4] == "false"


@pytest.mark.parametrize("signal, code, message", [
    ("noeq", 2, "argument --signal: signal must be NAME=PRESSURE, got 'noeq'"),
    ("=1Pa", 2, "argument --signal: signal must be NAME=PRESSURE, got '=1Pa'"),
    ("a=xyz", 2, "argument --signal: cannot parse pressure 'xyz'"),
    ("a=-1Pa", 1, "error: signal 'a' must be finite and >= 0, got -1.0"),
], ids=["no-equals", "empty-name", "bad-pressure", "negative-pressure"])
def test_cli_detect_malformed_signal(capsys, signal, code, message):
    # text that does not parse is a usage error; a parsed value out of
    # range is a domain error
    got, out, err = run_cli(capsys, "detect", "--config", EXAMPLE, "--signal", signal)
    assert (got, out) == (code, "")
    assert message in err


@pytest.mark.parametrize("command", ["validate", "detect"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_cli_signal_range_problem_exits_two(capsys, tmp_path, command, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text().replace(
        "gravitational_casimir_Pa = 0.5", f"gravitational_casimir_Pa = {value}"))
    code, out, err = run_cli(capsys, command, "--config", str(bad))
    assert code == 2 and out == ""
    assert err == ("config error: [signals] gravitational_casimir_Pa "
                   f"must be finite and >= 0, got {float(value)!r}\n")


@pytest.mark.parametrize("key, section", [
    ("operating_power_nW", "readout"),
    ("breakdown_power_uW", "readout"),
    ("sigma_4k_per_ohm_m", "film"),
    ("r4k_ohm", "film"),
    ("quoted_mean_free_path_nm", "film"),
])
@pytest.mark.parametrize("command", ["validate", "film"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_cli_optional_key_range_problem_exits_two(capsys, tmp_path, key, section, command,
                                                  value):
    # An optional key is checked at load like the required ones: each
    # command that loads the config exits 2 with the one config error, which
    # names the key and the value as written, not the SI field and value.
    bad = tmp_path / "bad.cfg"
    bad.write_text(re.sub(rf"(?m)^{key} = \S+", f"{key} = {value}",
                          example_config_path().read_text()))
    code, out, err = run_cli(capsys, command, "--config", str(bad))
    assert code == 2 and out == ""
    assert err == (f"config error: [{section}] {key} must be finite and > 0, "
                   f"got {float(value)!r}\n")


def test_cli_validate(capsys):
    code, out, err = run_cli(capsys, "validate", "--config", EXAMPLE)
    assert code == 0 and err == ""
    assert "config ok" in out
    assert "q_optical vs omega_c/kappa" in out
    assert "pressure floor" in out
    assert "fundamental frequency" in out


def test_cli_validate_prints_tension_and_annotations_at_four_digits(capsys):
    # Like the q_optical line, not as raw float reprs such as
    # 0.00036114000000000003 and 2.0000000000000002e-07.
    _, out, _ = run_cli(capsys, "validate", "--config", EXAMPLE)
    lines = out.splitlines()
    assert "axial tension: 0.0003611 N" in lines
    assert [line for line in lines if line.startswith("annotation ")] == [
        "annotation operating_power_W = 2e-07", "annotation breakdown_power_W = 1e-06"]


def test_cli_validate_rejects_the_retired_parallelism_jitter_key(capsys, tmp_path):
    # Nothing reads the key since the PFA average went: a config that still
    # sets it gets the loader's unknown-key error, which names it.
    bad = tmp_path / "bad.cfg"
    bad.write_text(example_config_path().read_text().replace(
        "gap_nm = 100\n", "gap_nm = 100\nparallelism_jitter_nm = 10\n"))
    code, out, err = run_cli(capsys, "validate", "--config", str(bad))
    assert code == 2 and out == ""
    assert err == ("config error: [geometry]: unknown key 'parallelism_jitter_nm' "
                   "(unit suffix missing or typo?)\n")


def test_cli_validate_bad_config_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[geometry]\ngap_nm = 100\n")
    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"[geometry]\ngap_nm = 100\xff\n")
    for argv in (("validate", "--config", str(bad)),
                 ("validate", "--config", str(not_utf8)),
                 ("sweep", "--config", EXAMPLE, "--spec", str(not_utf8))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "config error" in err and out == ""
    assert "cannot read config" in err


def test_cli_help_documents_units(capsys):
    code = main(["pressure", "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "100nm" in out and "10mK" in out


def test_cli_validate_warns_on_every_call(capsys, tmp_path):
    path = tmp_path / "mismatch.cfg"
    path.write_text(example_config_path().read_text().replace(
        "q_optical = 4.5e4", "q_optical = 9e4"))
    first, second = (run_cli(capsys, "validate", "--config", str(path)) for _ in range(2))
    assert first == second
    code, out, err = first
    assert code == 0 and err == ""
    assert out.splitlines()[1].startswith("warning: q_optical = 9e+04 differs")


# One process, one parser: a usage error, then commands that succeed, the
# same --signal twice, and every help text.
REENTRANT_ARGV = [
    ["pressure", "--gap", "100nm"],
    ["pressure", "--gap", "100nm", "--temp", "0", "--model-a", "ideal", "--model-b", "ideal"],
    ["transduce", "--config", EXAMPLE, "--pressure", "0.5Pa", "--format", "json"],
    ["validate", "--config", EXAMPLE],
    ["detect", "--config", EXAMPLE, "--signal", "a=1Pa"],
    ["detect", "--config", EXAMPLE, "--signal", "a=1Pa"],
    ["detect", "--config", EXAMPLE],
    ["-h"],
    *([command, "-h"] for command in cli._HANDLERS),
]


def test_cli_main_is_reentrant(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")

    def run_all(fresh_parser):
        results = []
        for argv in REENTRANT_ARGV:
            if fresh_parser:
                _build_parser.cache_clear()
            results.append(run_cli(capsys, *argv))
        return results

    _build_parser()
    reused = run_all(fresh_parser=False)
    assert reused == run_all(fresh_parser=True)
    codes = [code for code, _, _ in reused]
    assert codes == [2] + [0] * (len(REENTRANT_ARGV) - 1)
    one_row = reused[4][1]
    assert one_row.splitlines()[1].startswith("a,") and one_row.count("\n") == 2
    assert reused[5] == reused[4]


def test_cli_handlers_return_what_main_writes(capsys, tmp_path):
    # Each handler returns its stdout text; main writes it and returns 0.
    # The sweep's clamp warnings are ignored here.
    table = tmp_path / "rt.csv"
    table.write_text("temperature_K,resistance_ohm\n" + "".join(
        f"{t!r},{45.0 / (1.0 + math.exp(-(t - 0.95) / 0.01))!r}\n"
        for t in (0.7 + i * 0.5 / 119 for i in range(120))))
    config = ["--config", EXAMPLE]
    argvs = [
        ["pressure", "--gap", "100nm", "--temp", "0", "--model-a", "ideal", "--model-b", "ideal"],
        ["sweep", *config],
        ["scan", *config, "--tmin", "100mK", "--tmax", "1.2K", "--points", "3",
         "--theory", "grav-casimir"],
        ["film", *config, "--format", "json"],
        ["tc", "--input", str(table)],
        ["transduce", *config, "--pressure", "0.5Pa"],
        ["detect", *config],
        ["validate", *config],
    ]
    assert [argv[0] for argv in argvs] == list(cli._HANDLERS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in argvs:
            args = _build_parser().parse_args(argv)
            text = cli._HANDLERS[args.command](args)
            assert isinstance(text, str) and text.endswith("\n"), argv
            assert run_cli(capsys, *argv) == (0, text, ""), argv


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _build_parser.cache_clear()
    try:
        codes = [main(argv) for argv in (["validate", "--config", EXAMPLE],
                                         ["pressure", "--gap", "100nm"],
                                         ["detect", "-h"])]
    finally:
        _build_parser.cache_clear()
    capsys.readouterr()
    assert codes == [0, 2, 0]
    assert built.count("casimirchip") == 1
    assert len(built) == 1 + len(cli._HANDLERS)
