import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import kerrsqueezer
from kerrsqueezer import (
    CavityParams,
    InconsistentObservationError,
    ValidationError,
    calibrate_from_extrema,
    delta_k,
    extract_cascade_result,
)
from kerrsqueezer.cli import main
from kerrsqueezer.scenarios import (
    FIELDS,
    RunWriter,
    budget_report,
    default_config_path,
    load_config,
    loss_only_report,
    phase_noise_report,
    run_scenario,
    validate_config,
)


def small_fig3_config():
    config = load_config(default_config_path("fig3"))
    config["fig3"] = dict(
        config["fig3"],
        sweep={"start_c": 20.0, "stop_c": 88.0, "points": 69},
        profile_points=601,
        profile_span_linewidths=6.0,
    )
    return config


def tangent_slope(p, dk, kappa, length, h=1e-5):
    """dphi/dp of one crystal pass at power p, from a central difference."""
    phase = extract_cascade_result(p * np.array([1.0 - h, 1.0 + h]), dk, kappa, length).nl_phase
    return (phase[1] - phase[0]) / (2.0 * h * p)


def strict_json(text):
    """Parse ``text`` as JSON that has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def fig3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    summary = run_scenario(small_fig3_config(), out, seed=1)
    return out, summary


@pytest.fixture(scope="module")
def fig5_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5")
    config = load_config(default_config_path("fig5"))
    summary = run_scenario(config, out, seed=1)
    return out, summary


class TestValidation:
    @pytest.mark.parametrize("scenario", ["fig3", "fig4", "fig5"])
    def test_shipped_defaults_are_valid(self, scenario):
        data = yaml.safe_load(default_config_path(scenario).read_text())
        assert validate_config(data) == []

    def test_out_of_range_field_named(self):
        data = yaml.safe_load(default_config_path("fig3").read_text())
        data["cavity"]["coupler_transmission"] = 1.2
        diagnostics = validate_config(data)
        assert any(d.startswith("cavity.coupler_transmission:") for d in diagnostics)

    def test_missing_section_named(self):
        data = yaml.safe_load(default_config_path("fig3").read_text())
        del data["crystal"]
        diagnostics = validate_config(data)
        assert any(d.startswith("crystal.") for d in diagnostics)

    def test_parse_error_has_location(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("scenario: fig3\n  bad_indent: [1, 2\n")
        with pytest.raises(ValidationError) as err:
            load_config(bad)
        assert "line 2, column 13" in str(err.value)

    def test_run_rejects_invalid(self, tmp_path):
        config = small_fig3_config()
        config["cavity"]["round_trip_loss"] = 2.0
        with pytest.raises(ValidationError):
            run_scenario(config, tmp_path)


DELETE = object()


def packaged(scenario):
    return yaml.safe_load(default_config_path(scenario).read_text())


def mutated(scenario, changes):
    """Packaged config of ``scenario`` with {dotted path: value or DELETE} applied."""
    config = packaged(scenario)
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        node = config
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[leaf]
        else:
            node[leaf] = value
    return config


def leaf_paths(node, prefix=""):
    """Dotted paths of the non-mapping values of a nested config."""
    if not isinstance(node, dict):
        return [prefix]
    return [path for key, value in node.items()
            for path in leaf_paths(value, f"{prefix}.{key}" if prefix else key)]


def readme_schema():
    """The config of the README's ``### Config schema (YAML)`` block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("### Config schema (YAML)", 1)[1].split("```yaml\n", 1)[1]
    return yaml.safe_load(block.split("```", 1)[0])


def run_cli(config, tmp_path, command="run", options=()):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    if command == "validate":
        return main(["validate", "--config", str(path)])
    return main(["run", config["scenario"], "--config", str(path), "--out", str(tmp_path / "out"),
                 *options])


# Configs the schema once let through and the run then crashed on; each
# diagnostic must start with the given path.
VALIDATE_THEN_CRASH = {
    "null_kappa": ("fig3", {"crystal.kappa": None}, "crystal.kappa:"),
    "null_loss": ("fig3", {"cavity.round_trip_loss": None}, "cavity.round_trip_loss:"),
    "null_fig5_power": ("fig5", {"fig5.input_power_w": None}, "fig5.input_power_w:"),
    "null_seed": ("fig4", {"seed": None}, "seed:"),
    "fig5_no_budget": ("fig5", {"budget": DELETE}, "budget."),
    "custom_squeeze_no_budget": (
        "fig5", {"scenario": "custom", "custom": {"tasks": ["squeeze_sweep"]}, "budget": DELETE},
        "budget."),
    "custom_conversion_no_cavity": (
        "fig3", {"scenario": "custom", "custom": {"tasks": ["conversion_sweep"]},
                 "cavity": DELETE}, "cavity."),
    "custom_tomography_no_fig4": (
        "fig4", {"scenario": "custom", "custom": {"tasks": ["tomography"]}, "fig4": DELETE},
        "fig4."),
    "fig5_text_temperatures": ("fig5", {"fig5.temperatures_c": ["a", "b"]},
                               "fig5.temperatures_c[0]:"),
    "fig5_nested_temperatures": ("fig5", {"fig5.temperatures_c": [[1], [2]]},
                                 "fig5.temperatures_c[0]:"),
    "fig3_text_temperatures": ("fig3", {"fig3.profile_temperatures_c": ["a", "b"]},
                               "fig3.profile_temperatures_c[0]:"),
    "fig3_nested_temperatures": ("fig3", {"fig3.profile_temperatures_c": [[1], [2]]},
                                 "fig3.profile_temperatures_c[0]:"),
    "custom_tasks_int": ("fig3", {"scenario": "custom", "custom": {"tasks": 5}}, "custom.tasks:"),
    "custom_tasks_null": ("fig3", {"scenario": "custom", "custom": {"tasks": None}},
                          "custom.tasks:"),
    "huge_integer_kappa": ("fig3", {"crystal.kappa": 10**400}, "crystal.kappa:"),
    # Both profiles once wrote profile_61p2C, the second over the first.
    "fig3_profiles_share_a_table": ("fig3", {"fig3.profile_temperatures_c": [40.5, 61.2, 61.24]},
                                    "fig3.profile_temperatures_c:"),
    # A held phase left the ellipse fit rank-deficient: a negative v_min.
    "fig4_held_scan": ("fig4", {"tomography.scan_shape": "hold"}, "tomography.scan_shape:"),
    # A trace of 1 or 2 samples left the ellipse fit rank-deficient.
    "fig4_one_sample": ("fig4", {"tomography.duration_s": 0.005}, "tomography.duration_s:"),
    "fig4_two_samples": ("fig4", {"tomography.duration_s": 0.01}, "tomography.duration_s:"),
    # The task ran twice and the manifest listed its tables twice.
    "custom_repeated_task": (
        "fig4", {"scenario": "custom", "custom": {"tasks": ["tomography", "tomography"]}},
        "custom.tasks:"),
}

# Only the fields a scenario requires; everything else comes from the defaults.
MINIMAL = {
    "fig3": {
        "scenario": "fig3",
        "seed": 1,
        "crystal": {"t_max_c": 40.5, "t_min1_c": 61.2, "length_m": 0.0093, "kappa": 14.0},
        "cavity": {"round_trip_length_m": 0.838, "coupler_transmission": 0.01,
                   "round_trip_loss": 0.0019},
        "fig3": {"input_power_w": 0.0088, "sweep": {"start_c": 20.0, "stop_c": 88.0, "points": 21},
                 "profile_temperatures_c": [61.2]},
    },
    "fig4": {
        "scenario": "fig4",
        "seed": 1,
        "budget": {name: [0.9, 0.01] for name in
                   ("escape", "omc_transmission", "shg_residual", "bhd_efficiency")},
        "tomography": {"rbw_hz": 500.0e3, "vbw_hz": 200.0},
        "fig4": {"targets_db": [2.4, 7.5]},
    },
    "fig5": {
        "scenario": "fig5",
        "seed": 1,
        "crystal": {"t_max_c": 40.5, "t_min1_c": 61.2, "length_m": 0.0093, "kappa": 3.2},
        "cavity": {"round_trip_length_m": 0.838, "coupler_transmission": 0.01,
                   "round_trip_loss": 0.0019},
        "budget": {name: [0.9, 0.01] for name in
                   ("escape", "omc_transmission", "shg_residual", "bhd_efficiency")},
        "fig5": {"input_power_w": 0.085, "temperatures_c": [61.2, 81.9]},
    },
    "custom": {
        "scenario": "custom",
        "seed": 1,
        "custom": {"tasks": ["tomography"]},
        "budget": {name: [0.9, 0.01] for name in
                   ("escape", "omc_transmission", "shg_residual", "bhd_efficiency")},
        "tomography": {"rbw_hz": 500.0e3, "vbw_hz": 200.0},
        "fig4": {"targets_db": [2.4, 7.5]},
    },
}

SCENARIO_CHOICES = "['custom', 'fig3', 'fig4', 'fig5']"

# (scenario, mutation) -> the exact diagnostics of `kerrsqueezer validate`.
DIAGNOSTIC_WORDING = [
    ("fig3", {"cavity.coupler_transmission": 1.2},
     ["cavity.coupler_transmission: must be < 1.0, got 1.2"]),
    ("fig3", {"cavity.round_trip_loss": -0.1},
     ["cavity.round_trip_loss: must be >= 0.0, got -0.1"]),
    ("fig3", {"crystal.length_m": 0}, ["crystal.length_m: must be > 0.0, got 0.0"]),
    ("fig3", {"fig3.sweep.points": 1}, ["fig3.sweep.points: must be >= 2, got 1"]),
    ("fig5", {"budget.visibility": 1.5}, ["budget.visibility: must be <= 1.0, got 1.5"]),
    ("fig3", {"crystal.kappa": "x"}, ["crystal.kappa: expected a number, got str"]),
    ("fig3", {"crystal.kappa": float("inf")}, ["crystal.kappa: must be finite"]),
    ("fig3", {"fig3.profile_points": 10.5},
     ["fig3.profile_points: expected an integer, got float"]),
    ("fig3", {"crystal.length_m": DELETE}, ["crystal.length_m: missing required field"]),
    ("fig4", {"tomography.rbw_hz": DELETE}, ["tomography.rbw_hz: missing required field"]),
    ("fig4", {"tomography.scan_shape": "square"},
     ["tomography.scan_shape: must be one of ['sawtooth', 'sine', 'triangle'], "
      "got 'square'"]),
    ("fig4", {"fig4.mode": "both"},
     ["fig4.mode: must be one of ['loss-only', 'phase-noise'], got 'both'"]),
    ("fig4", {"budget.visibility_in_bhd": "yes"},
     ["budget.visibility_in_bhd: expected true/false"]),
    ("fig4", {"budget.escape": 0.8}, ["budget.escape: expected [value, uncertainty]"]),
    ("fig4", {"budget.escape": [1.2, 0.0]},
     ["budget.escape: efficiency must lie in (0, 1], got 1.2"]),
    ("fig4", {"fig4.targets_db": [3.0]},
     ["fig4.targets_db: expected [squeeze_db, antisqueeze_db]"]),
    ("fig4", {"fig4.targets_db": [3.0, 2.0]},
     ["fig4.targets_db: mixed states require antisqueeze_db >= squeeze_db (got 2.0 < 3.0)"]),
    ("fig4", {"tomography.vbw_hz": 600.0e3},
     ["tomography.vbw_hz: must be < rbw_hz (500000.0), got 600000.0"]),
    ("fig3", {"crystal.t_min1_c": 40.5}, ["crystal.t_min1_c: must differ from crystal.t_max_c"]),
    ("fig3", {"fig3.sweep.stop_c": 10.0}, ["fig3.sweep.stop_c: must exceed fig3.sweep.start_c"]),
    ("fig3", {"fig3.profile_temperatures_c": []},
     ["fig3.profile_temperatures_c: expected a non-empty list of temperatures"]),
    ("fig5", {"fig5.temperatures_c": [61.2]},
     ["fig5.temperatures_c: expected a list of at least 2 temperatures"]),
    ("fig3", {"scenario": "custom", "custom": {"tasks": ["profiles", "fit"]}},
     ["custom.tasks[1]: must be one of "
      "['conversion_sweep', 'profiles', 'squeeze_sweep', 'tomography'], got 'fit'"]),
    # Unified with the other bounded numbers (the schema once had bespoke wording here).
    ("fig4", {"fig4.eta_total": 1.5}, ["fig4.eta_total: must be <= 1.0, got 1.5"]),
    ("fig5", {"fig5.sideband_frequency_hz": -1.0},
     ["fig5.sideband_frequency_hz: must be > 0.0, got -1.0"]),
    # An unknown scenario reads no section, so nothing else is reported.
    ("fig4", {"scenario": "fig9", "tomography.vbw_hz": 600.0e3},
     [f"scenario: must be one of {SCENARIO_CHOICES}, got 'fig9'"]),
    # fig3 reads no budget, so a broken one is not checked.
    ("fig3", {"budget": {"escape": 2.0}}, []),
    # Profile tables are named to 0.1 deg C; two that round alike would share one.
    ("fig3", {"fig3.profile_temperatures_c": [61.2, 61.24]},
     ["fig3.profile_temperatures_c: temperatures 61.2 and 61.24 both write the table "
      "profile_61p2C"]),
    ("fig4", {"scenario": "custom", "custom": {"tasks": ["tomography", "tomography"]}},
     ["custom.tasks: task 'tomography' is listed twice"]),
    ("fig4", {"tomography.duration_s": 0.01},
     ["tomography.duration_s: must span at least 3 trace samples at vbw_hz (200.0), got 0.01"]),
]


class TestSchema:
    @pytest.mark.parametrize("case", sorted(VALIDATE_THEN_CRASH))
    def test_rejected_before_run(self, case, tmp_path, capsys):
        scenario, changes, prefix = VALIDATE_THEN_CRASH[case]
        config = mutated(scenario, changes)
        diagnostics = validate_config(config)
        assert diagnostics
        assert all(d.startswith(prefix) for d in diagnostics), diagnostics
        assert run_cli(config, tmp_path, "validate") == 1
        assert run_cli(config, tmp_path) == 1
        assert prefix in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", sorted(MINIMAL))
    def test_minimal_config_runs_on_defaults(self, scenario, tmp_path, capsys):
        assert validate_config(MINIMAL[scenario]) == []
        assert run_cli(MINIMAL[scenario], tmp_path) == 0

    @pytest.mark.parametrize("scenario,changes,expected", DIAGNOSTIC_WORDING)
    def test_diagnostic_wording(self, scenario, changes, expected):
        assert validate_config(mutated(scenario, changes)) == expected

    @pytest.mark.parametrize("path",
                             ["fig4.eta_total", "fig5.kappa", "fig5.sideband_frequency_hz"])
    def test_null_selects_default(self, path):
        scenario = path.split(".")[0]
        assert validate_config(mutated(scenario, {path: None})) == []

    @pytest.mark.parametrize("source", ["fig3", "fig4", "fig5", "README"])
    def test_documented_keys_are_schema_fields(self, source):
        config = readme_schema() if source == "README" else packaged(source)
        assert [path for path in leaf_paths(config) if path not in FIELDS] == []
        if source == "README":
            # ... and the README documents every field.
            assert sorted(set(FIELDS) - set(leaf_paths(config))) == []

    @pytest.mark.parametrize("scenario", ["fig3", "fig4", "fig5"])
    def test_keys_outside_the_schema_are_ignored(self, scenario, tmp_path):
        # Configs written before these two fields left the schema still
        # validate and give the same tables and summary.
        config = packaged(scenario)
        config.setdefault("cavity", {})["detuning_rad"] = 0.3
        config.setdefault("tomography", {})["lo_power_w"] = 7.0
        assert validate_config(config) == []
        run_scenario(packaged(scenario), tmp_path / "plain")
        run_scenario(config, tmp_path / "extra")
        names = sorted(path.name for path in (tmp_path / "plain").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "extra").iterdir())
        for name in names:
            if name not in ("resolved_config.yaml", "manifest"):
                assert (tmp_path / "plain" / name).read_bytes() == \
                    (tmp_path / "extra" / name).read_bytes(), name

    def test_seed_override_is_validated(self, tmp_path, capsys):
        assert main(["run", "fig4", "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert "seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_all_rows_above_threshold_exit_2(self, tmp_path, capsys):
        config = mutated("fig5", {"fig5.kappa": 14.0, "fig5.temperatures_c": [61.2, 81.9]})
        assert validate_config(config) == []
        assert run_cli(config, tmp_path) == 2
        assert "at or above threshold" in capsys.readouterr().err
        # The failed run leaves none of its files behind.
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_run_removes_stale_manifest(self, tmp_path, capsys):
        # A failed run into the directory of an earlier run must not leave the
        # earlier manifest vouching for files the failed run overwrote.
        assert run_cli(packaged("fig5"), tmp_path) == 0
        assert (tmp_path / "out" / "manifest").exists()
        config = mutated("fig5", {"fig5.kappa": 14.0, "fig5.temperatures_c": [61.2, 81.9]})
        assert run_cli(config, tmp_path) == 2
        left = sorted(path.name for path in (tmp_path / "out").iterdir())
        assert left == ["spectrum.csv", "squeeze_sweep.csv", "summary.json"]


class TestFig3:
    def test_extrema_report(self, fig3_run):
        _, summary = fig3_run
        kinds = {round(e["T_celsius"], 3): e["kind"] for e in summary["extrema"]}
        assert kinds[40.5] == "max"
        assert kinds[61.2] == "min"
        assert kinds[81.9] == "min"
        assert summary["first_minimum_c"] == pytest.approx(61.2, abs=1e-9)

    def test_profile_asymmetries(self, fig3_run):
        _, summary = fig3_run
        by_temp = {p["temperature_c"]: p for p in summary["profiles"]}
        assert abs(by_temp[40.5]["asymmetry"]) < 1e-9
        assert by_temp[61.2]["asymmetry"] > 0.3

    def test_kerr_slope_is_tangent(self, fig3_run):
        # The scanned linear phase g p takes the tangent dphi/dp at the
        # locked power, not the secant phi / p.
        _, summary = fig3_run
        crystal = packaged("fig3")["crystal"]
        model = calibrate_from_extrema(crystal["t_max_c"], crystal["t_min1_c"],
                                       crystal["length_m"])
        for profile in summary["profiles"]:
            dk = delta_k(model, profile["temperature_c"])
            expected = tangent_slope(profile["locked_power_w"], dk, crystal["kappa"],
                                     model.length)
            assert profile["kerr_slope_rad_per_w"] == pytest.approx(expected, rel=1e-6,
                                                                    abs=1e-15)

    def test_more_power_more_asymmetry(self, tmp_path):
        def profiles_at(p_in, out):
            config = small_fig3_config()
            config["scenario"] = "custom"
            config["custom"] = {"tasks": ["profiles"]}
            config["fig3"] = dict(config["fig3"], profile_temperatures_c=[61.2],
                                  input_power_w=p_in)
            return run_scenario(config, out)["profiles"]["profiles"][0]

        high = profiles_at(0.07, tmp_path / "hi")
        low = profiles_at(0.0088, tmp_path / "lo")
        assert high["asymmetry"] > low["asymmetry"]

    @pytest.mark.filterwarnings("error")
    def test_no_warning_about_a_drive_the_run_never_reaches(self, tmp_path):
        # kappa^2 L^2 = 0.078 per watt, but the lock runs at about 28 mW and the
        # sweep at 0.1 mW, each on the exact conversion at its own power, not
        # at a 1 W drive. The exact conversion has no regime to leave: at 29 mW
        # in, the largest drive of the benchmark's fig3 configs (0.139) runs too.
        for i, changes in enumerate([{"crystal.kappa": 30.0, "fig3.input_power_w": 1.0e-4},
                                     {"fig3.input_power_w": 0.029072}]):
            (tmp_path / str(i)).mkdir()
            assert run_cli(mutated("fig3", changes), tmp_path / str(i)) == 0

    def test_saturating_conversion_exit_1(self, tmp_path, capsys):
        # At 1e5 W the lock's residual conversion alone takes the round-trip
        # loss past 1; at 3e4 W it does not.
        (tmp_path / "ok").mkdir()
        assert run_cli(mutated("fig3", {"fig3.input_power_w": 3.0e4}), tmp_path / "ok") == 0
        assert run_cli(mutated("fig3", {"fig3.input_power_w": 1.0e5}), tmp_path) == 1
        err = capsys.readouterr().err
        assert "residual conversion 0.99894" in err
        assert "crystal temperature 40.5 C and input power 100000.0 W" in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_csv_schemas(self, fig3_run):
        out, _ = fig3_run
        assert (out / "conversion_sweep.csv").read_text().splitlines()[0] == (
            "T_celsius,delta_k,shg_efficiency"
        )
        profile = next(out.glob("profile_*.csv"))
        assert profile.read_text().splitlines()[0] == "detuning_rad,p_circ_W,p_trans_W"

    def test_manifest_hashes(self, fig3_run):
        import hashlib

        out, _ = fig3_run
        manifest = (out / "manifest").read_text().splitlines()
        assert manifest[0].startswith("artifact: kerrsqueezer")
        listed = dict(
            line.strip().split(": sha256=") for line in manifest if "sha256=" in line
        )
        for name, digest in listed.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert "summary.json" in listed


class TestFig4:
    def test_summary_hits_targets(self, tmp_path):
        config = load_config(default_config_path("fig4"))
        summary = run_scenario(config, tmp_path)
        assert summary["summary_db"]["squeeze"] == pytest.approx(2.4, abs=0.1)
        assert summary["summary_db"]["antisqueeze"] == pytest.approx(7.5, abs=0.1)
        assert summary["calibration"]["sigma_rad"] > 0.0
        assert summary["pump_ratio"] < 1.0

    def test_loss_only_variant(self, tmp_path):
        config = load_config(default_config_path("fig4"))
        config["fig4"] = dict(config["fig4"], mode="loss-only")
        summary = run_scenario(config, tmp_path)
        assert summary["calibration"]["eta_total"] == pytest.approx(0.467, abs=5e-4)
        assert summary["calibration"]["sigma_rad"] == 0.0
        assert summary["summary_db"]["squeeze"] == pytest.approx(2.4, abs=0.1)

    def test_pure_reference_case(self, tmp_path):
        # Unit budget and no jitter: summary dB pair collapses to the source.
        config = load_config(default_config_path("fig4"))
        config["budget"] = {
            "escape": [1.0, 0.0],
            "omc_transmission": [1.0, 0.0],
            "shg_residual": [1.0, 0.0],
            "bhd_efficiency": [1.0, 0.0],
            "visibility": 1.0,
            "visibility_in_bhd": True,
        }
        config["fig4"] = dict(config["fig4"], targets_db=[3.0, 3.0])
        summary = run_scenario(config, tmp_path)
        assert summary["calibration"]["sigma_rad"] == pytest.approx(0.0, abs=1e-7)
        assert summary["summary_db"]["squeeze"] == pytest.approx(3.0, abs=0.05)
        assert summary["summary_db"]["antisqueeze"] == pytest.approx(3.0, abs=0.05)

    def test_byte_identical_reruns(self, tmp_path):
        config = load_config(default_config_path("fig4"))
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario(config, a, seed=7)
        run_scenario(config, b, seed=7)
        for name in ("trace_vacuum.csv", "trace_squeezed.csv", "summary.json", "manifest"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("shape,period", [("triangle", 0.005), ("triangle", 0.01),
                                              ("triangle", 0.015), ("sine", 0.01),
                                              ("sawtooth", 0.01)])
    def test_aliased_scan_exit_1(self, shape, period, tmp_path, capsys):
        # At 200 Hz these scans sample only 1 or 2 distinct phases modulo pi:
        # the config is valid, but the ellipse fit cannot determine the state.
        config = mutated("fig4", {"tomography.scan_shape": shape,
                                  "tomography.scan_period_s": period})
        assert validate_config(config) == []
        assert run_cli(config, tmp_path) == 1
        assert "the ellipse fit has rank" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_dark_level_overflow_exit_1(self, tmp_path, capsys):
        # A finite dark_db passes the schema, but 10^(4000/10) overflows a
        # float: the run reports it as a domain error, not a traceback.
        config = mutated("fig4", {"tomography.dark_db": 4000.0})
        assert validate_config(config) == []
        assert run_cli(config, tmp_path) == 1
        assert capsys.readouterr().err.startswith("validation error: dB level 4000.0 overflows")
        assert list((tmp_path / "out").iterdir()) == []

    def test_trace_schema(self, tmp_path):
        config = load_config(default_config_path("fig4"))
        run_scenario(config, tmp_path, seed=2)
        header = (tmp_path / "trace_squeezed.csv").read_text().splitlines()[0]
        assert header == "t_seconds,theta_rad,measured_dB"


class TestFig5:
    def test_peak_at_first_minimum(self, fig5_run):
        _, summary = fig5_run
        assert summary["peak_at_first_minimum"]
        assert summary["best"]["temperature_c"] == pytest.approx(61.2)
        assert summary["comb_index"] == 1
        assert summary["comb_offset_rad_s"] == pytest.approx(0.0, abs=1e-6)

    def test_conversion_maximum_flagged_and_quiet(self, fig5_run):
        _, summary = fig5_run
        at_peak = next(r for r in summary["rows"] if r["temperature_c"] == 40.5)
        assert at_peak["outside_spm_regime"]
        assert abs(at_peak["squeeze_db"]) < 0.05

    def test_minima_sequence_decreases(self, fig5_run):
        # Cascade phase falls like 1/(2 pi m) across the conversion zeros.
        _, summary = fig5_run
        rows = {r["temperature_c"]: r for r in summary["rows"]}
        assert rows[61.2]["squeeze_db"] > rows[81.9]["squeeze_db"] > 0
        assert rows[61.2]["antisqueeze_db"] > rows[81.9]["antisqueeze_db"]

    def test_all_below_threshold(self, fig5_run):
        _, summary = fig5_run
        assert not any(r["above_threshold"] for r in summary["rows"])

    def test_epsilon_is_tangent_slope(self, fig5_run):
        # epsilon / FSR = p dphi/dp at each locked power: the tangent of the
        # cascade phase, which differs from the secant phi / p by up to 0.5 %.
        out, _ = fig5_run
        config = packaged("fig5")
        fsr = CavityParams(config["cavity"]["round_trip_length_m"], 0.01, 0.0).fsr
        table = np.genfromtxt(out / "squeeze_sweep.csv", delimiter=",", names=True)
        expected = [p * tangent_slope(p, dk, config["fig5"]["kappa"], config["crystal"]["length_m"])
                    for p, dk in zip(table["p_circ_W"], table["delta_k"])]
        assert table["epsilon_rad_s"] / fsr == pytest.approx(np.array(expected), rel=1e-6,
                                                             abs=1e-15)

    def test_json_is_strict_above_threshold(self, tmp_path, capsys):
        # Rows above threshold have no dB values; every JSON output of the
        # run writes null for them, never a bare NaN.
        config = mutated("fig5", {"fig5.kappa": 14.0})
        assert run_cli(config, tmp_path, options=["--format", "json"]) == 0
        files = sorted((tmp_path / "out").glob("*.json"))
        assert [path.name for path in files] == ["spectrum.json", "squeeze_sweep.json",
                                                 "summary.json"]
        for path in files:
            strict_json(path.read_text())
        rows = strict_json(capsys.readouterr().out)["summary"]["rows"]
        above = [row for row in rows if row["above_threshold"]]
        assert above and all(row["squeeze_db"] is None and row["antisqueeze_db"] is None
                             for row in above)

    def test_standalone_visibility_scales_the_chain(self, fig5_run, tmp_path):
        _, summary = fig5_run
        config = mutated("fig5", {"budget.visibility_in_bhd": False})
        standalone = run_scenario(config, tmp_path, seed=1)["chain_efficiency"]
        assert standalone == pytest.approx(summary["chain_efficiency"] * 0.97**2, rel=1e-15)

    def test_sweep_and_spectrum_schema(self, fig5_run):
        out, _ = fig5_run
        header = (out / "squeeze_sweep.csv").read_text().splitlines()[0]
        assert header.startswith("T_celsius,delta_k,residual_conversion,round_trip_loss")
        spec_header = (out / "spectrum.csv").read_text().splitlines()[0]
        assert spec_header == "f_Hz,vmin_dB,vmax_dB,theta_rad"

    def test_spectrum_axis_is_exactly_pi_over_4(self, fig5_run):
        # The best row is pumped with epsilon < 0, whose minor axis is pi/4
        # at every offset: each cell is that float, with no eigenvector
        # rounding.
        out, _ = fig5_run
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        assert len(rows) == 801
        assert {row.rsplit(",", 1)[1] for row in rows} == {repr(math.pi / 4)}

    def test_json_format(self, tmp_path):
        config = load_config(default_config_path("fig5"))
        config["fig5"] = dict(config["fig5"], temperatures_c=[57.5, 61.2, 65.0],
                              spectrum_points=11)
        run_scenario(config, tmp_path, fmt="json")
        payload = json.loads((tmp_path / "squeeze_sweep.json").read_text())
        assert payload["columns"][0] == "T_celsius"
        assert len(payload["rows"]) == 3


class TestCustom:
    def test_task_subset(self, tmp_path):
        config = small_fig3_config()
        config["scenario"] = "custom"
        config["custom"] = {"tasks": ["conversion_sweep"]}
        summary = run_scenario(config, tmp_path)
        assert "conversion_sweep" in summary
        assert (tmp_path / "conversion_sweep.csv").exists()
        assert not list(tmp_path.glob("profile_*.csv"))

    def test_one_summary_for_two_reporting_tasks(self, tmp_path):
        config = {**packaged("fig4"), **packaged("fig5"), "scenario": "custom",
                  "custom": {"tasks": ["tomography", "squeeze_sweep"]}}
        config["fig5"] = dict(config["fig5"], temperatures_c=[57.5, 61.2], spectrum_points=11)
        summary = run_scenario(config, tmp_path)
        listed = [line.split(":")[0].strip()
                  for line in (tmp_path / "manifest").read_text().splitlines()
                  if "sha256=" in line]
        assert len(listed) == len(set(listed))
        assert sorted(listed) == sorted(path.name for path in tmp_path.iterdir()
                                        if path.name != "manifest")
        written = json.loads((tmp_path / "summary.json").read_text())
        assert sorted(written) == ["squeeze_sweep", "tomography"] == sorted(summary)
        assert written["tomography"]["mode"] == summary["tomography"]["mode"]

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", "T_celsius,kind_is_max\n"),
        ("json", '{\n  "columns": [\n    "T_celsius",\n    "kind_is_max"\n  ],\n'
                 '  "rows": []\n}\n'),
    ])
    def test_empty_extrema_table_keeps_its_header(self, fmt, expected, tmp_path):
        config = small_fig3_config()
        config["scenario"] = "custom"
        config["custom"] = {"tasks": ["conversion_sweep"]}
        config["fig3"] = dict(config["fig3"], sweep={"start_c": 41.0, "stop_c": 42.0, "points": 5})
        assert run_scenario(config, tmp_path, fmt=fmt)["conversion_sweep"]["extrema"] == []
        assert (tmp_path / f"extrema.{fmt}").read_text() == expected


def json_oracle(columns):
    """The stdlib's text of a JSON table: null for every non-finite float."""
    rows = [[None if isinstance(x, float) and not math.isfinite(x) else x for x in row]
            for row in zip(*(np.asarray(v).tolist() for v in columns.values()))]
    payload = {"columns": list(columns), "rows": rows}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_oracle(columns):
    """CSV text of a table: the repr of every cell, bools as 1/0."""
    values = [np.asarray(v) for v in columns.values()]
    rows = zip(*((v.astype(int) if v.dtype == bool else v).tolist() for v in values))
    return "\n".join([",".join(columns)] + [",".join(map(repr, row)) for row in rows]) + "\n"


def assert_same_text(found, expected, context=""):
    """``found == expected``, byte for byte.  A failure names the count of
    differing lines and the first differing line and cell, where a bare
    ``assert`` would diff whole texts of 10^5 lines for minutes."""
    if found == expected:
        return
    lines, want = found.split("\n"), expected.split("\n")
    differ = [i for i, (a, b) in enumerate(zip(lines, want)) if a != b]
    first = differ[0] if differ else min(len(lines), len(want))
    line = lines[first] if first < len(lines) else "<end>"
    wanted = want[first] if first < len(want) else "<end>"
    cell = next(((a, b) for a, b in zip(line.split(","), wanted.split(",")) if a != b), None)
    raise AssertionError(f"{context}{len(differ)} of {len(want)} lines differ, {len(lines)} "
                         f"written; the first at line {first + 1}: {line!r} != {wanted!r}, "
                         f"cell {cell}")


# Floats at the edges of repr: signed zeros, subnormals, the largest float,
# non-finite values and both sides of the switch to exponent notation.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan, 1e16, -1e16, 9999999999999998.0, 1e-5, -1e-5,
               0.0001, 1e-4 * (1 - 2**-52)]
CELLS = {
    "float": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
    "float32": st.floats(width=32),
    "float>f8": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
    "int": st.integers(-2**63, 2**63 - 1),
    "bool": st.booleans(),
}
DTYPES = {"float": np.float64, "float32": np.float32, "float>f8": ">f8", "int": np.int64,
          "bool": np.bool_}


@st.composite
def tables(draw):
    """Random float/int/bool columns of one length (0-row tables included)."""
    n_rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), max_size=4))
    names = draw(st.lists(st.text("ab_ \"\\\t", max_size=3), min_size=len(kinds),
                          max_size=len(kinds), unique=True))
    return {name: np.array(draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows)),
                           dtype=DTYPES[kind])
            for name, kind in zip(names, kinds)}


@st.composite
def table_runs(draw):
    """Tables for one writer; a later table may take an earlier column, as
    is or reinterpreted as another dtype of the same bytes."""
    runs = draw(st.lists(tables(), min_size=1, max_size=4))
    pool = [v for table in runs for v in table.values()]
    twins = {"f": "i", "i": "f", "b": "u"}
    for table in runs[1:]:
        for name, v in table.items():
            same_length = [u for u in pool if len(u) == len(v)]
            if same_length and draw(st.booleans()):
                u = draw(st.sampled_from(same_length))
                twin = u.dtype.str.replace(u.dtype.kind, twins[u.dtype.kind])
                table[name] = u.view(twin) if draw(st.booleans()) else u
    return runs


class TestRunWriter:
    COLUMNS = {"x": np.array([0.1, np.nan]), "n": [2, -3], "flag": np.array([True, False])}
    JSON_TEXT = """{
  "columns": [
    "x",
    "n",
    "flag"
  ],
  "rows": [
    [
      0.1,
      2,
      true
    ],
    [
      null,
      -3,
      false
    ]
  ]
}
"""

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", "x,n,flag\n0.1,2,1\nnan,-3,0\n"),
        ("json", {"columns": ["x", "n", "flag"], "rows": [[0.1, 2, True], [None, -3, False]]}),
    ])
    def test_column_types(self, fmt, expected, tmp_path):
        text = RunWriter(tmp_path, fmt).table("t", self.COLUMNS).read_text()
        if fmt == "json":
            assert strict_json(text) == expected
            assert text == self.JSON_TEXT == json_oracle(self.COLUMNS)
        else:
            assert text == expected

    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_text_matches_the_oracles(self, columns):
        with tempfile.TemporaryDirectory() as out:
            assert_same_text(RunWriter(out, "json").table("t", columns).read_text(),
                             json_oracle(columns))
            assert_same_text(RunWriter(out, "csv").table("t", columns).read_text(),
                             csv_oracle(columns))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_writer_many_tables(self, fmt, tmp_path):
        # Columns that share bytes but not values, or values but not bytes,
        # must each keep their own cells.
        t = np.array([0.0, 1e-4, 2.5e-4])
        ints = np.array([0, 1, -2], dtype=np.int64)
        flags = np.array([True, False, True])
        other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        written = [
            {"t": t, "x": np.array([0.0, -0.0, 1.0])},
            {"t": t, "x": np.array([-0.0, 0.0, 1.0]), "t_again": t.copy()},
            {"n": ints, "n_bits": ints.view(np.float64), "flag": flags,
             "flag_bytes": flags.view(np.uint8)},
            {"y": np.array([np.nan, np.inf, -np.inf]), "t": t},
            {"y": np.array([other_nan, np.inf, -np.inf]), "flag": flags, "n": ints},
        ]
        writer = RunWriter(tmp_path, fmt)
        oracle = json_oracle if fmt == "json" else csv_oracle
        for i, columns in enumerate(written):
            assert_same_text(writer.table(f"t{i}", columns).read_text(), oracle(columns),
                             f"table {i}: ")

    @given(table_runs())
    @settings(max_examples=150, deadline=None)
    def test_one_writer_matches_the_oracles(self, runs):
        with tempfile.TemporaryDirectory() as out:
            for fmt, oracle in (("json", json_oracle), ("csv", csv_oracle)):
                writer = RunWriter(Path(out) / fmt, fmt)
                for i, columns in enumerate(runs):
                    assert_same_text(writer.table(f"t{i}", columns).read_text(),
                                     oracle(columns))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dense_column_matches_the_oracles(self, fmt, tmp_path):
        # Every binade of both signs (subnormals, inf and nan included) with
        # random mantissas and with none, log-uniform magnitudes, and the
        # neighbours of +-1e-4 and +-1e16 (repr's switches to exponent
        # notation), +-1e-5 (orjson's), +-1e-6 and +-1e-9 (one-digit
        # exponents) and +-1e-10, +-1e100 and +-1e300 (longer ones).
        rng = np.random.default_rng(2903)
        exponents = np.tile(np.arange(2048, dtype=np.uint64), 32)
        mantissas = rng.integers(0, 2**52, exponents.size, dtype=np.uint64)
        mantissas[:2048] = 0  # powers of two, zeros and infinities
        signs = rng.integers(0, 2, exponents.size, dtype=np.uint64)
        binades = ((signs << np.uint64(63)) | (exponents << np.uint64(52)) | mantissas)
        log_uniform = np.exp(rng.uniform(-744.0, 709.0, 40_000)) * rng.choice([-1.0, 1.0], 40_000)
        edges = np.array([1e-4, 1e16, 1e-5, 1e-6, 1e-9, 1e-10, 1e100, 1e300])
        edges = np.concatenate([edges, -edges])
        x = np.concatenate([binades.view(np.float64), log_uniform, edges,
                            np.nextafter(edges, 0.0), np.nextafter(edges, 2 * edges)])
        assert x.size >= 100_000 and np.isnan(x).any() and np.isinf(x).any()
        oracle = json_oracle if fmt == "json" else csv_oracle
        columns = {"x": x}
        assert_same_text(RunWriter(tmp_path, fmt).table("t", columns).read_text(), oracle(columns))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_digit_count_between_1e_5_and_1e_4(self, fmt, tmp_path):
        # orjson writes these as 0.0000ddd and repr as d.dde-05: 1 to 17
        # significant digits (2e-05 up to full length), of both signs.
        rng = np.random.default_rng(3001)
        x = [round(u, 4 + digits) for digits in range(1, 17)
             for u in rng.uniform(1e-5, 9e-5, 20).tolist()]
        x += rng.uniform(1e-5, 1e-4, 200).tolist() + [1e-5, 2e-5, 9e-5, 9.999999999999999e-05]
        x += [-value for value in x]
        digit_counts = {len(repr(value)[:-4].replace(".", "").lstrip("-")) for value in x}
        assert digit_counts == set(range(1, 18))
        assert all(1e-5 <= abs(value) < 1e-4 for value in x)
        oracle = json_oracle if fmt == "json" else csv_oracle
        columns = {"x": np.array(x)}
        assert_same_text(RunWriter(tmp_path, fmt).table("t", columns).read_text(), oracle(columns))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_narrow_swapped_strided_and_unaligned_columns(self, fmt, tmp_path):
        # Each cell is the repr of the column's tolist() value, as it is for a
        # native float64 column.
        values = [0.1, -2.5, 6e-08, 1e-05, 65504.0, 1e16, 3.4e38, np.nan, np.inf, -np.inf, 0.0]
        buffer = np.zeros(8 * len(values) + 1, dtype=np.uint8)
        unaligned = buffer[1:].view(np.float64)
        unaligned[:] = values
        assert not unaligned.flags.aligned
        with np.errstate(over="ignore"):
            columns = {
                "half": np.array(values, dtype=np.float16),
                "single": np.array(values, dtype=np.float32),
                "swapped": np.array(values, dtype=">f8"),
                "strided": np.array(values + values)[::2],
                "unaligned": unaligned,
            }
        oracle = json_oracle if fmt == "json" else csv_oracle
        assert_same_text(RunWriter(tmp_path, fmt).table("t", columns).read_text(), oracle(columns))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_float_column_after_a_full_table(self, fmt, tmp_path):
        writer = RunWriter(tmp_path, fmt)
        oracle = json_oracle if fmt == "json" else csv_oracle
        for i, columns in enumerate([{"x": np.array([0.5, 1e-7]), "n": [1, 2]},
                                     {"x": np.array([], dtype=np.float32), "n": []}]):
            assert_same_text(writer.table(f"t{i}", columns).read_text(), oracle(columns))

    @pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8,
                        reason="long double is float64 on this platform")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_double_column_raises(self, fmt, tmp_path):
        writer = RunWriter(tmp_path, fmt)
        with pytest.raises(ValueError, match="numeric or bool, with floats of at most 64 bits"):
            writer.table("t", {"x": np.array([0.1], dtype=np.longdouble)})
        assert writer.files == {} and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_object_column_after_float_column_raises(self, fmt, tmp_path):
        writer = RunWriter(tmp_path, fmt)
        floats = np.array([1.0, 2.0])
        writer.table("a", {"x": floats})
        objects = np.array([1.0, 2.0], dtype=object)
        assert len(objects.tobytes()) == len(floats.tobytes())
        with pytest.raises(ValueError, match="numeric or bool"):
            writer.table("b", {"x": objects})

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", "a,b\n"),
        ("json", '{\n  "columns": [\n    "a",\n    "b"\n  ],\n  "rows": []\n}\n'),
    ], ids=["csv", "json"])
    def test_empty_table(self, fmt, expected, tmp_path):
        path = RunWriter(tmp_path, fmt).table("t", {"a": [], "b": np.array([], dtype=bool)})
        assert path.read_text() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unequal_column_lengths_raise(self, fmt, tmp_path):
        writer = RunWriter(tmp_path, fmt)
        with pytest.raises(ValueError, match=r"unequal column lengths \[2, 3\]"):
            writer.table("t", {"x": np.array([0.1, 0.2]), "n": [1, 2, 3]})
        assert writer.files == {} and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_two_dimensional_column_raises(self, fmt, tmp_path):
        writer = RunWriter(tmp_path, fmt)
        with pytest.raises(ValueError, match=r"must be 1-D, got \[\(2, 2\), \(2,\)\]"):
            writer.table("t", {"x": np.ones((2, 2)), "y": [1, 2]})
        assert writer.files == {} and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zero_dimensional_column_raises(self, fmt, tmp_path):
        writer = RunWriter(tmp_path, fmt)
        with pytest.raises(ValueError, match=r"must be 1-D, got \[\(2,\), \(\)\]"):
            writer.table("t", {"x": [0.5, 1.5], "y": np.float64(2.0)})
        assert writer.files == {} and list(tmp_path.iterdir()) == []

    def test_manifest_hashes_the_written_bytes(self, tmp_path, monkeypatch):
        # A name written twice is listed once, with the last content's digest,
        # and the manifest reads no file back.
        import hashlib

        writer = RunWriter(tmp_path)
        writer.text("a.txt", "first\n")
        writer.text("a.txt", "sécond\n")
        writer.table("t", {"x": [0.5]})
        monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"read {self}"))
        lines = writer.manifest("custom", 1, "seed: 1\n").read_text().splitlines()
        monkeypatch.undo()
        listed = [line.strip().split(": sha256=") for line in lines if "sha256=" in line]
        assert [name for name, _ in listed] == ["a.txt", "t.csv"]
        for name, digest in listed:
            assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert (tmp_path / "a.txt").read_bytes() == "sécond\n".encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column", [["a", "b"], [1.0, None], np.array([1j, 2j])],
                             ids=["str", "object", "complex"])
    def test_non_numeric_column_raises(self, fmt, column, tmp_path):
        with pytest.raises(ValueError, match="numeric or bool"):
            RunWriter(tmp_path, fmt).table("t", {"x": column})


class TestResolvedConfig:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("scenario", ["fig3", "fig4", "fig5"])
    def test_c_dumper_matches_the_python_dumper(self, scenario):
        config = load_config(default_config_path(scenario))
        assert (yaml.dump(config, Dumper=yaml.CSafeDumper, sort_keys=True)
                == yaml.safe_dump(config, sort_keys=True))

    def test_written_text_is_the_safe_dump(self, fig3_run):
        out, _ = fig3_run
        expected = yaml.safe_dump(dict(small_fig3_config(), seed=1), sort_keys=True)
        assert (out / "resolved_config.yaml").read_text() == expected


class TestInferReports:
    def test_loss_only(self):
        report = loss_only_report(2.4, 7.5)
        assert 0.46 <= report["eta"] <= 0.48
        assert report["forward_check_db"]["squeeze"] == pytest.approx(2.4, abs=1e-9)

    def test_budget(self):
        report = budget_report([0.84, 0.89, 0.98, 0.90], [0.02, 0.01, 0.01, 0.04], 1.0, True)
        assert report["total"]["value"] == pytest.approx(0.659, abs=1e-3)
        assert report["total"]["sigma"] == pytest.approx(0.0347, abs=1e-3)

    def test_phase_noise(self):
        report = phase_noise_report(2.0, 9.5, 0.66)
        assert report["sigma_rad"] > 0.0
        assert report["residual_db"] < 1e-6

    def test_impossible_pair(self):
        with pytest.raises(InconsistentObservationError):
            loss_only_report(3.0, 2.0)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.yaml"
        path.write_text(yaml.safe_dump(small_fig3_config()))
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_validate_bad_exit_1(self, tmp_path, capsys):
        config = small_fig3_config()
        config["cavity"]["coupler_transmission"] = 1.2
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(config))
        assert main(["validate", "--config", str(path)]) == 1
        assert "cavity.coupler_transmission" in capsys.readouterr().err

    def test_infer_inconsistent_exit_3(self, capsys):
        assert main(["infer", "loss-only", "--sqz", "3", "--antisqz", "2"]) == 3
        # The anti-squeezed variance below the squeezed one: a negative spread.
        assert main(["infer", "phase-noise", "--sqz", "-3", "--antisqz", "1", "--eta", "0.9"]) == 3

    @pytest.mark.parametrize("argv", [
        ["loss-only", "--sqz", "1", "--antisqz", "4000"],
        ["loss-only", "--sqz", "-4000", "--antisqz", "1"],
        ["phase-noise", "--sqz", "1", "--antisqz", "4000", "--eta", "0.5"],
        ["phase-noise", "--sqz", "-4000", "--antisqz", "1", "--eta", "0.5"],
    ], ids=["loss-antisqz", "loss-sqz", "phase-antisqz", "phase-sqz"])
    def test_infer_db_overflow_exit_1(self, argv, capsys):
        assert main(["infer", *argv]) == 1
        assert capsys.readouterr().err.startswith("validation error: dB level")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["loss-only", "--sqz={}", "--antisqz=7.5"],
        ["loss-only", "--sqz=2.4", "--antisqz={}"],
        ["phase-noise", "--sqz={}", "--antisqz=7.5", "--eta=0.6"],
        ["phase-noise", "--sqz=2.4", "--antisqz={}", "--eta=0.6"],
    ], ids=["loss-sqz", "loss-antisqz", "phase-sqz", "phase-antisqz"])
    def test_infer_non_finite_db_exit_1(self, argv, value, capsys):
        # A bad argument, not an inconsistent observation (exit 3).
        assert main(["infer", *(arg.format(value) for arg in argv)]) == 1
        assert capsys.readouterr().err.startswith(
            "validation error: observation values must be finite")

    def test_infer_loss_only_stdout(self, capsys):
        assert main(["infer", "loss-only", "--sqz", "2.4", "--antisqz", "7.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.46 <= report["eta"] <= 0.48

    def test_infer_budget_writes_report(self, tmp_path, capsys):
        code = main(
            ["infer", "budget", "0.84", "0.89", "0.98", "0.90",
             "--unc", "0.02", "0.01", "0.01", "0.04", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "infer_budget.json").read_text())
        assert abs(report["total"]["value"] - 0.66) < 0.05

    def test_run_with_config_and_seed(self, tmp_path, capsys):
        config = small_fig3_config()
        config["fig3"] = dict(config["fig3"], profile_temperatures_c=[40.5])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "out"
        code = main(["run", "fig3", "--config", str(path), "--seed", "9",
                     "--out", str(out)])
        assert code == 0
        assert (out / "manifest").read_text().splitlines()[2] == "seed: 9"

    @pytest.mark.parametrize("command", [["validate"], ["run", "fig3"], ["extrema"]],
                             ids=["validate", "run", "extrema"])
    def test_config_that_is_not_utf8_exit_1(self, command, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"\xff\xfe" + yaml.safe_dump(small_fig3_config()).encode("utf-16-le"))
        assert main([*command, "--config", str(path), *(["--out", str(tmp_path / "out")]
                                                        if command[0] == "run" else [])]) == 1
        assert capsys.readouterr().err.startswith("validation error: config is not UTF-8 text")
        assert not (tmp_path / "out").exists()

    def test_config_is_utf8_in_any_locale(self, tmp_path):
        # Under the C locale without UTF-8 mode the default text encoding is
        # ASCII; the config is still read as UTF-8.
        path = tmp_path / "cfg.yaml"
        path.write_text("# 61.2 \u00b0C, the first conversion minimum\n"
                        + yaml.safe_dump(small_fig3_config()), encoding="utf-8")
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import kerrsqueezer.cli as cli; "
                  "sys.exit(cli.main(['validate', '--config', sys.argv[2]]))")
        package_root = str(Path(kerrsqueezer.__file__).resolve().parent.parent)
        env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        done = subprocess.run([sys.executable, "-c", script, package_root, str(path)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr

    def test_run_scenario_mismatch(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(small_fig3_config()))
        assert main(["run", "fig4", "--config", str(path)]) == 1

    def test_usage_error_exit_1(self, capsys):
        assert main(["run", "not-a-scenario"]) == 1

    def test_calls_share_no_namespace_value(self, tmp_path, capsys):
        # The parser is built once per process; the options of one call
        # must not reach the next.
        assert main(["run", "fig4", "--seed", "5", "--format", "json",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "fig4", "--out", str(tmp_path / "b")]) == 0
        packaged = load_config(default_config_path("fig4"))["seed"]
        assert packaged != 5
        assert (tmp_path / "a" / "manifest").read_text().splitlines()[2:4] == [
            "seed: 5", "format: json"]
        assert (tmp_path / "b" / "manifest").read_text().splitlines()[2:4] == [
            f"seed: {packaged}", "format: csv"]

    def test_usage_error_after_a_run_exit_1(self, tmp_path, capsys):
        assert main(["infer", "loss-only", "--sqz", "2.4", "--antisqz", "7.5"]) == 0
        assert main(["infer", "loss-only", "--sqz", "2.4"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(["run", "fig4", "--seed", "x"]) == 1
        assert main(["infer", "loss-only", "--sqz", "2.4", "--antisqz", "7.5"]) == 0

    @pytest.mark.parametrize("changes,expected", [
        ({"t_max_c": "abc"}, "crystal.t_max_c: expected a number, got str"),
        ({"t_max_c": [1]}, "crystal.t_max_c: expected a number, got list"),
        ({"length_m": DELETE}, "crystal.length_m: missing required field"),
        ({"t_min1_c": 40.5}, "crystal.t_min1_c: must differ from crystal.t_max_c"),
    ], ids=["text", "list", "missing", "equal"])
    def test_extrema_config_checked(self, changes, expected, tmp_path, capsys):
        config = mutated("fig3", {f"crystal.{key}": value for key, value in changes.items()})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(config))
        assert main(["extrema", "--config", str(path)]) == 1
        assert f"  {expected}" in capsys.readouterr().err.splitlines()

    def test_commands_run_without_scipy(self, tmp_path):
        # A fresh interpreter: importing the CLI must not load scipy, and once
        # every import of scipy fails, each command still exits 0.
        script = (
            "import contextlib, io, json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import kerrsqueezer.cli as cli\n"
            "loaded = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
            "sys.modules['scipy'] = None\n"
            "codes = {}\n"
            "for name, argv in json.loads(sys.argv[2]).items():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes[name] = cli.main(argv)\n"
            "print(json.dumps({'loaded': loaded, 'codes': codes}))\n"
        )
        commands = {
            **{s: ["run", s, "--out", str(tmp_path / s)] for s in ("fig3", "fig4", "fig5")},
            "validate": ["validate", "--config", str(default_config_path("fig5"))],
            "extrema": ["extrema", "--t-max", "40.5", "--t-min1", "61.2", "--length", "0.0093"],
            "infer": ["infer", "loss-only", "--sqz", "2.4", "--antisqz", "7.5"],
        }
        package_root = str(Path(kerrsqueezer.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", script, package_root, json.dumps(commands)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"loaded": [], "codes": dict.fromkeys(commands, 0)}

    def test_extrema_flags(self, capsys):
        code = main(["extrema", "--t-max", "40.5", "--t-min1", "61.2",
                     "--length", "0.0093", "--range", "20", "88"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        temps = {round(e["T_celsius"], 1): e["kind"] for e in report["extrema"]}
        assert temps[61.2] == "min" and temps[81.9] == "min" and temps[40.5] == "max"

    def test_run_custom_needs_config(self, tmp_path, monkeypatch, capsys):
        # No custom config is packaged; the run names the missing option and
        # creates no output directory.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "custom"]) == 1
        assert capsys.readouterr().err == (
            "validation error: scenario 'custom' has no packaged config; pass --config\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scenario, changes", [
        ("fig3", {"fig3.sweep.stop_c": 1.0e300}),
        ("fig5", {"fig5.temperatures_c": [40.5, 61.2, 1.0e300]}),
    ], ids=["fig3", "fig5"])
    def test_run_over_a_huge_temperature_range_exit_1(self, scenario, changes, tmp_path, capsys):
        path, out = tmp_path / "cfg.yaml", tmp_path / "out"
        path.write_text(yaml.safe_dump(mutated(scenario, changes)))
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", scenario, "--config", str(path), "--out", str(out)]) == 1
        assert "conversion orders from t_pm" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestPackageApi:
    """The package exports each module's public names and nothing else."""

    def test_exports_each_module_list_and_nothing_else(self):
        from kerrsqueezer import errors

        exceptions = {name for name, value in vars(errors).items()
                      if isinstance(value, type) and issubclass(value, Exception)}
        assert len(exceptions) == 8
        expected = exceptions.union(*(importlib.import_module(f"kerrsqueezer.{module}").__all__
                                      for module in ("cascade", "cavity", "detection",
                                                     "phasematch", "states")))
        exported = {name for name, value in vars(kerrsqueezer).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert exported == expected
