"""Command-line interface: validation, exit codes, outputs, determinism."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dotspin
from dotspin import cli, hyperfine, vanvleck
from dotspin.cli import FIGURE_IDS, ConfigError, _write_table, main, validate_config
from dotspin.core import SpinSystemParams, transition_frequencies


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidation:
    def test_unknown_key_names_the_path(self):
        with pytest.raises(ConfigError, match="params.bogus"):
            validate_config({"params": {"bogus": 1.0}}, "ramsey")

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="detuning_khz"):
            validate_config({"detuning_khz": "fast"}, "ramsey")
        with pytest.raises(ConfigError):
            validate_config({"detuning_khz": True}, "ramsey")

    def test_valid_config_passes(self):
        validate_config(
            {"detuning_khz": 2.0, "params": {"b_ext": 1.42},
             "noise": {"sigma_iz": 0.1}},
            "ramsey",
        )

    def test_keys_the_choice_never_reads_are_refused(self):
        with pytest.raises(ConfigError, match=r"bell\.vary: not read"):
            validate_config({"mode": "tomography", "vary": "nuclear"}, "bell")
        with pytest.raises(ConfigError, match=r"shuttle\.p_transfer: not read"):
            validate_config({"variant": "repeated", "p_transfer": 0.1}, "shuttle")
        validate_config({"mode": "parity", "vary": "electron", "phi_points": 5}, "bell")
        validate_config({"variant": "electron", "p_transfer": 0.1}, "shuttle")
        validate_config({"variant": "repeated", "tau_0": 50.0, "p_err": 0.1}, "shuttle")
        validate_config({"charge_config": "qd1", "electron_spin": "up"}, "rabi")

    def test_shuttle_sweep_bounds_are_the_runs(self, capsys, tmp_path):
        validate_config({"variant": "phase", "sweep_stop": 500.0}, "shuttle")
        validate_config({"variant": "electron", "sweep_start": -90.0}, "shuttle")
        # tau_0 <= 0 is refused by key, before any sweep point
        with pytest.raises(ConfigError, match=r"shuttle\.tau_0: must be positive"):
            validate_config({"variant": "phase", "tau_0": -1.0}, "shuttle")
        # the run rounds cycle counts, so -0.5 is the cycle count 0
        config = {"variant": "repeated", "sweep_start": -0.5, "sweep_stop": 1.0,
                  "sweep_points": 2}
        validate_config(config, "shuttle")
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "shuttle", "--config", str(cfg), "--trials", "1")
        assert code == 0 and out.splitlines()[1].startswith("0.0,")

    def test_lattice_bounds_keep_the_sums_finite_and_positive(self):
        """At both ends of the standoff and f_z ranges, on the smallest and
        the largest lattice the cell cap lets through, the checks pass and
        the run's values are finite, with M2 and the peak coupling positive."""
        cap = cli.MAX_CELLS_PER_AXIS
        a = vanvleck.AL_LATTICE_CONSTANT
        standoff = cli._SCHEMAS["vanvleck"]["standoff_start"]
        lo, hi = standoff.lo, standoff.hi
        for thickness, *lateral in itertools.product((a, cap * a), repeat=3):
            config = {"standoff_start": lo, "standoff_stop": hi, "standoff_points": 2,
                      "thickness": thickness, "lateral": lateral}
            validate_config(config, "vanvleck")
            out = cli._run_vanvleck(config, 1, 0)
            for column in ("m2_sum", "m2_integral", "t2star_sum_ms", "t2star_integral_ms"):
                assert np.all(np.isfinite(out[column]) & (out[column] > 0)), (config, column)
        widest = cap * hyperfine.SI_LATTICE_CONSTANT / 3.2  # the box is 3.2 diameters
        f_z_domain = cli._SCHEMAS["hyperfine-mc"]["f_z"]
        for f_z in (f_z_domain.lo, f_z_domain.hi):
            config = {"f_z": f_z, "diameter_start": 1.0, "diameter_stop": widest,
                      "diameter_points": 2, "thresholds": [100.0]}
            validate_config(config, "hyperfine-mc")
            out = cli._run_hyperfine(config, 1, 0)
            assert all(np.all(np.isfinite(column)) for column in out.values()), config
            assert np.all(out["max_coupling_khz"] > 0), config

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            validate_config({}, "teleport")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_names_the_path(self, value):
        with pytest.raises(ConfigError, match=r"params\.b_ext: expected a finite"):
            validate_config({"params": {"b_ext": value}}, "ramsey")
        with pytest.raises(ConfigError, match=r"hyperfine-mc\.thresholds\[1\]"):
            validate_config({"thresholds": [100.0, value]}, "hyperfine-mc")


class TestExitCodes:
    def test_bad_config_key_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "ramsey", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err

    def test_missing_config_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "ramsey", "--config", "/nope.json")
        assert code == 1
        assert "not found" in err

    def test_malformed_json_reports_line(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"a": 1,,}')
        code, _, err = run_cli(capsys, "ramsey", "--config", str(cfg))
        assert code == 1
        assert ":1:" in err

    def test_zero_trials_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "readout-fidelity", "--trials", "0")
        assert code == 1
        assert "trials must be >= 1" in err

    def test_unknown_reproduce_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "9z"])
        assert exc.value.code == 2

    def test_non_finite_config_file_exits_1(self, capsys, tmp_path):
        # Python's json parser accepts NaN / Infinity literals
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"noise": {"sigma_iz": NaN}}')
        code, _, err = run_cli(capsys, "ramsey", "--config", str(cfg))
        assert code == 1
        assert "noise.sigma_iz" in err

    @pytest.mark.parametrize("text", ['{"trials": NaN}', '{"trials": 2.5}', '{"seed": 1.5}'])
    def test_non_integer_trials_or_seed_exits_1(self, capsys, tmp_path, text):
        # trials and seed are taken from the config before the schema check
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, "ramsey", "--config", str(cfg))
        assert code == 1
        assert "ramsey." + next(iter(json.loads(text))) in err

    @pytest.mark.parametrize("experiment, config, path", [
        ("chevron", {"charge_config": "bogus"}, "charge_config"),
        ("chevron", {"electron_spin": "sideways", "charge_config": "qd1"},
         "electron_spin"),
        ("bell", {"mode": "parityy"}, "bell.mode"),
        ("bell", {"mode": "parity", "vary": "both"}, "vary"),
        ("shuttle", {"variant": "nope"}, "shuttle.variant"),
        # keys of knobs that did nothing are unknown
        ("ramsey", {"noise": {"seed": 3}}, "ramsey.noise.seed"),
        ("shuttle", {"t_ramp": 2.0}, "shuttle.t_ramp"),
        ("ramsey", {"params": {"full_hamiltonian": True}},
         "ramsey.params.full_hamiltonian"),
        ("ramsey", {"params": {"electron_loaded": False}},
         "ramsey.params.electron_loaded"),
        # keys the chosen mode, variant or charge configuration never reads
        ("bell", {"vary": "electron"},
         "bell.vary: not read when bell.mode is 'tomography'"),
        ("bell", {"mode": "tomography", "phi_points": 5}, "bell.phi_points"),
        ("bell", {"phi_start": 10.0}, "bell.phi_start"),
        ("bell", {"phi_stop": 90.0}, "bell.phi_stop"),
        ("shuttle", {"variant": "electron", "tau_0": 100.0},
         "shuttle.tau_0: not read when shuttle.variant is 'electron'"),
        ("shuttle", {"variant": "electron", "p_err": 0.1}, "shuttle.p_err"),
        ("shuttle", {"p_transfer": 0.1}, "shuttle.p_transfer"),
        ("shuttle", {"variant": "repeated", "sweep_points": 2, "p_transfer": 0.1},
         "shuttle.p_transfer"),
        ("chevron", {"electron_spin": "up"},
         "chevron.electron_spin: not read when chevron.charge_config is 'unloaded'"),
        ("rabi", {"charge_config": "unloaded", "electron_spin": "down"},
         "rabi.electron_spin"),
    ])
    def test_unused_value_exits_1_naming_it(self, capsys, tmp_path,
                                            experiment, config, path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, experiment, "--config", str(cfg),
                                 "--trials", "1")
        assert code == 1
        assert path in err and out == ""

    @pytest.mark.parametrize("experiment, config, message", [
        ("bell", {"bell_noise": {"t2_star_e_us": -1}},
         "bell.bell_noise: t2_star_e_us must be positive, got -1"),
        ("error-budget", {"bell_noise": {"spectator_flip_prob": 2.0}},
         "error-budget.bell_noise: spectator_flip_prob must be in [0, 1]"),
        ("ramsey", {"params": {"b_ext": -1}},
         "ramsey.params: b_ext must be positive, got -1"),
        ("hahn", {"noise": {"sigma_iz": -1}},
         "hahn.noise: sigma_iz must be >= 0, got -1"),
        ("readout-fidelity", {"f_e_avg": 1.5, "m_max": 3},
         "readout-fidelity: f_e_avg must be in [0, 1], got 1.5"),
        ("readout-fidelity", {"t_shot_ms": 0},
         "readout-fidelity: t_shot_ms must be positive"),
        ("readout-fidelity", {"t1_n_hours": -1.0},
         "readout-fidelity: t1_n_hours must be positive"),
        ("readout-fidelity", {"m_max": 0}, "readout-fidelity.m_max: must be positive, got 0"),
        ("hyperfine-mc", {"draws": 10}, "hyperfine-mc.draws: must be >= 100, got 10"),
        ("vanvleck", {"thickness": -1},
         "vanvleck.thickness: must be >= one Al lattice constant (0.405 nm), got -1"),
        ("vanvleck", {"lateral": [300.0, 0.0]},
         "vanvleck.lateral[1]: must be >= one Al lattice constant (0.405 nm), got 0.0"),
        ("shuttle", {"tau_0": -1}, "shuttle.tau_0: must be positive, got -1"),
        ("ramsey", {"charge_config": "qd2"},
         "ramsey.charge_config: expected one of 'unloaded', 'qd1', got 'qd2'"),
        ("hahn", {"charge_config": "qd2"},
         "hahn.charge_config: expected one of 'unloaded', 'qd1', got 'qd2'"),
        ("vanvleck", {"lateral": [1.0]}, "vanvleck.lateral: expected two entries, got [1.0]"),
    ])
    def test_refused_section_value_names_its_path(self, capsys, tmp_path,
                                                  experiment, config, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, experiment, "--config", str(cfg),
                                 "--trials", "1")
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("argv, env, path", [
        (["spectrum", "--out", "{absent}/x.json"], {}, "{absent}/x.json"),
        (["fit", "--model", "ramsey", "--input", "{absent}.csv"], {},
         "{absent}.csv"),
        (["reproduce", "4b"], {"DOTSPIN_OUTDIR": "{absent}"},
         "{absent}/fig_4b_shuttle_phase.csv"),
        (["spectrum", "--out", "{absent}/x.json", "--dry-run"], {}, "{absent}/x.json"),
        (["reproduce", "4b", "--dry-run"], {"DOTSPIN_OUTDIR": "{absent}"},
         "{absent}/fig_4b_shuttle_phase.csv"),
    ])
    def test_file_error_exits_1_naming_the_path(self, tmp_path, argv, env, path):
        absent = str(tmp_path / "absent")
        src = os.path.dirname(os.path.dirname(dotspin.__file__))
        env = {**os.environ, "PYTHONPATH": src,
               **{k: v.format(absent=absent) for k, v in env.items()}}
        proc = subprocess.run(
            [sys.executable, "-m", "dotspin.cli",
             *(a.format(absent=absent) for a in argv)],
            env=env, capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert path.format(absent=absent) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_absent_output_directory_is_refused_before_any_run(self, capsys, monkeypatch,
                                                               tmp_path):
        # 2gj's first run is a Rabi sweep; it would run and then fail to write
        absent = str(tmp_path / "absent")
        monkeypatch.setenv("DOTSPIN_OUTDIR", absent)
        calls = []
        for name in cli._RUNNERS:
            monkeypatch.setitem(cli._RUNNERS, name, lambda *a, name=name: calls.append(name))
        code, out, err = run_cli(capsys, "reproduce", "2gj")
        assert (code, out, calls) == (1, "", [])
        assert f"{absent}/fig_2g_rabi.csv" in err

    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        # LinAlgError subclasses ValueError; it must still map to exit 2
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("dotspin.cli.run_ramsey", diverge)
        code, _, err = run_cli(capsys, "ramsey", "--trials", "1")
        assert code == 2
        assert "numerical failure" in err

    def test_success_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "readout-fidelity")
        assert code == 0
        assert "f_n" in out


#: The values a generated config gives a float key that has no domain, and
#: the entries of its lists.
EDGE_NUMBERS = (0, -0.0, 1, -1, 1e-300, 5e-324, 1e9, 1e300)


def edge_values(key: str, expected) -> st.SearchStrategy:
    """Values at the edges of a schema key's domain or type."""
    if key.endswith("_points"):  # runs of at most 3 points
        return st.sampled_from((0, -0.0, 1, 2, 3))
    if isinstance(expected, cli._Domain):
        values = [0, -0.0]
        for bound, way in ((expected.lo, -1), (min(expected.hi, expected.cap), 1)):
            if math.isfinite(bound):
                values += [bound, bound + way if expected.kind is int
                           else math.nextafter(bound, way * math.inf)]
        return st.sampled_from(values)
    if isinstance(expected, tuple):
        return st.sampled_from((*expected, "unknown"))
    if expected is list:
        return st.lists(st.sampled_from(EDGE_NUMBERS), max_size=3)
    if expected is bool:
        return st.booleans()
    assert expected is float, (key, expected)
    return st.sampled_from(EDGE_NUMBERS)


@st.composite
def generated_configs(draw) -> dict:
    """One experiment but fit, which needs an input file, and 0-3 of its keys
    at the edges of their domains; a section sets one field."""
    experiment = draw(st.sampled_from([name for name in cli._SCHEMAS if name != "fit"]))
    schema = cli._SCHEMAS[experiment]
    config = {"experiment": experiment}
    for key in draw(st.lists(st.sampled_from(list(schema)), max_size=3, unique=True)):
        if isinstance(schema[key], type) and dataclasses.is_dataclass(schema[key]):
            fields = cli._fields_schema(schema[key])
            field = draw(st.sampled_from(list(fields)))
            config[key] = {field: draw(edge_values(field, fields[field]))}
        else:
            config[key] = draw(edge_values(key, schema[key]))
    return config


class TestDryRun:
    def test_dry_run_prints_plan_without_output(self, capsys, tmp_path):
        out = tmp_path / "res.csv"
        code, stdout, _ = run_cli(
            capsys, "readout-fidelity", "--dry-run", "--out", str(out)
        )
        assert code == 0
        plan = json.loads(stdout)
        assert plan["experiment"] == "readout-fidelity"
        assert not out.exists()

    def test_dry_run_refuses_a_key_the_mode_never_reads(self, capsys, tmp_path):
        cfg = tmp_path / "bell.json"
        cfg.write_text(json.dumps({"vary": "electron"}))
        code, out, err = run_cli(capsys, "bell", "--config", str(cfg), "--dry-run")
        assert code == 1 and out == ""
        assert "bell.vary" in err

    @pytest.mark.parametrize("experiment, config, message", [
        ("chevron", {"charge_config": "bogus"},
         "chevron.charge_config: expected one of 'unloaded', 'qd1', got 'bogus'"),
        ("chevron", {"electron_spin": "sideways", "charge_config": "qd1"},
         "chevron.electron_spin: expected one of 'down', 'up', got 'sideways'"),
        ("bell", {"mode": "nope"},
         "bell.mode: expected one of 'tomography', 'parity', got 'nope'"),
        ("bell", {"mode": "parity", "vary": "both"},
         "bell.vary: expected one of 'nuclear', 'electron', got 'both'"),
        ("bell", {"initial_nuclear": "x"},
         "bell.initial_nuclear: expected one of 'down', 'up', got 'x'"),
        ("shuttle", {"variant": "nope"}, "shuttle.variant: expected one of "
         "'phase', 'repeated', 'electron', got 'nope'"),
        ("ramsey", {"charge_config": "qd2"},
         "ramsey.charge_config: expected one of 'unloaded', 'qd1', got 'qd2'"),
        ("hahn", {"charge_config": "qd2"},
         "hahn.charge_config: expected one of 'unloaded', 'qd1', got 'qd2'"),
        ("fit", {"model": "spline", "input": "x.csv"},
         "fit.model: expected one of 'ramsey', 'hahn', 'sinusoid', "
         "'coherence_decay', got 'spline'"),
        ("bell", {"bell_noise": {"t2_star_e_us": -1}},
         "bell.bell_noise: t2_star_e_us must be positive, got -1"),
        ("error-budget", {"bell_noise": {"spectator_flip_prob": 2.0}},
         "error-budget.bell_noise: spectator_flip_prob must be in [0, 1]"),
        ("ramsey", {"params": {"b_ext": -1}},
         "ramsey.params: b_ext must be positive, got -1"),
        ("hahn", {"noise": {"sigma_iz": -1}},
         "hahn.noise: sigma_iz must be >= 0, got -1"),
        ("readout-fidelity", {"f_e_avg": 1.5},
         "readout-fidelity: f_e_avg must be in [0, 1], got 1.5"),
        ("readout-fidelity", {"t_shot_ms": 0},
         "readout-fidelity: t_shot_ms must be positive"),
        ("readout-fidelity", {"t1_n_hours": -1.0},
         "readout-fidelity: t1_n_hours must be positive"),
        ("hyperfine-mc", {"ppm": -5}, "hyperfine-mc: ppm must be within [0, 1e6]"),
        ("hyperfine-mc", {"ppm": 2e6}, "hyperfine-mc: ppm must be within [0, 1e6]"),
        ("hyperfine-mc", {"thresholds": []},
         "hyperfine-mc.thresholds: expected a non-empty list of numbers"),
        ("vanvleck", {"lateral": ["a", "b"]},
         "vanvleck.lateral[0]: expected a number"),
        ("s1-stats", {"t1_a1_hours": 0}, "s1-stats.t1_a1_hours: must be positive, got 0"),
        ("s1-stats", {"t1_a2_minutes": -1.0},
         "s1-stats.t1_a2_minutes: must be positive, got -1.0"),
        ("s1-stats", {"scan_interval_s": 0}, "s1-stats.scan_interval_s: must be positive"),
        ("s1-stats", {"sigma": -1}, "s1-stats.sigma: must be >= 0, got -1"),
        ("fit", {"input": "x.csv"}, "fit.model: missing"),
        ("fit", {"model": "ramsey"}, "fit.input: missing"),
        ("ramsey", {"seed": -1}, "ramsey.seed must be >= 0, got -1"),
        ("ramsey", {"tau_points": True}, "ramsey.tau_points: expected int"),
        # the scan sets m_shots itself
        ("readout-fidelity", {"m_shots": False}, "readout-fidelity.m_shots: unknown key"),
        ("ramsey", {"tau_points": -2}, "ramsey.tau_points: must be >= 1, got -2"),
        ("vanvleck", {"standoff_points": 0},
         "vanvleck.standoff_points: must be >= 1, got 0"),
        ("s1-stats", {"n_scans": -3}, "s1-stats.n_scans: must be >= 100, got -3"),
        ("s1-stats", {"n_scans": 10}, "s1-stats.n_scans: must be >= 100, got 10"),
        ("shuttle", {"variant": "phase", "sweep_stop": 600},
         "shuttle.sweep_stop: t_load must be within [0, tau_0 = 500.0], got 600"),
        ("shuttle", {"tau_0": 10.0},
         "shuttle.sweep_stop: t_load must be within [0, tau_0 = 10.0], got 20.0"),
        ("shuttle", {"variant": "repeated", "sweep_start": -1, "sweep_stop": 2,
                     "sweep_points": 2},
         "shuttle.sweep_start: k_cycles must be >= 0 after rounding, got -1"),
        ("hyperfine-mc", {"diameter_start": 0},
         "hyperfine-mc.diameter_start: must be positive, got 0"),
        ("hyperfine-mc", {"diameter_stop": -2.0, "diameter_points": 1},
         "hyperfine-mc.diameter_stop: must be positive, got -2.0"),
        ("hyperfine-mc", {"f_z": 0}, "hyperfine-mc.f_z: must be positive, got 0"),
        ("hyperfine-mc", {"draws": 99}, "hyperfine-mc.draws: must be >= 100, got 99"),
        ("vanvleck", {"standoff_start": 0}, "vanvleck.standoff_start: must be positive, got 0"),
        ("vanvleck", {"standoff_stop": -1, "standoff_points": 1},
         "vanvleck.standoff_stop: must be positive, got -1"),
        ("chevron", {"dur_start": 0}, "chevron.dur_start: must be positive, got 0"),
        ("rabi", {"dur_start": 0}, "rabi.dur_start: must be positive, got 0"),
        ("chevron", {"rabi": -1}, "chevron.rabi: must be >= 0, got -1"),
        ("rabi", {"rabi": -1}, "rabi.rabi: must be >= 0, got -1"),
        ("shuttle", {"p_err": 1.5}, "shuttle.p_err: must be within [0, 1], got 1.5"),
        ("shuttle", {"variant": "electron", "p_transfer": -0.1},
         "shuttle.p_transfer: must be within [0, 1], got -0.1"),
        # a gate with no whole Al lattice cell along an axis has M2 = 0
        ("vanvleck", {"thickness": 0},
         "vanvleck.thickness: must be >= one Al lattice constant (0.405 nm), got 0"),
        ("vanvleck", {"thickness": 0.4},
         "vanvleck.thickness: must be >= one Al lattice constant (0.405 nm), got 0.4"),
        ("vanvleck", {"thickness": -1},
         "vanvleck.thickness: must be >= one Al lattice constant (0.405 nm), got -1"),
        ("vanvleck", {"lateral": [0.4, 100.0]},
         "vanvleck.lateral[0]: must be >= one Al lattice constant (0.405 nm), got 0.4"),
        ("vanvleck", {"lateral": [300.0, 0.0]},
         "vanvleck.lateral[1]: must be >= one Al lattice constant (0.405 nm), got 0.0"),
        ("vanvleck", {"lateral": [1.0]},
         "vanvleck.lateral: expected two entries, got [1.0]"),
        ("ramsey", {"tau_start": -1}, "ramsey.tau_start: must be >= 0, got -1"),
        ("ramsey", {"tau_stop": -5.0, "tau_points": 1},
         "ramsey.tau_stop: must be >= 0, got -5.0"),
        ("hahn", {"tau_start": -1}, "hahn.tau_start: must be >= 0, got -1"),
        ("hahn", {"tau_stop": -1}, "hahn.tau_stop: must be >= 0, got -1"),
        ("shuttle", {"tau_0": -1}, "shuttle.tau_0: must be positive, got -1"),
        ("shuttle", {"variant": "repeated", "tau_0": 0},
         "shuttle.tau_0: must be positive, got 0"),
        ("readout-fidelity", {"m_max": 0}, "readout-fidelity.m_max: must be positive, got 0"),
        ("chevron", {"rabi": 1e9}, "chevron.rabi: NMR Rabi frequency 1000000000.0 kHz "
         "exceeds 10% of the addressed transition frequency"),
        ("rabi", {"rabi": 1300.0, "params": {"b_ext": 0.5}},
         "rabi.rabi: NMR Rabi frequency 1300.0 kHz exceeds 10%"),
        # lattices beyond MAX_CELLS_PER_AXIS, which the run cannot lay out
        ("vanvleck", {"lateral": [1e9, 2.0]}, "vanvleck.lateral[0]: its lattice would "
         "span 2.469e+09 cells along an axis, more than 1000, got 1000000000.0"),
        ("hyperfine-mc", {"diameter_stop": 1e9}, "hyperfine-mc.diameter_stop: its lattice "
         "would span 5.893e+09 cells along an axis, more than 1000, got 1000000000.0"),
        ("vanvleck", {"thickness": 1e300}, "vanvleck.thickness: its lattice would span "
         "2.469e+300 cells along an axis, more than 1000, got 1e+300"),
        ("hyperfine-mc", {"diameter_start": 1e300}, "hyperfine-mc.diameter_start: its "
         "lattice would span 5.893e+300 cells along an axis, more than 1000, got 1e+300"),
        # where a sum would not be finite and positive
        ("vanvleck", {"standoff_start": 1e9},
         "vanvleck.standoff_start: must be within [0.2025, 100.0], got 1000000000.0"),
        ("vanvleck", {"standoff_start": 1e-300},
         "vanvleck.standoff_start: must be within [0.2025, 100.0], got 1e-300"),
        ("hyperfine-mc", {"f_z": 1e-300},
         "hyperfine-mc.f_z: must be within [0.1, 10000.0], got 1e-300"),
        # a scan whose exact CDF would take minutes
        ("readout-fidelity", {"m_max": 2000}, "readout-fidelity.m_max: must be <= 200, got 2000"),
        # an s1 record or histogram too large to hold
        ("s1-stats", {"n_scans": 10**9}, "s1-stats.n_scans: must be <= 40000, got 1000000000"),
        ("s1-stats", {"a1": 1e9},
         "s1-stats.a1: must be within [-10000.0, 10000.0], got 1000000000.0"),
        ("s1-stats", {"a2": 1e300}, "s1-stats.a2: must be within [-10000.0, 10000.0], got 1e+300"),
        ("s1-stats", {"sigma": 1e9}, "s1-stats.sigma: must be <= 1000.0, got 1000000000.0"),
        # a Bell circuit the run cannot build or drive
        ("bell", {"params": {"gamma_n": 0}}, "bell.params: NMR Rabi frequency 1.0 kHz "
         "exceeds 10% of the addressed transition frequency (0 MHz)"),
        ("error-budget", {"params": {"gamma_n": 1e-300}},
         "error-budget.params: NMR Rabi frequency 1.0 kHz exceeds 10%"),
        ("bell", {"params": {"a_hf": 0}}, "bell.params: duration must be finite"),
        ("error-budget", {"params": {"a_hf": 5e-324}},
         "error-budget.params: duration must be finite"),
        # error-budget turns the pulse-length error on in one step
        ("error-budget", {"params": {"a_hf": 1e-300},
                          "bell_noise": {"pulse_length_error": 1e9, "pulse_calibration": False}},
         "error-budget.params: duration must be finite"),
        ("bell", {"bell_noise": {"t2_star_e_us": 5e-324}}, "bell.bell_noise: t2_star_e_us "
         "is too short for a finite dephasing rate, got 5e-324"),
        ("error-budget", {"bell_noise": {"pulse_length_error": -1}},
         "error-budget.bell_noise: pulse_length_error must be > -1, got -1"),
        # cycle counts the run would take minutes to apply, or cast to a negative int
        ("shuttle", {"variant": "repeated", "sweep_stop": 1e9}, "shuttle.sweep_stop: "
         "k_cycles must be <= 100000 after rounding, got 1000000000.0"),
        ("shuttle", {"variant": "repeated", "sweep_start": 1e300}, "shuttle.sweep_start: "
         "k_cycles must be <= 100000 after rounding, got 1e+300"),
    ])
    def test_dry_run_refuses_what_the_run_refuses(self, capsys, tmp_path,
                                                  experiment, config, message):
        # s1-stats has no command; any command but reproduce reaches it through "experiment"
        command = "spectrum" if experiment == "s1-stats" else experiment
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": experiment, **config}))
        dry = run_cli(capsys, command, "--config", str(cfg), "--dry-run")
        assert dry[0] == 1 and dry[1] == ""
        assert "error: " + message in dry[2]
        assert run_cli(capsys, command, "--config", str(cfg), "--trials", "1") == dry

    @given(config=generated_configs())
    @example(config={"experiment": "s1-stats", "sigma": -0.0})  # runs as 0.0
    # its P(up) reaches 1 + 2.2e-16 by round-off
    @example(config={"experiment": "shuttle", "noise": {"sigma_sz": 1}, "variant": "repeated"})
    @settings(max_examples=600, deadline=timedelta(seconds=30), derandomize=True)
    def test_dry_run_agrees_with_the_run_on_generated_configs(self, config):
        """The run exits as --dry-run does, with the same stderr, and no
        exception escapes main."""
        command = "spectrum" if config["experiment"] == "s1-stats" else config["experiment"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            calls = []
            for dry_run in (["--dry-run"], []):
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main([command, "--config", path, "--trials", "1", *dry_run])
                calls.append((code, stderr.getvalue()))
        assert calls[1] == calls[0], config

    def test_flags_win_over_config_trials_and_seed(self, capsys, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"seed": 1, "trials": 3}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg),
                               "--seed", "2", "--dry-run")
        assert code == 0
        plan = json.loads(out)
        assert (plan["seed"], plan["trials"], plan["config"]) == (2, 3, {})
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--seed", "2")
        assert code == 0
        provenance = json.loads(out)["provenance"]
        assert (provenance["seed"], provenance["trials"]) == (2, 3)
        assert "seed" not in provenance["config"]
        code, out, err = run_cli(capsys, "spectrum", "--seed", "-1", "--dry-run")
        assert code == 1 and out == ""
        assert "--seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("argv, config, message", [
        (["rabi", "--threads", "2"], {}, "--threads: only 1 is supported, got 2"),
        (["rabi", "--threads", "0"], {}, "--threads: only 1 is supported, got 0"),
        (["spectrum", "--format", "csv"], {}, "--format: spectrum writes a record"),
        (["error-budget", "--format", "csv"], {}, "--format: error-budget writes"),
        (["fit", "--format", "csv"], {"model": "ramsey", "input": "x.csv"},
         "--format: fit writes a record"),
        (["spectrum", "--format", "csv"], {"experiment": "s1-stats"},
         "--format: s1-stats writes a record"),
        (["bell", "--format", "csv"], {"mode": "tomography"},
         "--format: bell writes a record"),
        (["spectrum"], {"format": "csv"}, "spectrum.format: spectrum writes a record"),
        (["rabi"], {"format": "xml"}, "rabi.format: expected one of 'csv', 'json'"),
        (["spectrum"], {"format": 1}, "spectrum.format: expected one of 'csv', 'json'"),
    ])
    def test_dry_run_refuses_flags_the_run_cannot_honour(self, capsys, tmp_path,
                                                         argv, config, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg), "--trials", "1"]
        dry = run_cli(capsys, *argv, "--dry-run")
        assert dry[0] == 1 and dry[1] == ""
        assert "error: " + message in dry[2]
        assert run_cli(capsys, *argv) == dry

    def test_bundled_configs_pass_dry_run(self, capsys):
        for figure in FIGURE_IDS:
            code, _, err = run_cli(capsys, "reproduce", figure, "--dry-run")
            assert code == 0, (figure, err)


#: argv, its exit code and, for a refusal, a fragment of its stderr;
#: {outdir} stands for DOTSPIN_OUTDIR, {data} for a CSV file that exists
ARGV_TABLE = [
    # options may stand before, between or after the positionals
    (["reproduce", "--dry-run", "4b"], 0, None),
    (["reproduce", "4b", "--dry-run"], 0, None),
    (["readout-fidelity", "--scan-m", "5", "--dry-run"], 0, None),
    (["fit", "--model", "ramsey", "--input", "{data}", "--dry-run"], 0, None),
    # an input the run cannot open is refused before it, and by --dry-run
    (["fit", "--model", "ramsey", "--input", "x.csv", "--dry-run"], 1,
     "error: [Errno 2] No such file or directory: 'x.csv'"),
    (["fit", "--model", "ramsey", "--input", "x.csv"], 1,
     "error: [Errno 2] No such file or directory: 'x.csv'"),
    # a command-specific argument that the command does not read
    (["chevron", "2e"], 2, "argument figure: not read by chevron"),
    (["reproduce"], 2, "argument figure: reproduce requires it"),
    (["reproduce", "9z"], 2, "argument figure: invalid choice: '9z'"),
    (["ramsey", "--scan-m", "5"], 2, "argument --scan-m: not read by ramsey"),
    (["spectrum", "--model", "ramsey"], 2, "argument --model: not read by spectrum"),
    (["ramsey", "--input", "x.csv"], 2, "argument --input: not read by ramsey"),
    (["reproduce", "4b", "--config", "x.json"], 2,
     "argument --config: not read by reproduce"),
    # every run is checked before the first one writes
    (["reproduce", "3ce", "--format", "csv", "--trials", "1"], 1,
     "error: --format: bell writes a record, which has no CSV form"),
    (["reproduce", "3ce", "--format", "csv", "--trials", "1", "--dry-run"], 1,
     "error: --format: bell writes a record, which has no CSV form"),
    (["reproduce", "2gj", "--out", "one.csv"], 1,
     "error: --out: 3 runs would write one file"),
    (["reproduce", "2gj", "--out", "one.csv", "--dry-run"], 1,
     "error: --out: 3 runs would write one file"),
    # a scan beyond the cap, which would take minutes
    (["readout-fidelity", "--scan-m", "2000", "--dry-run"], 1,
     "error: readout-fidelity.m_max: must be <= 200, got 2000"),
]


class TestArgv:
    @pytest.mark.parametrize("argv, code, message", ARGV_TABLE,
                             ids=[" ".join(row[0]) for row in ARGV_TABLE])
    def test_argv_exit_codes(self, capsys, tmp_path, monkeypatch, argv, code, message):
        outdir = tmp_path / "out"
        outdir.mkdir()
        data = tmp_path / "trace.csv"
        data.write_text("x,y\n0,1\n1,2\n")
        monkeypatch.setenv("DOTSPIN_OUTDIR", str(outdir))
        try:
            got = main([arg.format(data=data) for arg in argv])
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        assert got == code, err
        if code == 0:
            assert json.loads(out)
        else:
            assert out == "" and message.format(outdir=outdir) in err
        assert os.listdir(outdir) == []

    def test_help_names_the_commands_that_read_each_argument(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per argument
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for arg, commands in cli._READ_BY.items():
            assert "read by " + ", ".join(commands) in out, arg


class TestReadoutScan:
    def test_scan_m_reports_published_optimum(self, capsys, tmp_path):
        cfg = tmp_path / "r.json"
        cfg.write_text(json.dumps({"f_e_avg": 0.76}))
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "readout-fidelity", "--config", str(cfg),
            "--scan-m", "1..50", "--out", str(out),
        )
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data["m_opt"][0] == 26.0
        assert data["m"][np.argmax(data["f_n"])] == 26.0

    @pytest.mark.parametrize("f_e_avg", [0.6, 0.765, 0.9])
    def test_scan_builds_the_curve_once(self, capsys, tmp_path, monkeypatch, f_e_avg):
        # m_opt is read off the scanned rows, with _best_shots' tie rule
        from dotspin import readout

        calls = []
        model = readout.nuclear_fidelity_model
        monkeypatch.setattr(readout, "nuclear_fidelity_model",
                            lambda c: calls.append(c.m_shots) or model(c))
        cfg = tmp_path / "r.json"
        cfg.write_text(json.dumps({"f_e_avg": f_e_avg}))
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "readout-fidelity", "--config", str(cfg),
                             "--scan-m", "1..40", "--out", str(out))
        assert code == 0
        assert calls == list(range(1, 41))
        data = np.genfromtxt(out, delimiter=",", names=True)
        expected = readout._best_shots(
            readout.fidelity_curve(readout.NuclearReadoutConfig(f_e_avg=f_e_avg), 40))
        assert np.all(data["m_opt"] == expected)

    def test_scan_m_bare_hi_matches_full_spec(self, capsys):
        code, full, _ = run_cli(capsys, "readout-fidelity", "--scan-m", "1..50")
        assert code == 0
        code, bare, _ = run_cli(capsys, "readout-fidelity", "--scan-m", "50")
        assert code == 0
        assert bare == full and full.count("\n") == 51

    @pytest.mark.parametrize("spec", ["10..12", "5..2", "abc", "1..0", "0", "1.."])
    def test_bad_scan_m_exits_1_naming_it(self, capsys, spec):
        # the scan always starts at M = 1; a different LO was silently ignored
        code, out, err = run_cli(capsys, "readout-fidelity", f"--scan-m={spec}")
        assert code == 1 and out == ""
        assert "--scan-m" in err


class TestOutputs:
    def test_outdir_env_var_resolves_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DOTSPIN_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "readout-fidelity", "--out", "scan.csv"
        )
        assert code == 0
        assert (tmp_path / "scan.csv").exists()

    def test_csv_rows_end_crlf_in_file_and_lf_on_stdout(self, capsys, tmp_path):
        table = {"m": np.array([1.0, 2.0]), "f": [0.1, 1e-20]}
        out = tmp_path / "t.csv"
        _write_table(table, str(out), "csv", {}, 0, 1)
        assert out.read_bytes() == b"m,f\r\n1.0,0.1\r\n2.0,1e-20\r\n"
        _write_table(table, "-", "csv", {}, 0, 1)
        assert capsys.readouterr().out == "m,f\n1.0,0.1\n2.0,1e-20\n"
        # the same holds for experiment results
        (tmp_path / "r.json").write_text('{"tau_points": 3}')
        args = ("ramsey", "--trials", "1", "--config", str(tmp_path / "r.json"))
        code, stdout, _ = run_cli(capsys, *args)
        assert code == 0 and "\r" not in stdout
        code, _, _ = run_cli(capsys, *args, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == stdout.replace("\n", "\r\n").encode()

    @given(columns=st.integers(0, 6).flatmap(lambda rows: st.dictionaries(
        st.text(st.characters(codec="ascii", exclude_characters="\r\n"), min_size=1),
        st.one_of(
            st.lists(st.one_of(
                st.floats(), st.sampled_from((-0.0, 5e-324, -2.2e-308)),
                st.integers(-2**70, 2**70), st.booleans(),
                st.floats(width=32).map(np.float32)),
                min_size=rows, max_size=rows),
            # values repeated from a pool whose entries are equal but not
            # bit-equal (-0.0, 0.0), or not equal to themselves (nan)
            st.lists(st.sampled_from((-0.0, 0.0, float("nan"), -float("nan"), float("inf"),
                                      -float("inf"), 5e-324, 1.5)),
                     min_size=rows, max_size=rows).map(np.array),
            st.lists(st.floats(width=32), min_size=rows,
                     max_size=rows).map(lambda v: np.array(v, dtype=np.float32)),
            st.lists(st.integers(-2**62, 2**62), min_size=rows, max_size=rows).map(
                lambda v: np.array(v, dtype=np.int64))),
        min_size=1, max_size=4)))
    @settings(max_examples=80, deadline=None)
    def test_csv_bytes_equal_the_per_value_row_builder(self, columns):
        # each distinct value of a column formatted once gives the bytes of
        # repr(float(v)) per value, in a file (CRLF) and on stdout (LF), for
        # any number of rows, zero included
        def per_value(terminator):
            out = io.StringIO()
            rows = [list(columns)]
            rows += ([repr(float(v)) for v in row] for row in zip(*columns.values()))
            csv.writer(out, lineterminator=terminator).writerows(rows)
            return out.getvalue()

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            cli.write_csv(columns, path)
            with open(path, "rb") as fh:
                assert fh.read() == per_value("\r\n").encode()
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            cli.write_csv(columns, "-")
        assert stdout.getvalue() == per_value("\n")

    def test_csv_refuses_columns_of_unequal_length(self, capsys, tmp_path):
        # they were cut to the shortest column, dropping values without a word
        columns = {"a": np.arange(3.0), "b": np.arange(5.0)}
        for out in ("-", str(tmp_path / "t.csv")):
            with pytest.raises(ValueError, match="column 'b' has 5 values, 'a' has 3"):
                cli.write_csv(columns, out)
        assert capsys.readouterr().out == "" and not os.listdir(tmp_path)

    def test_consecutive_calls_match_a_fresh_parser(self, capsys, tmp_path, monkeypatch):
        # main keeps one parser for the process, the only state a call leaves
        # behind for the next: after calls with other commands, usage errors
        # (exit 2, one of them a misplaced argument), --help (exit 0) and a
        # config error (exit 1) among them, each call acts as it does with a
        # parser of its own
        calls = (
            ("spectrum", "--out", "spectrum.json"),
            ("reproduce", "9z"),
            ("rabi", "--trials", "1", "--format", "json", "--out", "rabi.json"),
            ("ramsey", "--help"),
            ("ramsey", "--scan-m", "5", "--trials", "1"),
            ("ramsey", "--trials", "0"),
            ("rabi", "--trials", "1", "--out", "rabi.csv"),
        )

        def run(argv, side):
            (tmp_path / side).mkdir(exist_ok=True)
            monkeypatch.setenv("DOTSPIN_OUTDIR", str(tmp_path / side))
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        shared = [run(argv, "shared") for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv, "fresh"))
        assert shared == fresh
        assert [r[0] for r in shared] == [0, 2, 0, 0, 2, 1, 0]
        names = sorted(os.listdir(tmp_path / "fresh"))
        assert names == ["rabi.csv", "rabi.json", "spectrum.json"]
        assert names == sorted(os.listdir(tmp_path / "shared"))
        for name in names:
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes()), name

    def test_fit_round_trip_from_csv(self, capsys, tmp_path):
        x = np.linspace(0.0, 20.0, 60)
        y = 0.4 * np.cos(2 * np.pi * 0.22425 * x) + 0.5
        data = tmp_path / "trace.csv"
        data.write_text(
            "t_us,p_up\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y))
        )
        code, out, _ = run_cli(
            capsys, "fit", "--model", "sinusoid", "--input", str(data)
        )
        assert code == 0
        fit = json.loads(out)["result"]
        assert fit["parameters"]["frequency"] == pytest.approx(0.22425, rel=1e-3)

    @pytest.mark.parametrize("experiment, config, trials", [
        ("rabi", {"dur_points": 3}, "2"),
        ("hyperfine-mc", {"diameter_points": 1, "draws": 100}, "1"),
        ("spectrum", {"params": {"b_ext": 1.42}}, "1"),
    ])
    def test_json_outputs_share_one_layout(self, capsys, tmp_path,
                                           experiment, config, trials):
        # a sweep (rabi, hyperfine-mc) and a record (spectrum) alike; the
        # provenance config is the --dry-run plan's config and its experiment
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        argv = (experiment, "--config", str(cfg), "--format", "json",
                "--seed", "7", "--trials", trials)
        code, out, _ = run_cli(capsys, *argv, "--dry-run")
        assert code == 0
        plan = json.loads(out)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["provenance", "result"]
        provenance = payload["provenance"]
        assert provenance["config"] == {"experiment": plan["experiment"], **plan["config"]}
        assert (provenance["seed"], provenance["trials"]) == (7, int(trials))

    def test_fit_unknown_model_exits_1(self, capsys, tmp_path):
        data = tmp_path / "trace.csv"
        data.write_text("x,y\n0,1\n1,2\n")
        code, _, err = run_cli(
            capsys, "fit", "--model", "spline", "--input", str(data)
        )
        assert code == 1
        assert "spline" in err

    @pytest.mark.parametrize("text, config, message", [
        ("x\n0\n1\n", {}, "fit.input: {path} has one column"),
        ("x,y\n0,1\n1,2\n", {"y_column": "z"}, "fit.y_column: no column 'z' in {path}"),
        ("x,y\n0,1\n1\n", {}, "fit.input: {path} data row 2: expected a finite "
                                "number in column 'y', got None"),
        ("x,y\n0,1\n1,nan\n", {}, "fit.input: {path} data row 2: expected a finite "
                                   "number in column 'y', got 'nan'"),
    ], ids=["one-column", "unknown-y-column", "short-row", "nan-value"])
    def test_bad_fit_input_refused_by_key_path(self, capsys, tmp_path, text, config,
                                               message):
        data = tmp_path / "trace.csv"
        data.write_text(text)
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"model": "sinusoid", "input": str(data), **config}))
        code, _, err = run_cli(capsys, "fit", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: " + message.format(path=data))

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "r.json"
        cfg.write_text(json.dumps({
            "tau_start": 0.0, "tau_stop": 400.0, "tau_points": 5,
            "noise": {"sigma_iz": 0.0776},
        }))
        outs = []
        for name in ("a.csv", "b.csv", "c.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "ramsey", "--config", str(cfg), "--trials", "6",
                "--threads", "1", "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_hyperfine_curves_do_not_depend_on_the_seed(self, capsys, tmp_path):
        # the probabilities are exact, so no random draw reaches the file
        cfg = tmp_path / "h.json"
        cfg.write_text(json.dumps({"diameter_start": 4.0, "diameter_stop": 8.0,
                                   "diameter_points": 2, "draws": 100}))
        outs = []
        for seed in ("0", "7"):
            out = tmp_path / f"seed{seed}.csv"
            code, _, _ = run_cli(capsys, "hyperfine-mc", "--config", str(cfg),
                                 "--seed", seed, "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestReproduce:
    def test_loaded_resonance_map_peaks_on_conditional_lines(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DOTSPIN_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "reproduce", "2f", "--trials", "1")
        assert code == 0
        for name, line in (
            ("fig_2f_electron_down.csv", 12.23461),
            ("fig_2f_electron_up.csv", 11.78611),
        ):
            data = np.genfromtxt(tmp_path / name, delimiter=",", names=True)
            # strongest response at the longest pulse on the conditional line
            best = np.argmax(data["p_flip"])
            assert data["frequency_mhz"][best] == pytest.approx(line, abs=0.005)


class TestDefaultFrequency:
    @pytest.mark.parametrize("experiment, config, line", [
        ("chevron", {"charge_config": "qd1", "electron_spin": "up"}, "f_n_elec_up"),
        ("chevron", {"charge_config": "qd1"}, "f_n_elec_down"),
        ("rabi", {"charge_config": "qd1", "electron_spin": "up"}, "f_n_elec_up"),
    ])
    def test_default_window_is_the_driven_line(self, capsys, tmp_path, experiment,
                                               config, line):
        # the default window (chevron) or frequency (rabi) is centred on the
        # line that the loaded electron's spin selects
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, experiment, "--config", str(cfg),
                               "--trials", "1", "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        line_mhz = transition_frequencies(SpinSystemParams())[line]
        frequencies = np.unique(result["frequency_mhz"])
        assert frequencies[len(frequencies) // 2] == pytest.approx(line_mhz, abs=1e-12)
        assert max(result["p_flip"]) > 0.99


class TestColdStart:
    def test_import_loads_no_scipy(self):
        # no dotspin module imports scipy, which is a test dependency only
        src = os.path.dirname(os.path.dirname(dotspin.__file__))
        # (numpy.polynomial, which the quadrature rules use, neither)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, dotspin, dotspin.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith(('scipy', 'numpy.polynomial'))))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("module, loaded", [
        ("dotspin", ["dotspin"]),
        ("dotspin.readout", ["dotspin", "dotspin.core", "dotspin.readout"]),
        ("dotspin.hyperfine",
         ["dotspin", "dotspin.core", "dotspin.hyperfine", "dotspin.quadrature"]),
    ])
    def test_import_loads_only_its_own_imports(self, module, loaded):
        # the package namespace re-exports nothing, so importing one module
        # does not load the others
        src = os.path.dirname(os.path.dirname(dotspin.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dotspin'))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(loaded)

    @pytest.mark.parametrize("figure", FIGURE_IDS)
    def test_reproduce_loads_no_scipy(self, figure, tmp_path):
        # the lattice layers' integrals, the Airy function and the fitters
        # are numpy
        src = os.path.dirname(os.path.dirname(dotspin.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dotspin.cli import main; "
             f"code = main(['reproduce', {figure!r}, '--threads', '1']); "
             "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"],
            env={**os.environ, "PYTHONPATH": src, "DOTSPIN_OUTDIR": str(tmp_path)},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"
        assert os.listdir(tmp_path)

    @pytest.mark.parametrize("figure", FIGURE_IDS)
    def test_reproduce_loads_no_numpy_ma(self, figure, tmp_path):
        # numpy.ma costs about 11 ms to import; np.unique without indices and
        # np.percentile load it on first use. Matched by exact name, since
        # numpy.matrixlib is always loaded
        src = os.path.dirname(os.path.dirname(dotspin.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dotspin.cli import main; "
             f"code = main(['reproduce', {figure!r}, '--threads', '1']); "
             "print(code, sorted(m for m in sys.modules "
             "if m == 'numpy.ma' or m.startswith('numpy.ma.')))"],
            env={**os.environ, "PYTHONPATH": src, "DOTSPIN_OUTDIR": str(tmp_path)},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    @pytest.mark.parametrize("figure", ["2e", "2f", "4b", "4d", "4f", "ext1", "s2"])
    def test_noiseless_reproduce_loads_no_numpy_random(self, figure, tmp_path):
        # an all-zero noise model draws nothing, so no generator is built;
        # importing numpy.random costs about 8-13 ms. Matched by exact name
        src = os.path.dirname(os.path.dirname(dotspin.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dotspin.cli import main; "
             f"code = main(['reproduce', {figure!r}, '--threads', '1']); "
             "print(code, sorted(m for m in sys.modules "
             "if m == 'numpy.random' or m.startswith('numpy.random.')))"],
            env={**os.environ, "PYTHONPATH": src, "DOTSPIN_OUTDIR": str(tmp_path)},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    def test_readout_fidelity_loads_no_scipy(self, tmp_path):
        # the binomial CDF is an exact integer sum, not scipy's
        src = os.path.dirname(os.path.dirname(dotspin.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dotspin.cli import main; "
             "code = main(['readout-fidelity', '--scan-m', '1..50', '--out', 'rf.csv']); "
             "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"],
            env={**os.environ, "PYTHONPATH": src, "DOTSPIN_OUTDIR": str(tmp_path)},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"
        assert (tmp_path / "rf.csv").read_text().count("\n") == 51
