"""Command-line interface: validation, exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dotspin
from dotspin.cli import FIGURE_IDS, ConfigError, _write_table, main, validate_config


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
        # tau_0 <= 0 is refused by the run, before any sweep point
        validate_config({"variant": "phase", "tau_0": -1.0}, "shuttle")
        # the run rounds cycle counts, so -0.5 is the cycle count 0
        config = {"variant": "repeated", "sweep_start": -0.5, "sweep_stop": 1.0,
                  "sweep_points": 2}
        validate_config(config, "shuttle")
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "shuttle", "--config", str(cfg), "--trials", "1")
        assert code == 0 and out.splitlines()[1].startswith("0.0,")

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
        # values refused by the library name their argument
        ("readout-fidelity", {"m_max": 0}, "readout-fidelity: m_max must be >= 1"),
        ("hyperfine-mc", {"draws": 10}, "hyperfine-mc.draws: must be >= 100, got 10"),
        ("vanvleck", {"thickness": -1}, "vanvleck: thickness must be >= 0, got -1"),
        ("vanvleck", {"lateral": [300.0, 0.0]},
         "vanvleck: lateral dimensions must be positive"),
        ("shuttle", {"tau_0": -1}, "shuttle: tau_0 must be positive, got -1"),
        ("ramsey", {"charge_config": "qd2"},
         "ramsey.charge_config: expected one of 'unloaded', 'qd1', got 'qd2'"),
        ("hahn", {"charge_config": "qd2"},
         "hahn.charge_config: expected one of 'unloaded', 'qd1', got 'qd2'"),
        ("vanvleck", {"lateral": [1.0]},
         "vanvleck: lateral must have exactly two entries, got [1.0]"),
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
        ("readout-fidelity", {"m_shots": False}, "readout-fidelity.m_shots: expected int"),
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
    ])
    def test_dry_run_refuses_what_the_run_refuses(self, capsys, tmp_path,
                                                  experiment, config, message):
        # s1-stats has no subcommand; any subcommand reaches it through "experiment"
        command = "spectrum" if experiment == "s1-stats" else experiment
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": experiment, **config}))
        dry = run_cli(capsys, command, "--config", str(cfg), "--dry-run")
        assert dry[0] == 1 and dry[1] == ""
        assert "error: " + message in dry[2]
        assert run_cli(capsys, command, "--config", str(cfg), "--trials", "1") == dry

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

    def test_bundled_configs_pass_dry_run(self, capsys):
        for figure in FIGURE_IDS:
            code, _, err = run_cli(capsys, "reproduce", figure, "--dry-run")
            assert code == 0, (figure, err)


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

    def test_fit_unknown_model_exits_1(self, capsys, tmp_path):
        data = tmp_path / "trace.csv"
        data.write_text("x,y\n0,1\n1,2\n")
        code, _, err = run_cli(
            capsys, "fit", "--model", "spline", "--input", str(data)
        )
        assert code == 1
        assert "spline" in err

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "r.json"
        cfg.write_text(json.dumps({
            "tau_start": 0.0, "tau_stop": 400.0, "tau_points": 5,
            "noise": {"sigma_iz": 0.0776},
        }))
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "4"), ("c.csv", "1")):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "ramsey", "--config", str(cfg), "--trials", "6",
                "--threads", threads, "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


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


class TestColdStart:
    def test_import_loads_no_scipy(self):
        # scipy is imported inside the functions that use it, so runs that
        # never call it do not pay for its import
        src = os.path.dirname(os.path.dirname(dotspin.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, dotspin, dotspin.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
