"""Experiment drivers: sweeps, Bell tomography, error budget, shuttles."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dotspin.core import NoiseModel, SpinSystemParams, transition_frequencies
from dotspin.experiments import (
    BellNoiseConfig,
    binomial_stderr,
    calibrate_bell_projection,
    compute_error_budget,
    rng_for,
    run_bell_parity_sweep,
    run_bell_tomography,
    run_hahn,
    run_nmr_chevron,
    run_rabi,
    run_ramsey,
    run_shuttle_experiments,
)
from dotspin.cli import provenance_block, write_csv
from dotspin.fitting import fit_sinusoid
from dotspin.readout import ReadoutFidelities
from dotspin.sequences import pi_duration

PARAMS = SpinSystemParams()
FREQS = transition_frequencies(PARAMS)
QUIET = NoiseModel()


class TestResultContainer:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv({"x": np.array([0.5, 1.5]), "y": np.array([0.25, 0.75])}, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert np.array_equal(data, np.array([[0.5, 0.25], [1.5, 0.75]]))

    def test_provenance_hash_stable_and_order_free(self):
        a = provenance_block({"p": 1, "q": 2}, seed=0, trials=5)
        b = provenance_block({"q": 2, "p": 1}, seed=0, trials=5)
        c = provenance_block({"p": 1, "q": 3}, seed=0, trials=5)
        assert a["config_hash"] == b["config_hash"]
        assert a["config_hash"] != c["config_hash"]

    def test_binomial_stderr_scaling(self):
        p = np.array([0.5])
        assert binomial_stderr(p, 400)[0] == pytest.approx(
            binomial_stderr(p, 100)[0] / 2.0
        )

    def test_rng_for_is_order_independent_and_keyed(self):
        x = rng_for(3, 4).random()
        assert rng_for(3, 4).random() == x
        assert rng_for(3, 5).random() != x
        assert rng_for(3, "p_x", 4).random() == rng_for(3, "p_x", 4).random()
        assert rng_for(3, "p_x", 4).random() != rng_for(3, "p_y", 4).random()


class TestSweeps:
    def test_unloaded_chevron_peaks_on_bare_line(self):
        rabi = 20.0
        f0 = FREQS["f_n0"]
        freqs = f0 + np.array([-0.08, -0.04, 0.0, 0.04, 0.08])
        res = run_nmr_chevron(
            freqs, [pi_duration(rabi)], PARAMS, noise=QUIET, rabi=rabi
        )
        p = res["p_flip"]
        assert np.argmax(p) == 2
        assert p[2] > 0.999

    @pytest.mark.parametrize(
        "electron_spin,line", [("down", "f_n_elec_down"), ("up", "f_n_elec_up")]
    )
    def test_loaded_chevron_follows_conditional_line(self, electron_spin, line):
        rabi = 20.0
        freqs = np.array([FREQS["f_n_elec_down"], FREQS["f_n0"], FREQS["f_n_elec_up"]])
        res = run_nmr_chevron(
            freqs, [pi_duration(rabi)], PARAMS, noise=QUIET, rabi=rabi,
            charge_config="qd1", electron_spin=electron_spin,
        )
        p = res["p_flip"]
        expected = {"f_n_elec_down": 0, "f_n0": 1, "f_n_elec_up": 2}[line]
        assert np.argmax(p) == expected
        assert p[expected] > 0.999

    @pytest.mark.parametrize("electron_spin", ["down", "up"])
    def test_loaded_rabi_defaults_to_the_driven_line(self, electron_spin):
        # with an electron loaded the bare line is |A|/2 off resonance
        res = run_rabi(np.linspace(25.0, 2000.0, 41), PARAMS, noise=QUIET,
                       charge_config="qd1", electron_spin=electron_spin)
        assert res["frequency_mhz"][0] == FREQS[f"f_n_elec_{electron_spin}"]
        assert res["p_flip"].max() > 0.999

    def test_rabi_matches_closed_form(self):
        rabi = 25.0
        t = np.linspace(0.25 * pi_duration(rabi), 2.0 * pi_duration(rabi), 8)
        res = run_rabi(t, PARAMS, noise=QUIET, rabi=rabi)
        expected = np.sin(np.pi * rabi * 1e-3 * t) ** 2
        assert np.allclose(res["p_flip"], expected, atol=1e-3)

    def test_ramsey_fringe_matches_closed_form(self):
        delta = 2.0  # kHz
        tau = np.linspace(0.0, 1000.0, 9)
        res = run_ramsey(tau, detuning_khz=delta, noise=QUIET, trials=1)
        expected = np.cos(np.pi * delta * 1e-3 * tau) ** 2
        assert np.allclose(res["p_up"], expected, atol=1e-6)

    def test_hahn_refocuses_static_detuning_noise(self):
        noise = NoiseModel(sigma_iz=0.5)
        res = run_hahn([400.0], noise=noise, trials=20, seed=2)
        # p_up here is the flip probability off the initial state: zero echo
        assert res["p_up"][0] == pytest.approx(0.0, abs=1e-6)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_nmr_chevron([], [1.0], PARAMS)
        with pytest.raises(ValueError):
            run_ramsey([], trials=1)


    def test_non_finite_delay_refused(self):
        # NaN passes the duration >= 0 check, and the engine would skip the delay
        with pytest.raises(ValueError, match="duration must be finite"):
            run_ramsey([float("nan")], trials=2)

    def test_non_finite_detuning_refused_by_name(self):
        # the detuning moves the frame reference, which the engine would
        # carry into NaN probabilities with only a RuntimeWarning
        with pytest.raises(ValueError, match="f_n_ref must be finite"):
            run_ramsey([10.0], detuning_khz=float("nan"), trials=2)

    @pytest.mark.parametrize("trials", [2.5, 2.0, True, "2"])
    def test_non_integral_trials_refused_by_name(self, trials):
        with pytest.raises(TypeError, match=r"trials: expected int, got"):
            run_ramsey([10.0], trials=trials)

    def test_numpy_integer_trials_accepted(self):
        assert run_ramsey([10.0], trials=np.int64(2))["p_up"].shape == (1,)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_refused_by_name(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_ramsey([10.0], trials=trials)


class TestBell:
    @pytest.mark.parametrize("field, value", [
        ("t2_star_e_us", -15.0),
        ("t2_star_n_us", 0.0),
        ("t2_rabi_n_us", float("inf")),
        ("spectator_flip_prob", 1.5),
        ("pulse_length_error", float("nan")),
    ])
    def test_noise_config_refuses_bad_values_by_name(self, field, value):
        # refused at construction, whether or not the mechanism is enabled
        with pytest.raises(ValueError, match=field):
            BellNoiseConfig(**{field: value}, electron_t2star=False)

    def test_only_enables_one_mechanism(self):
        cfg = BellNoiseConfig(t2_star_e_us=9.0).only("nmr_control")
        assert cfg.t2_star_e_us == 9.0
        assert cfg.nmr_control and not cfg.electron_t2star
        assert not any((cfg.spectator_nucleus, cfg.pulse_calibration,
                        cfg.nuclear_t2star))
        with pytest.raises(TypeError):
            BellNoiseConfig().only("cosmic_rays")

    def test_calibration_reaches_unit_parity(self):
        cal = calibrate_bell_projection(PARAMS)
        assert cal["parity"] > 0.999

    def test_noiseless_tomography_near_perfect(self):
        cfg = BellNoiseConfig().none()
        res = run_bell_tomography(PARAMS, cfg, trials=1, seed=0)
        assert res.fidelity > 0.999
        assert res.components["f_zz"] > 0.999

    def test_parity_fringe_and_nuclear_init_opposition(self):
        cfg = BellNoiseConfig().none()
        phi = np.arange(0.0, 360.0, 45.0)
        down = run_bell_parity_sweep(
            PARAMS, cfg, phi_range=phi, trials=1, initial_nuclear="down",
        )["parity"]
        up = run_bell_parity_sweep(
            PARAMS, cfg, phi_range=phi, trials=1, initial_nuclear="up",
        )["parity"]
        # full-contrast fringe, and the two preparations anti-correlate
        assert down.max() > 0.99 and down.min() < -0.99
        assert np.allclose(down, -up, atol=0.02)

    def test_readout_correction_recovers_ideal_fidelity(self):
        cfg = BellNoiseConfig().none()
        readout = {
            "ZZ": ReadoutFidelities(f_down=0.884, f_up=0.733),
            "XY": ReadoutFidelities(f_down=0.95, f_up=0.9),
        }
        res = run_bell_tomography(PARAMS, cfg, readout=readout, trials=1, seed=0)
        assert res.fidelity > 0.999
        raw_parity = res.raw_probabilities["ZZ"][0] + res.raw_probabilities["ZZ"][3]
        assert raw_parity < 0.9  # confusion visibly degrades the raw data

    def test_error_budget_signs_and_total(self):
        budget = compute_error_budget(PARAMS, trials=60, seed=0)
        assert budget.baseline_fidelity > 0.999
        assert budget.total_fidelity < budget.baseline_fidelity
        for value in (
            budget.electron_t2star,
            budget.spectator_nucleus,
            budget.pulse_calibration,
            budget.nmr_control,
        ):
            assert value >= 0.0
        assert budget.electron_t2star > budget.pulse_calibration


class TestShuttle:
    def test_phase_variant_oscillates_at_half_coupling(self):
        t_load = np.linspace(0.0, 20.0, 81)
        res = run_shuttle_experiments("phase", t_load, PARAMS, noise=QUIET)
        fit = fit_sinusoid(t_load, res["p_up"])
        f_peak = fit.parameters["frequency"] * 1e3  # kHz
        assert f_peak == pytest.approx(abs(PARAMS.a_hf) / 2.0, rel=0.01)

    def test_repeated_variant_coherence_decays_with_cycles(self):
        res = run_shuttle_experiments(
            "repeated", [0, 20, 60], PARAMS, noise=QUIET, trials=40,
            seed=1, p_err=0.02,
        )
        c = res["coherence"]
        assert c[0] > 0.99
        assert c[0] > c[1] > c[2]

    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 5),
           p_err=st.sampled_from((0.0, 0.1)))
    @example(seed=9, trials=1, p_err=0.0)  # C = 1.208 with a batch per phase
    @settings(max_examples=20, deadline=None)
    def test_repeated_variant_coherence_is_at_most_one(self, seed, trials, p_err):
        # the four final phases project one state, however few the trials
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_shuttle_experiments(
                "repeated", [0, 50, 100], PARAMS, noise=NoiseModel(sigma_iz=1.0),
                trials=trials, seed=seed, tau_0=50.0, p_err=p_err,
            )
        assert np.all(res["coherence"] <= 1.0)

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
    def test_repeated_variant_refuses_non_integral_cycle_counts(self, bad):
        with pytest.raises(ValueError, match=f"whole numbers, got {bad!r}"):
            run_shuttle_experiments("repeated", [0, bad], PARAMS)

    def test_electron_variant_contrast_set_by_transfer_fidelity(self):
        phi = np.arange(0.0, 360.0, 30.0)
        p_transfer = 0.4
        res = run_shuttle_experiments(
            "electron", phi, PARAMS, noise=QUIET, trials=200, seed=3,
            p_transfer=p_transfer,
        )
        p = res["p_up"]
        contrast = p.max() - p.min()
        assert contrast == pytest.approx(1.0 - p_transfer, abs=0.1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_shuttle_experiments("sideways", [1.0], PARAMS)


#: All four mechanisms on: I_x and I_z offsets, electron detuning, spectator flips.
NOISY = NoiseModel(sigma_ix=0.3, sigma_iz=1.0, sigma_sz=50.0, spectator_flip_prob=0.3)
DRIVERS = {
    "chevron": lambda: run_nmr_chevron(
        [FREQS["f_n0"] - 0.002, FREQS["f_n0"]], [10.0, 60.0], PARAMS, NOISY, trials=6, seed=1),
    "rabi": lambda: run_rabi([10.0, 60.0, 120.0], PARAMS, noise=NOISY, trials=6, seed=1),
    "ramsey": lambda: run_ramsey([0.0, 150.0, 400.0], noise=NOISY, trials=6, seed=1),
    "hahn": lambda: run_hahn([0.0, 150.0, 400.0], noise=NOISY, trials=6, seed=1),
    "bell": lambda: run_bell_parity_sweep(  # the default config turns every mechanism on
        phi_range=[0.0, 90.0, 180.0], trials=6, seed=1),
    "shuttle-phase": lambda: run_shuttle_experiments(
        "phase", [0.0, 10.0, 20.0], PARAMS, NOISY, trials=6, seed=1, tau_0=50.0, p_err=0.1),
    "shuttle-repeated": lambda: run_shuttle_experiments(
        "repeated", [0, 2, 5], PARAMS, NOISY, trials=6, seed=1, tau_0=50.0, p_err=0.1),
    "shuttle-electron": lambda: run_shuttle_experiments(
        "electron", [0.0, 90.0, 180.0], PARAMS, NOISY, trials=6, seed=1, p_transfer=0.1),
}


@pytest.mark.parametrize("name", DRIVERS)
def test_drivers_return_finite_float64_columns_and_probabilities(name):
    # the drivers return a plain {name: array}, which write_csv takes as it is
    res = DRIVERS[name]()
    assert type(res) is dict
    assert len({len(col) for col in res.values()}) == 1
    for column, values in res.items():
        assert isinstance(values, np.ndarray) and values.dtype == np.float64, column
        assert np.all(np.isfinite(values)), column
        if column.startswith("p_") or column == "coherence":
            assert np.all((values >= 0.0) & (values <= 1.0)), column
