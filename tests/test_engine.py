"""Sequence execution: ideal-curve agreement, refocusing, frame handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from dotspin.core import (
    NoiseDraw,
    NoiseModel,
    SpinSystemParams,
    sample_noise,
    sigma_from_t2,
    transition_frequencies,
)
from dotspin.engine import run_sequence
from dotspin.experiments import rng_for
from dotspin.sequences import (
    ChargeEvent,
    FreeEvolution,
    MeasureElectron,
    MeasureNuclear,
    Pulse,
    PulseSequence,
    Rotation,
    hahn_sequence,
    pi_duration,
    ramsey_sequence,
)

PARAMS = SpinSystemParams()
FREQS = transition_frequencies(PARAMS)


def _nmr_rabi_sequence(duration, frequency, rabi=2.0, electron="none"):
    elements = []
    config = "unloaded"
    if electron != "none":
        elements.append(ChargeEvent(kind=f"load_{electron}"))
        config = "qd1"
    elements += [
        Pulse("NMR", frequency, rabi, duration),
        MeasureNuclear(),
    ]
    return PulseSequence(
        elements=tuple(elements),
        f_e_ref=FREQS["f_e0"],
        f_n_ref=FREQS["f_n0"],
        initial_config="unloaded",
    )


class TestIdealCurves:
    def test_resonant_nmr_rabi_matches_closed_form(self):
        # unloaded nucleus driven on its bare line: P = sin^2(pi Omega t)
        rabi = 2.0  # kHz
        for t in (50.0, 125.0, 200.0):
            seq = _nmr_rabi_sequence(t, FREQS["f_n0"], rabi)
            p_up = run_sequence(seq, PARAMS).last("nuclear")[1]
            expected = np.sin(np.pi * rabi * 1e-3 * t) ** 2
            assert p_up == pytest.approx(expected, abs=1e-3)

    def test_detuned_nmr_rabi_matches_generalised_formula(self):
        rabi, det = 2.0, 3.0  # kHz
        freq = FREQS["f_n0"] + det * 1e-3
        t = 300.0
        seq = _nmr_rabi_sequence(t, freq, rabi)
        p_up = run_sequence(seq, PARAMS).last("nuclear")[1]
        omega_gen = np.hypot(rabi, det)
        expected = (rabi / omega_gen) ** 2 * np.sin(
            np.pi * omega_gen * 1e-3 * t
        ) ** 2
        assert p_up == pytest.approx(expected, abs=1e-3)

    def test_loaded_resonance_shifts_by_half_hyperfine(self):
        # with a spin-down electron loaded, the bare-frequency drive is
        # detuned by |A|/2 and does nearly nothing; the conditional line flips
        rabi = 2.0
        t_pi = pi_duration(rabi)
        off = _nmr_rabi_sequence(t_pi, FREQS["f_n0"], rabi, electron="down")
        on = _nmr_rabi_sequence(
            t_pi, FREQS["f_n_elec_down"], rabi, electron="down"
        )
        assert run_sequence(off, PARAMS).last("nuclear")[1] < 0.01
        assert run_sequence(on, PARAMS).last("nuclear")[1] > 0.999

    def test_ramsey_fringe_at_detuning(self):
        # noiseless detuned Ramsey oscillates at exactly the frame offset
        det = 2.0  # kHz
        for tau in (100.0, 350.0, 600.0):
            seq = ramsey_sequence(PARAMS, tau, detuning_khz=det)
            p_up = run_sequence(seq, PARAMS).last("nuclear")[1]
            expected = np.cos(np.pi * det * 1e-3 * tau) ** 2
            assert p_up == pytest.approx(expected, abs=1e-9)


class TestRefocusingAndNoise:
    def test_hahn_refocuses_quasistatic_detuning(self):
        # pure quasi-static I_z noise is removed exactly by the echo
        model = NoiseModel(sigma_iz=sigma_from_t2(100.0))  # violent noise
        seq = hahn_sequence(PARAMS, tau=400.0)
        draws = sample_noise(model, rng_for(1), 20)
        for trial in range(20):
            draw = ref.draw_row(draws, trial)
            # pi/2 - pi - pi/2 about the same axis composes to 2 pi, so a
            # perfect echo returns the nucleus to its initial state
            p_down = run_sequence(seq, PARAMS, draw).last("nuclear")[0]
            assert p_down >= 0.999

    def test_ramsey_envelope_matches_sigma_conversion(self):
        # trial-averaged detuned Ramsey decays as exp[-(tau/T2*)^2] when
        # sigma = 1/(sqrt(2) pi T2*)
        t2 = 800.0  # us
        model = NoiseModel(sigma_iz=sigma_from_t2(t2))
        taus = np.array([200.0, 400.0, 600.0, 800.0])
        trials = 3000
        draws = sample_noise(model, rng_for(2), trials)
        amps = []
        for tau in taus:
            # average cos(2 pi delta tau) over draws = envelope at tau
            seq = ramsey_sequence(PARAMS, tau, detuning_khz=0.0)
            signal = run_sequence(seq, PARAMS, draws).last("nuclear")[:, 1].sum()
            amps.append(2 * signal / trials - 1.0)
        expected = np.exp(-((taus / t2) ** 2))
        assert np.allclose(amps, expected, atol=0.05)

    def test_spectator_detuning_shifts_esr_only(self):
        # an ESR pi pulse on the nominal line misses when the spectator is
        # flipped (120 kHz detuning), while NMR is untouched
        rabi = 25.0
        t_pi = pi_duration(rabi)
        seq = PulseSequence(
            elements=(
                ChargeEvent(kind="load_down"),
                Pulse("ESR", FREQS["f_e_nuc_down"], rabi, t_pi),
                MeasureElectron(),
            ),
            f_e_ref=FREQS["f_e0"],
            f_n_ref=FREQS["f_n0"],
            initial_config="unloaded",
        )
        clean = run_sequence(seq, PARAMS).last("electron")[1]
        shifted = run_sequence(
            seq, PARAMS, NoiseDraw(spectator_detuned=True)
        ).last("electron")[1]
        assert clean > 0.99
        expected = rabi**2 / (rabi**2 + 120.0**2) * np.sin(
            np.pi * np.hypot(rabi, 120.0) * 1e-3 * t_pi
        ) ** 2
        assert shifted == pytest.approx(expected, abs=1e-3)


class TestStateHandling:
    @given(
        tau=st.floats(1.0, 2000.0),
        dz=st.floats(-30.0, 30.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_density_matrix_stays_physical(self, tau, dz):
        seq = hahn_sequence(PARAMS, tau=tau, charge_config="qd1")
        draw = NoiseDraw(delta_iz=dz, delta_sz=3 * dz)
        rho = run_sequence(seq, PARAMS, draw).rho
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12

    def test_load_event_resets_electron(self):
        seq = PulseSequence(
            elements=(
                ChargeEvent(kind="load_up"),
                MeasureElectron(),
            ),
            f_e_ref=FREQS["f_e0"],
            f_n_ref=FREQS["f_n0"],
            initial_config="unloaded",
        )
        assert run_sequence(seq, PARAMS).last("electron")[1] == pytest.approx(1.0)

    def test_measurements_record_in_order(self):
        seq = PulseSequence(
            elements=(
                Rotation("NMR", 180.0),
                MeasureNuclear(),
                Rotation("NMR", 180.0),
                MeasureNuclear(),
            ),
            f_e_ref=FREQS["f_e0"],
            f_n_ref=FREQS["f_n0"],
            initial_config="unloaded",
        )
        res = run_sequence(seq, PARAMS)
        assert res.records[0][1][1] == pytest.approx(1.0, abs=1e-12)
        assert res.records[1][1][0] == pytest.approx(1.0, abs=1e-12)

    def test_off_frame_pulse_equals_frame_shifted_reference(self):
        # driving the conditional line from the bare-frame sequence must agree
        # with a sequence whose frame sits on the line itself
        rabi, t = 2.0, 137.0
        on_frame = PulseSequence(
            elements=(ChargeEvent(kind="load_down"),
                      Pulse("NMR", FREQS["f_n_elec_down"], rabi, t),
                      MeasureNuclear()),
            f_e_ref=FREQS["f_e0"],
            f_n_ref=FREQS["f_n_elec_down"],
            initial_config="unloaded",
        )
        off_frame = _nmr_rabi_sequence(t, FREQS["f_n_elec_down"], rabi,
                                       electron="down")
        p_on = run_sequence(on_frame, PARAMS).last("nuclear")
        p_off = run_sequence(off_frame, PARAMS).last("nuclear")
        assert np.allclose(p_on, p_off, atol=1e-9)
