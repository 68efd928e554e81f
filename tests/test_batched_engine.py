"""The batched engine against the per-trial reference executor it replaced."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from dotspin import engine, experiments
from dotspin.core import (
    DIAGONAL,
    ESR_BLOCKS,
    NMR_BLOCKS,
    NoiseBatch,
    NoiseDraw,
    NoiseModel,
    QuantumState,
    SpinSystemParams,
    rng_for,
    sample_noise,
    transition_frequencies,
)
from dotspin.engine import run_sequence
from dotspin.experiments import (
    BellNoiseConfig,
    calibrate_bell_projection,
    run_bell_parity_sweep,
    run_ramsey,
    run_shuttle_experiments,
)
from dotspin.sequences import (
    ChargeEvent,
    FreeEvolution,
    MeasureElectron,
    MeasureNuclear,
    Pulse,
    PulseSequence,
    Rotation,
    bell_circuit,
    ramsey_sequence,
    repeated_load_sequence,
)

PARAMS = SpinSystemParams()
FREQS = transition_frequencies(PARAMS)
TOL = 1e-12

_EVENTS = {
    "unloaded": ("load_down", "load_up"),
    "qd1": ("unload", "shuttle_1_to_2"),
    "qd2": ("unload", "shuttle_2_to_1"),
}
_AFTER = {"load_down": "qd1", "load_up": "qd1", "unload": "unloaded",
          "shuttle_1_to_2": "qd2", "shuttle_2_to_1": "qd1"}


@st.composite
def sequences(draw, max_elements=8):
    """Random valid timelines: off-frame NMR/ESR pulses, ideal rotations,
    free evolution, charge events with electron or nuclear dephasing and
    measurements."""
    config = draw(st.sampled_from(("unloaded", "qd1", "qd2")))
    initial_config = config
    phase = st.floats(0.0, 360.0)
    elements = []
    for _ in range(draw(st.integers(1, max_elements))):
        loaded = config != "unloaded"
        kinds = ["nmr", "rotation", "free", "charge", "measure"]
        if loaded:
            kinds.append("esr")
        kind = draw(st.sampled_from(kinds))
        if kind == "nmr":
            line = draw(st.sampled_from(("f_n0", "f_n_elec_down", "f_n_elec_up")))
            elements.append(Pulse(
                "NMR", FREQS[line] + draw(st.floats(-0.003, 0.003)),
                draw(st.floats(0.5, 5.0)), draw(st.floats(1.0, 300.0)), draw(phase),
            ))
        elif kind == "esr":
            line = draw(st.sampled_from(("f_e0", "f_e_nuc_down", "f_e_nuc_up")))
            elements.append(Pulse(
                "ESR", FREQS[line] + draw(st.floats(-0.2, 0.2)),
                draw(st.floats(20.0, 200.0)), draw(st.floats(0.5, 20.0)), draw(phase),
            ))
        elif kind == "rotation":
            channel = draw(st.sampled_from(("NMR", "ESR") if loaded else ("NMR",)))
            elements.append(Rotation(channel, draw(st.floats(0.0, 360.0)), draw(phase)))
        elif kind == "free":
            elements.append(FreeEvolution(draw(st.floats(0.0, 2000.0)), config))
        elif kind == "charge":
            event = draw(st.sampled_from(_EVENTS[config]))
            elements.append(ChargeEvent(
                kind=event,
                dephase_prob=draw(st.sampled_from((0.0, 0.3, 1.0))),
                dephase_target=draw(st.sampled_from(("nuclear", "electron"))),
            ))
            config = _AFTER[event]
        else:
            elements.append(draw(st.sampled_from((MeasureNuclear(), MeasureElectron()))))
    elements.append(MeasureNuclear())
    return PulseSequence(
        elements=tuple(elements),
        f_e_ref=FREQS["f_e0"] + draw(st.floats(-0.3, 0.3)),
        f_n_ref=FREQS["f_n0"] + draw(st.floats(-0.3, 0.3)) * 1e-2,
        initial_config=initial_config,
    )


noise_draws = st.builds(
    NoiseDraw,
    delta_ix=st.floats(-2.0, 2.0),
    delta_iz=st.floats(-2.0, 2.0),
    delta_sz=st.floats(-50.0, 50.0),
    spectator_detuned=st.booleans(),
)


@st.composite
def initial_states(draw):
    if draw(st.booleans()):
        return None
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    vec = np.array(amps[:4]) + 1j * np.array(amps[4:])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        return None
    return QuantumState(vector=vec / norm)


def _assert_matches_reference(seq, draws, init):
    batch = run_sequence(seq, PARAMS, NoiseBatch.stack(draws), init)
    assert batch.rho.shape == (len(draws), 4, 4)
    for i, d in enumerate(draws):
        one = ref.run_sequence(seq, PARAMS, d, init)
        assert np.max(np.abs(batch.rho[i] - one.state.density_matrix())) < TOL
        assert len(batch.records) == len(one.records)
        for (kind, probs), (ref_kind, ref_probs) in zip(batch.records, one.records):
            assert kind == ref_kind
            assert probs.shape == (len(draws), 2)
            assert np.max(np.abs(probs[i] - ref_probs)) < TOL
        rho = batch.rho[i]
        assert np.trace(rho).real == pytest.approx(1.0, abs=TOL)
        assert np.min(np.linalg.eigvalsh(rho)) > -TOL
    # a single NoiseDraw is the batch of one, with the trial axis dropped
    single = run_sequence(seq, PARAMS, draws[0], init)
    assert single.rho.shape == (4, 4)
    assert np.max(np.abs(single.rho - batch.rho[0])) < TOL


@given(
    seq=sequences(),
    draws=st.lists(noise_draws, min_size=1, max_size=4),
    init=initial_states(),
)
@settings(max_examples=40, deadline=None)
def test_batched_trials_match_per_trial_reference(seq, draws, init):
    _assert_matches_reference(seq, draws, init)


def test_every_element_kind_matches_reference():
    # one fixed timeline with every feature the property samples, so each is
    # exercised on every run whatever hypothesis draws
    f = FREQS
    seq = PulseSequence(
        elements=(
            Pulse("NMR", f["f_n0"] + 0.001, 2.0, 120.0, 30.0),
            ChargeEvent(kind="load_up", dephase_prob=0.2, dephase_target="nuclear"),
            Pulse("ESR", f["f_e_nuc_down"], 80.0, 3.0, 45.0),
            MeasureElectron(),
            Rotation("ESR", 90.0, 10.0),
            FreeEvolution(350.0, "qd1"),
            ChargeEvent(kind="shuttle_1_to_2", dephase_prob=0.4,
                        dephase_target="electron"),
            Pulse("ESR", f["f_e0"] + 0.5, 100.0, 2.5),
            FreeEvolution(80.0, "qd2"),
            ChargeEvent(kind="unload", dephase_prob=1.0),
            Pulse("NMR", f["f_n0"], 3.0, 60.0, 90.0),
            MeasureNuclear(),
        ),
        f_e_ref=f["f_e0"],
        f_n_ref=f["f_n0"],
        initial_config="unloaded",
    )
    draws = [
        NoiseDraw(delta_ix=0.7, delta_iz=-1.1, delta_sz=12.0),
        NoiseDraw(delta_ix=-0.3, delta_iz=0.4, delta_sz=-30.0, spectator_detuned=True),
        NoiseDraw(),
    ]
    _assert_matches_reference(seq, draws, None)


def test_ix_noise_sends_esr_pulses_through_eigh(monkeypatch):
    # one trial's I_x noise couples the ESR blocks, so the whole batch's ESR
    # pulses and free evolutions take the stacked eigh; NMR pulses keep their
    # closed-form blocks, and without that trial nothing reaches eigh
    f = FREQS
    seq = PulseSequence(
        elements=(
            Pulse("ESR", f["f_e_nuc_down"], 80.0, 3.0, 45.0),
            Pulse("NMR", f["f_n_elec_down"] + 0.001, 2.0, 120.0, 30.0),
            FreeEvolution(350.0, "qd1"),
            Pulse("ESR", f["f_e0"] + 0.5, 100.0, 2.5),
            MeasureElectron(),
        ),
        f_e_ref=f["f_e0"],
        f_n_ref=f["f_n0"],
        initial_config="qd1",
    )
    draws = [
        NoiseDraw(delta_iz=-1.1, delta_sz=12.0),
        NoiseDraw(delta_ix=0.7, delta_iz=0.4, delta_sz=-30.0, spectator_detuned=True),
        NoiseDraw(),
    ]
    calls = []
    unitary = engine.unitary
    monkeypatch.setattr(engine, "unitary", lambda h, dt, blocks=None: calls.append(
        (h.shape, blocks)) or unitary(h, dt, blocks))
    run_sequence(seq, PARAMS, NoiseBatch.stack(draws))
    assert calls == [((3, 4, 4), None), ((3, 4, 4), NMR_BLOCKS), ((3, 4, 4), None),
                     ((3, 4, 4), None)]
    calls.clear()
    run_sequence(seq, PARAMS, NoiseBatch.stack(draws[::2]))
    assert calls == [((2, 4, 4), ESR_BLOCKS), ((2, 4, 4), NMR_BLOCKS),
                     ((2, 4, 4), DIAGONAL), ((2, 4, 4), ESR_BLOCKS)]
    _assert_matches_reference(seq, draws, None)


@given(
    seq=sequences(),
    draws=st.lists(noise_draws.map(lambda d: replace(d, delta_ix=0.0)), min_size=1, max_size=4),
    init=initial_states(),
)
@settings(max_examples=20, deadline=None)
def test_no_ix_noise_never_reaches_eigh(seq, draws, init):
    # without I_x noise every pulse takes the closed-form blocks and every
    # free evolution the diagonal phases
    calls = []
    unitary = engine.unitary
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "unitary", lambda h, dt, blocks=None: calls.append(
            blocks) or unitary(h, dt, blocks))
        run_sequence(seq, PARAMS, NoiseBatch.stack(draws), init)
    assert all(blocks is not None for blocks in calls)


def _ref_ramsey(taus, noise, trials, seed):
    # trial t's draw is row t of the driver's one draw batch
    draws = experiments._draws(noise, seed, trials)
    out = []
    for tau in taus:
        seq = ramsey_sequence(PARAMS, tau, detuning_khz=2.0)
        out.append(ref.average_populations(
            lambda t: ref.draw_row(draws, t),
            lambda d, seq=seq: ref.run_sequence(seq, PARAMS, d).last("nuclear"),
            trials,
        )[1])
    return np.array(out)


def test_drivers_match_per_trial_reference():
    noise = NoiseModel(sigma_ix=0.2, sigma_iz=0.5, sigma_sz=5.0,
                       spectator_flip_prob=0.3)
    taus = np.linspace(0.0, 900.0, 4)
    res = run_ramsey(taus, noise=noise, trials=12, seed=4)
    assert np.max(np.abs(res.columns["p_up"] - _ref_ramsey(taus, noise, 12, 4))) < TOL

    # the four final phases of the repeated-load variant, on one batch
    res = run_shuttle_experiments("repeated", [0, 3], PARAMS, noise=noise,
                                  trials=5, seed=2, p_err=0.1)
    draws = experiments._draws(noise, 2, 5)
    for name, phi in (("p_x", 0.0), ("p_mx", 180.0), ("p_y", 90.0), ("p_my", 270.0)):
        for row, k in enumerate((0, 3)):
            seq = repeated_load_sequence(PARAMS, k, 500.0, p_err=0.1, final_phase=phi)
            expected = ref.average_populations(
                lambda t: ref.draw_row(draws, t),
                lambda d: ref.run_sequence(seq, PARAMS, d).last("nuclear"), 5,
            )[1]
            assert abs(res.columns[name][row] - expected) < TOL

    # joint probabilities from a non-default initial state
    cfg = BellNoiseConfig()
    cal = calibrate_bell_projection(PARAMS, cfg.duration_scale())
    res = run_bell_parity_sweep(PARAMS, cfg, phi_range=[40.0], trials=6, seed=1,
                                initial_nuclear="up")
    init = QuantumState.basis("down", "up")
    seq = bell_circuit(
        PARAMS,
        projection=(tuple(p + 40.0 for p in cal["phi_n"]), cal["phi_e"]),
        duration_scale=cfg.duration_scale(),
    )
    draws = experiments._draws(cfg.noise_model(), 1, 6)
    expected = ref.average_populations(
        lambda t: ref.draw_row(draws, t),
        lambda d: ref.run_sequence(seq, PARAMS, d, init).joint_probabilities(), 6,
    )
    assert abs(res.columns["p_up_Up"][0] - expected[3]) < TOL


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_outputs_byte_identical_across_reruns(seed):
    noise = NoiseModel(sigma_iz=0.3, sigma_sz=4.0, spectator_flip_prob=0.2)
    taus = np.linspace(0.0, 600.0, 3)
    def column_bytes(res):
        return {name: column.tobytes() for name, column in res.columns.items()}

    a = run_ramsey(taus, noise=noise, trials=5, seed=seed)
    b = run_ramsey(taus, noise=noise, trials=5, seed=seed)
    assert column_bytes(a) == column_bytes(b)
    a = run_shuttle_experiments("electron", [0.0, 90.0], PARAMS, noise=noise,
                                trials=4, seed=seed, p_transfer=0.3)
    b = run_shuttle_experiments("electron", [0.0, 90.0], PARAMS, noise=noise,
                                trials=4, seed=seed, p_transfer=0.3)
    assert column_bytes(a) == column_bytes(b)


def test_long_noisy_sequence_keeps_trace_and_hermiticity():
    """Nothing renormalises rho, so 10,000 noisy load/unload cycles (20,000
    charge events, half of them dephasing) leave only round-off drift."""
    noise = NoiseModel(sigma_ix=0.2, sigma_iz=1.0, sigma_sz=5.0, spectator_flip_prob=0.1)
    seq = repeated_load_sequence(PARAMS, 10_000, 500.0, p_err=0.01)
    rho = run_sequence(seq, PARAMS, sample_noise(noise, rng_for(1), 64)).rho
    assert rho.shape == (64, 4, 4)
    assert np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1)) < 1e-10
    assert np.max(np.linalg.norm(rho - rho.conj().swapaxes(-1, -2), axis=(-2, -1))) < 1e-10
