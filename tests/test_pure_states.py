"""Pure runs propagated as amplitudes against the density-matrix path and
the reference executor, and the elements at which a run switches to rho."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from test_batched_engine import PARAMS, initial_states, noise_draws, sequences
from dotspin import engine, experiments
from dotspin.core import NoiseBatch, NoiseModel, QuantumState, transition_frequencies
from dotspin.engine import run_sequence, run_stack
from dotspin.sequences import (
    ChargeEvent,
    FreeEvolution,
    MeasureElectron,
    MeasureNuclear,
    Pulse,
    PulseSequence,
    Rotation,
    bell_circuit,
)

TOL = 1e-12
FREQS = transition_frequencies(PARAMS)


@pytest.fixture
def conjugations(monkeypatch):
    """Every engine._conjugate call, the density-matrix path's propagation."""
    calls = []
    conjugate = engine._conjugate
    monkeypatch.setattr(engine, "_conjugate",
                        lambda u, rho: calls.append(rho.shape) or conjugate(u, rho))
    return calls


def _assert_matches_reference(seq, draws, init, *results):
    for i, d in enumerate(draws):
        one = ref.run_sequence(seq, PARAMS, d, init)
        for got in results:
            assert np.max(np.abs(got.rho[i] - one.state.density_matrix())) < TOL
            for (kind, probs), (ref_kind, ref_probs) in zip(got.records, one.records,
                                                             strict=True):
                assert kind == ref_kind
                assert np.max(np.abs(probs[i] - ref_probs)) < TOL


@given(
    seq=sequences(),
    draws=st.lists(noise_draws, min_size=1, max_size=3),
    init=initial_states().filter(lambda s: s is not None),
)
@settings(max_examples=25, deadline=None)
def test_amplitudes_match_density_matrix_path_and_reference(seq, draws, init):
    # a state given as a matrix has no vector, so its run takes rho throughout
    v = init.vector
    mixed_init = QuantumState(matrix=np.outer(v, v.conj()))
    assert mixed_init.vector is None
    batch = NoiseBatch.stack(draws)
    pure = run_sequence(seq, PARAMS, batch, init)
    mixed = run_sequence(seq, PARAMS, batch, mixed_init)
    assert np.max(np.abs(pure.rho - mixed.rho)) < TOL
    for (kind, p), (mixed_kind, q) in zip(pure.records, mixed.records, strict=True):
        assert kind == mixed_kind
        assert np.max(np.abs(p - q)) < TOL
    _assert_matches_reference(seq, draws, init, pure, mixed)


def test_vector_is_a_read_only_copy():
    v = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2)
    state = QuantumState(vector=v)
    v[0] = 0.0
    assert state.vector[0] == 1 / np.sqrt(2)
    with pytest.raises(ValueError):
        state.vector[0] = 0.0
    assert QuantumState(matrix=state.density_matrix()).vector is None


def test_bell_state_unloaded_is_mixed_like_the_reference(conjugations):
    bell = bell_circuit(PARAMS)
    seq = replace(bell, elements=bell.elements + (
        ChargeEvent("unload"), Pulse("NMR", FREQS["f_n0"], 3.0, 60.0, 90.0),
        MeasureNuclear()))
    draws = [ref.draw_row(experiments._draws(NoiseModel(sigma_iz=0.3, sigma_sz=5.0),
                                             1, 3), t) for t in range(3)]
    got = run_sequence(seq, PARAMS, NoiseBatch.stack(draws))
    # pure up to the unload, rho from it: one conjugation, by the NMR pulse
    assert conjugations == [(3, 4, 4)]
    purity = np.einsum("nij,nji->n", got.rho, got.rho).real
    assert np.all(np.abs(purity - 0.5) < 0.05)
    _assert_matches_reference(seq, draws, None, got)


@pytest.mark.parametrize("electron, vector, pure", [
    ("down", [1.0, 0.0, 0.0, 0.0], True),
    ("up", [0.0, 0.0, 1.0, 0.0], False),  # QuantumState.basis("up", "down")
    ("entangled", np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), False),
])
def test_load_keeps_amplitudes_only_from_an_empty_electron_slot(
        electron, vector, pure, conjugations):
    init = QuantumState(vector=vector)
    seq = PulseSequence(
        elements=(Pulse("NMR", FREQS["f_n0"], 2.0, 120.0, 30.0),
                  FreeEvolution(40.0, "unloaded"),
                  ChargeEvent("load_up"),
                  Pulse("ESR", FREQS["f_e_nuc_down"], 80.0, 3.0, 45.0),
                  MeasureElectron(), MeasureNuclear()),
        f_e_ref=FREQS["f_e0"], f_n_ref=FREQS["f_n0"], initial_config="unloaded",
    )
    draws = [ref.draw_row(experiments._draws(NoiseModel(sigma_iz=0.3, sigma_sz=5.0),
                                             2, 2), t) for t in range(2)]
    got = run_sequence(seq, PARAMS, NoiseBatch.stack(draws), init)
    assert conjugations == ([] if pure else [(2, 4, 4)])
    _assert_matches_reference(seq, draws, init, got)
    # the load traces out the electron of the Bell pair, which nothing before
    # it entangles further or disentangles
    purity = np.einsum("nij,nji->n", got.rho, got.rho).real
    assert np.max(np.abs(purity - (0.5 if electron == "entangled" else 1.0))) < TOL


def test_stack_of_rotation_angles_before_an_unload_equals_per_point_runs():
    angle = np.array([10.0, 90.0, 180.0, 333.0])
    stack = PulseSequence(
        elements=(ChargeEvent("load_down"), Rotation("ESR", angle, 20.0),
                  Rotation("NMR", 90.0), FreeEvolution(300.0, "qd1"),
                  ChargeEvent("unload"), Rotation("NMR", angle / 2, 45.0),
                  MeasureNuclear()),
        f_e_ref=FREQS["f_e0"], f_n_ref=FREQS["f_n0"], initial_config="unloaded",
    )
    draws = experiments._draws(NoiseModel(sigma_iz=0.5, sigma_sz=20.0), 4, 5)
    stacked = run_stack(stack, PARAMS, draws)
    for i, seq in enumerate(ref.unstack(stack)):
        lone = run_sequence(seq, PARAMS, draws)
        assert np.array_equal(stacked.rho[i], lone.rho)
        assert np.array_equal(stacked.last("nuclear")[i], lone.last("nuclear"))


def test_noisy_trial_drivers_never_conjugate(conjugations):
    noise = NoiseModel(sigma_iz=0.3, sigma_sz=4.0, spectator_flip_prob=0.2)
    taus = np.linspace(0.0, 600.0, 3)
    experiments.run_ramsey(taus, noise=noise, trials=4, seed=1)
    experiments.run_hahn(taus, noise=noise, trials=4, seed=1)
    experiments.run_bell_parity_sweep(PARAMS, experiments.BellNoiseConfig(),
                                      phi_range=[0.0, 90.0], trials=4, seed=1)
    assert conjugations == []
    # a charge-transfer error mixes the state, and from then on rho is conjugated
    experiments.run_shuttle_experiments("electron", [0.0, 90.0], PARAMS, noise=noise,
                                        trials=4, seed=1, p_transfer=0.3)
    assert conjugations
