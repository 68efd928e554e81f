"""The engine's reuse paths against the work they replace: collapsed
identical trials, the eigendecomposition memo, the per-run free-evolution
propagators and the cached Bell calibration."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from test_batched_engine import PARAMS, initial_states, noise_draws, sequences
from dotspin import core, experiments
from dotspin.core import NoiseBatch, NoiseDraw, dagger, transition_frequencies, unitary
from dotspin.engine import run_sequence
from dotspin.sequences import (
    ChargeEvent,
    MeasureElectron,
    MeasureNuclear,
    PulseSequence,
    adiabatic_inversion,
    repeated_load_sequence,
)

TOL = 1e-12


@given(
    seqs=st.lists(sequences(max_elements=6), min_size=1, max_size=3),
    draw=noise_draws,
    trials=st.integers(1, 6),
    init=initial_states(),
    kind=st.sampled_from(("nuclear", "electron", "joint")),
)
@settings(max_examples=30, deadline=None)
def test_collapsed_sweep_equals_full_batch_and_reference(seqs, draw, trials, init, kind):
    seqs = [replace(s, elements=s.elements + (MeasureElectron(),)) for s in seqs]
    draws = NoiseBatch.stack([draw] * trials)
    assert len(experiments._collapse(draws)) == 1
    collapsed = experiments._sweep(lambda s: s, seqs, PARAMS, draws, kind, init)
    # _trial_mean alone runs the engine on all `trials` draws
    full = np.array([experiments._trial_mean(s, PARAMS, draws, trials, kind, init)
                     for s in seqs])
    assert np.array_equal(collapsed, full)
    for row, seq in zip(collapsed, seqs):
        one = ref.run_sequence(seq, PARAMS, draw, init)
        expected = one.joint_probabilities() if kind == "joint" else one.last(kind)
        assert np.max(np.abs(row - expected)) < TOL


def test_distinct_draws_are_not_collapsed():
    draws = NoiseBatch.stack([NoiseDraw(), NoiseDraw(), NoiseDraw(delta_iz=0.1)])
    assert experiments._collapse(draws) is draws
    # equal values with different bits (a signed zero) are distinct too
    draws = NoiseBatch.stack([NoiseDraw(delta_sz=0.0), NoiseDraw(delta_sz=-0.0)])
    assert experiments._collapse(draws) is draws


def _unitary_without_memo(h, t):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-2j * np.pi * w * t)[..., None, :]) @ dagger(v)


@st.composite
def hamiltonian_stacks(draw):
    n = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from((np.complex128, np.complex64, np.float64)))
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=32 * n, max_size=32 * n))
    a = np.array(values).reshape(n, 2, 4, 4)
    m = a[:, 0] + (1j * a[:, 1] if np.iscomplexobj(np.zeros(1, dtype)) else 0)
    return ((m + dagger(m)) / 2).astype(dtype)


@given(stacks=st.lists(hamiltonian_stacks(), min_size=1, max_size=24),
       t=st.floats(0.0, 100.0))
@settings(max_examples=30, deadline=None)
def test_unitary_memo_returns_what_eigh_gives(stacks, t):
    core._eigh_memo.clear()
    for h in stacks + stacks[::-1]:  # cold, then warm where still held
        assert np.array_equal(unitary(h, t), _unitary_without_memo(h, t))
        assert len(core._eigh_memo) <= core.EIGH_MEMO_SIZE
    for w, v in core._eigh_memo.values():
        assert not w.flags.writeable and not v.flags.writeable
        with pytest.raises(ValueError):
            v[...] = 0


def test_unitary_memo_keys_on_the_exact_stack():
    core._eigh_memo.clear()
    rng = np.random.default_rng(3)
    m = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    h = (m + dagger(m)) / 2
    first = unitary(h, 7.0)
    # the caller mutating its array afterwards does not reach the memo
    h[1] = h[1] + np.diag([0.5, -0.25, 0.0, 1.0])
    assert np.array_equal(unitary(h, 7.0), _unitary_without_memo(h, 7.0))
    assert not np.array_equal(unitary(h, 7.0), first)
    # equal bytes under another shape or dtype are a different stack
    reshaped = h.reshape(1, 2, 4, 4)
    assert unitary(reshaped, 7.0).shape == (1, 2, 4, 4)
    h64 = h[0].astype(np.complex64)
    as_real = h64.view(np.float64)
    assert as_real.shape == h64.shape and as_real.tobytes() == h64.tobytes()
    assert np.array_equal(unitary(h64, 7.0), _unitary_without_memo(h64, 7.0))
    assert np.array_equal(unitary(as_real, 7.0), _unitary_without_memo(as_real, 7.0))
    # the memo is bounded and evicts the oldest stack first
    core._eigh_memo.clear()
    keys = []
    for i in range(core.EIGH_MEMO_SIZE + 3):
        hi = h + i
        unitary(hi, 1.0)
        keys.append((hi.shape, hi.dtype, hi.tobytes()))
        assert len(core._eigh_memo) == min(i + 1, core.EIGH_MEMO_SIZE)
    assert list(core._eigh_memo) == keys[-core.EIGH_MEMO_SIZE:]


def test_chirp_steps_leave_the_eigh_memo_alone():
    # each chirp step's Hamiltonian stack is new, so the steps take their
    # eigendecomposition from eigh directly and evict nothing reusable
    freqs = transition_frequencies(PARAMS)
    seq = PulseSequence(
        elements=(ChargeEvent(kind="load_down"),
                  adiabatic_inversion(PARAMS, "f_e_nuc_down"), MeasureElectron()),
        f_e_ref=freqs["f_e0"], f_n_ref=freqs["f_n0"], initial_config="unloaded",
    )
    draws = [NoiseDraw(), NoiseDraw(delta_sz=3.0, delta_iz=0.02)]
    core._eigh_memo.clear()
    unitary(np.diag([1.0, 2.0, 3.0, 4.0]), 1.0)
    keys = list(core._eigh_memo)
    got = run_sequence(seq, PARAMS, NoiseBatch.stack(draws))
    assert list(core._eigh_memo) == keys
    for i, d in enumerate(draws):
        one = ref.run_sequence(seq, PARAMS, d)
        assert np.max(np.abs(got.rho[i] - one.state.density_matrix())) < TOL


@given(
    k=st.integers(0, 5),
    tau_0=st.floats(1.0, 2000.0),
    p_err=st.sampled_from((0.0, 0.2, 1.0)),
    phase=st.floats(0.0, 360.0),
    draws=st.lists(noise_draws, min_size=1, max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_repeated_load_matches_reference_element_by_element(k, tau_0, p_err, phase, draws):
    # every cycle repeats the same two free evolutions, which share one
    # propagator each within a run
    seq = repeated_load_sequence(PARAMS, k, tau_0, p_err=p_err, final_phase=phase)
    batch = NoiseBatch.stack(draws)
    for n in range(1, len(seq.elements) + 1):
        prefix = replace(seq, elements=seq.elements[:n] + (MeasureNuclear(),))
        got = run_sequence(prefix, PARAMS, batch)
        for i, d in enumerate(draws):
            one = ref.run_sequence(prefix, PARAMS, d)
            assert np.max(np.abs(got.rho[i] - one.state.density_matrix())) < TOL
            assert np.max(np.abs(got.last("nuclear")[i] - one.last("nuclear"))) < TOL


def test_cached_calibration_returns_equal_distinct_dicts():
    a = experiments.calibrate_bell_projection(PARAMS, 1.05)
    b = experiments.calibrate_bell_projection(PARAMS, 1.05)
    assert a == b and a is not b
    a["phi_e"] = None
    assert experiments.calibrate_bell_projection(PARAMS, 1.05) == b
    # the cache holds exactly what an uncached calibration computes
    uncached = experiments._calibrated_projection.__wrapped__(PARAMS, 1.05, 3)
    assert uncached == b
