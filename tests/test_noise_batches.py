"""The drivers' noise draws: at most one generator per draw batch (none for an
all-zero model), row t for trial t."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dotspin import experiments
from dotspin.core import NoiseModel, SpinSystemParams, rng_for, sample_noise

PARAMS = SpinSystemParams()
NOISE = NoiseModel(sigma_ix=0.2, sigma_iz=0.5, sigma_sz=5.0, spectator_flip_prob=0.3)

sigmas = st.one_of(st.just(0.0), st.floats(1e-3, 50.0))
models = st.builds(
    NoiseModel, sigma_ix=sigmas, sigma_iz=sigmas, sigma_sz=sigmas,
    # the binomial bound needs a few dozen flips, or none at all
    spectator_flip_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
)


def _normals(batch):
    return batch.delta_ix, batch.delta_iz, batch.delta_sz


def _sigmas(model):
    return model.sigma_ix, model.sigma_iz, model.sigma_sz


def _bytes(batch):
    return [column.tobytes() for column in (*_normals(batch), batch.spectator_detuned)]


@pytest.mark.parametrize("trials", [1, 7, 500])
def test_all_zero_model_gives_one_row_of_positive_zeros(trials, monkeypatch):
    batch = experiments._draws(NoiseModel(), 5, trials, "p_x")
    for column in _normals(batch):
        assert column.shape == (trials,)
        assert np.array_equal(column, np.zeros(trials))
        assert not np.signbit(column).any()
    assert not batch.spectator_detuned.any()

    runs = []
    run_sequence = experiments.run_sequence

    def counted(seq, params, noise, *args):
        runs.append(len(noise))
        return run_sequence(seq, params, noise, *args)

    monkeypatch.setattr(experiments, "run_sequence", counted)
    seq = experiments.ramsey_sequence(PARAMS, 100.0, charge_config="qd1")
    experiments._sweep([seq], PARAMS, batch, "nuclear")
    assert runs == [1]


@pytest.mark.parametrize("model", [NoiseModel(),
                                   NoiseModel(sigma_iz=-0.0, spectator_flip_prob=-0.0)])
@pytest.mark.parametrize("trials", [1, 7])
def test_all_zero_model_draws_what_sample_noise_gives_without_a_generator(
        model, trials, monkeypatch):
    expected = sample_noise(model, rng_for(5, "noise"), trials)
    monkeypatch.setattr(experiments, "rng_for", lambda *key: pytest.fail("generator built"))
    got = experiments._draws(model, 5, trials)
    columns = (*_normals(got), got.spectator_detuned)
    for a, b in zip(columns, (*_normals(expected), expected.spectator_detuned)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # three separate arrays, as sample_noise gives
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(columns, 2))


def test_spectator_only_model_still_draws_its_stream(monkeypatch):
    model = NoiseModel(spectator_flip_prob=0.3)
    keys = []

    def counted(seed, *key):
        keys.append((seed, key))
        return rng_for(seed, *key)

    monkeypatch.setattr(experiments, "rng_for", counted)
    got = experiments._draws(model, 5, 64, "p_x")
    assert keys == [(5, ("noise", "p_x"))]
    assert _bytes(got) == _bytes(sample_noise(model, rng_for(5, "noise", "p_x"), 64))
    assert got.spectator_detuned.any()


@given(model=models, seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_block_matches_its_marginals(model, seed):
    trials = 4000
    batch = sample_noise(model, rng_for(seed), trials)
    for sigma, column in zip(_sigmas(model), _normals(batch)):
        if sigma == 0.0:
            assert not np.signbit(column).any() and not column.any()
            continue
        z = column / sigma
        assert abs(z.mean()) < 5 / math.sqrt(trials)
        # the sample variance of N(0, 1) has standard error sqrt(2 / (n - 1))
        assert abs(z.var(ddof=1) - 1.0) < 5 * math.sqrt(2 / (trials - 1))
    p = model.spectator_flip_prob
    fraction = batch.spectator_detuned.mean()
    assert abs(fraction - p) <= 5 * math.sqrt(p * (1 - p) / trials)


def test_a_column_does_not_depend_on_the_other_sigmas():
    lone = sample_noise(NoiseModel(sigma_iz=0.5), rng_for(9), 64)
    full = sample_noise(NOISE, rng_for(9), 64)
    assert lone.delta_iz.tobytes() == full.delta_iz.tobytes()
    assert np.array_equal(
        sample_noise(NoiseModel(spectator_flip_prob=0.3), rng_for(9), 64).spectator_detuned,
        full.spectator_detuned,
    )


def test_same_key_same_batch_other_key_other_batch():
    batch = experiments._draws(NOISE, 4, 50, "p_x")
    assert _bytes(batch) == _bytes(experiments._draws(NOISE, 4, 50, "p_x"))
    others = (
        experiments._draws(NOISE, 5, 50, "p_x"),
        experiments._draws(NOISE, 4, 50, "p_y"),
        experiments._draws(NOISE, 4, 50),
        # the "noise" key part keeps the batch off the s1 record's stream
        sample_noise(NOISE, rng_for(4, "p_x"), 50),
    )
    for other in others:
        for a, b in zip(_normals(batch), _normals(other)):
            assert not np.array_equal(a, b)


@pytest.mark.parametrize("trials", [10, 1000])
def test_a_driver_builds_one_generator_per_batch(trials, monkeypatch):
    keys = []

    def counted(seed, *key):
        keys.append((seed, key))
        return rng_for(seed, *key)

    monkeypatch.setattr(experiments, "rng_for", counted)
    experiments.run_ramsey([0.0, 200.0, 400.0], params=PARAMS,
                           noise=NoiseModel(sigma_iz=0.2), trials=trials, seed=3)
    assert keys == [(3, ("noise",))]


def test_draws_do_not_depend_on_the_sweep_order():
    taus = [0.0, 150.0, 400.0, 900.0]
    forward = experiments.run_ramsey(taus, params=PARAMS, noise=NOISE, trials=20, seed=6)
    backward = experiments.run_ramsey(taus[::-1], params=PARAMS, noise=NOISE, trials=20,
                                      seed=6)
    for name, column in forward.items():
        assert column.tobytes() == backward[name][::-1].tobytes(), name
