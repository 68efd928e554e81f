"""The engine's reuse paths against the work they replace: sweep points run
as stacks on the distinct draw rows (against one run_sequence per point on
every trial), the per-run free-evolution propagators, a Repeat's cycle
evaluated once (against the cycles written out) and the cached Bell
calibration."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_engine as ref
from test_batched_engine import FREQS, PARAMS, initial_states, noise_draws, sequences
from dotspin import engine, experiments
from dotspin.core import (NoiseBatch, NoiseDraw, NoiseModel, SpinSystemParams,
                          transition_frequencies)
from dotspin.engine import run_sequence, run_stack, stack_key
from dotspin.sequences import (
    ChargeEvent,
    FreeEvolution,
    MeasureElectron,
    MeasureNuclear,
    Pulse,
    PulseSequence,
    Repeat,
    Rotation,
    _validate,
    bell_circuit,
    repeated_load_sequence,
)

TOL = 1e-12


def _per_point_sweep(build, points, params, draws, kind, initial_state=None):
    """The reference for experiments._sweep: one run_sequence per point on
    every trial of the batch, then the trial-order mean."""
    out = []
    for point in points:
        res = run_sequence(build(point), params, draws, initial_state)
        probs = res.joint_probabilities() if kind == "joint" else res.last(kind)
        out.append(probs.sum(axis=0) / len(draws))
    return np.array(out)


@st.composite
def stacks(draw):
    """A random sequence and up to three copies of it with tones, Rabi
    rates, durations, phases, rotation angles and frame references
    redrawn, each value kept or changed at random."""
    base = draw(sequences(max_elements=6))

    def moved(x, lo, hi):
        return x if draw(st.booleans()) else x + draw(st.floats(lo, hi))

    seqs = [base]
    for _ in range(draw(st.integers(0, 3))):
        elements = []
        for el in base.elements:
            if isinstance(el, Pulse):
                el = replace(el, frequency=moved(el.frequency, -1e-3, 1e-3),
                             rabi=moved(el.rabi, 0.0, 0.4),
                             duration=moved(el.duration, 0.0, 5.0),
                             phase=moved(el.phase, 0.0, 360.0))
            elif isinstance(el, Rotation):
                el = replace(el, angle=moved(el.angle, 0.0, 360.0),
                             phase=moved(el.phase, 0.0, 360.0))
            elif isinstance(el, FreeEvolution) and el.duration > 0:
                el = replace(el, duration=moved(el.duration, 0.0, 100.0))
            elements.append(el)
        seqs.append(replace(base, elements=tuple(elements),
                            f_e_ref=moved(base.f_e_ref, -0.1, 0.1),
                            f_n_ref=moved(base.f_n_ref, -1e-3, 1e-3)))
    return seqs


@given(
    seqs=stacks(),
    pool=st.lists(noise_draws, min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    init=initial_states(),
    kind=st.sampled_from(("nuclear", "electron", "joint")),
)
@settings(max_examples=30, deadline=None)
def test_collapsed_sweep_equals_full_batch_and_reference(seqs, pool, picks, init, kind):
    seqs = [replace(s, elements=s.elements + (MeasureElectron(),)) for s in seqs]
    trial_draws = [pool[i % len(pool)] for i in picks]
    draws = NoiseBatch.stack(trial_draws)
    got = experiments._sweep(lambda s: s, seqs, PARAMS, draws, kind, init)
    assert np.array_equal(got, _per_point_sweep(lambda s: s, seqs, PARAMS, draws, kind, init))
    ones = [ref.run_sequence(seqs[0], PARAMS, d, init) for d in trial_draws]
    expected = np.mean([o.joint_probabilities() if kind == "joint" else o.last(kind)
                        for o in ones], axis=0)
    assert np.max(np.abs(got[0] - expected)) < TOL


@pytest.fixture
def engine_runs(monkeypatch):
    """(points, distinct draws) of every engine run the experiments make."""
    runs = []
    stack, single = experiments.run_stack, experiments.run_sequence

    def run_stack(seqs, params, noise, *args):
        runs.append((len(seqs), len(NoiseBatch.of(noise))))
        return stack(seqs, params, noise, *args)

    def run_sequence(seq, params, noise=NoiseDraw(), *args):
        runs.append((1, len(NoiseBatch.of(noise))))
        return single(seq, params, noise, *args)

    monkeypatch.setattr(experiments, "run_stack", run_stack)
    monkeypatch.setattr(experiments, "run_sequence", run_sequence)
    return runs


def _assert_equals_per_point_runs(experiment, monkeypatch):
    got = experiment().columns
    with monkeypatch.context() as m:
        m.setattr(experiments, "_sweep", _per_point_sweep)
        expected = experiment().columns
    assert got.keys() == expected.keys()
    for name in got:
        assert np.array_equal(got[name], expected[name]), name


NOISE = NoiseModel(sigma_iz=0.5, sigma_sz=20.0, spectator_flip_prob=0.3)


@pytest.mark.parametrize("charge_config, line", [("unloaded", "f_n0"),
                                                  ("qd1", "f_n_elec_down")])
def test_chevron_with_a_frame_per_frequency_equals_per_point_runs(
        charge_config, line, engine_runs, monkeypatch):
    freqs = transition_frequencies(PARAMS)[line] + np.linspace(-0.01, 0.01, 5)
    _assert_equals_per_point_runs(lambda: experiments.run_nmr_chevron(
        freqs, np.linspace(25.0, 1000.0, 4), PARAMS, noise=NOISE, trials=3,
        seed=2, charge_config=charge_config), monkeypatch)
    assert engine_runs[0][0] == 20  # the whole grid is one stack


def test_rabi_equals_per_point_runs(monkeypatch):
    _assert_equals_per_point_runs(lambda: experiments.run_rabi(
        np.linspace(25.0, 2000.0, 7), PARAMS, trials=2), monkeypatch)


@pytest.mark.parametrize("run", [experiments.run_ramsey, experiments.run_hahn])
@pytest.mark.parametrize("charge_config", ["unloaded", "qd1"])
def test_free_precession_equals_per_point_runs(run, charge_config, monkeypatch):
    _assert_equals_per_point_runs(lambda: run(
        [0.0, 10.0, 500.0, 3000.0], params=PARAMS, noise=NoiseModel(sigma_iz=0.0776),
        trials=5, seed=1, charge_config=charge_config,
    ), monkeypatch)


@pytest.mark.parametrize("vary", ["nuclear", "electron"])
def test_bell_parity_sweep_equals_per_point_runs(vary, engine_runs, monkeypatch):
    _assert_equals_per_point_runs(lambda: experiments.run_bell_parity_sweep(
        PARAMS, experiments.BellNoiseConfig(), phi_range=[0.0, 40.0, 90.0, 200.0],
        vary=vary, trials=4, seed=3), monkeypatch)
    assert engine_runs[-1] == (4, 4)


@pytest.mark.parametrize("variant, sweep", [
    ("phase", [0.0, 5.0, 20.0, 50.0]),  # t_load = 0 and = tau_0
    ("electron", [0.0, 90.0, 200.0]),
    ("repeated", [0, 1, 3]),
])
def test_shuttle_sweeps_equal_per_point_runs(variant, sweep, engine_runs, monkeypatch):
    _assert_equals_per_point_runs(lambda: experiments.run_shuttle_experiments(
        variant, sweep, PARAMS, noise=NoiseModel(sigma_iz=0.3, sigma_sz=10.0),
        trials=3, tau_0=50.0, p_err=0.1, p_transfer=0.3), monkeypatch)
    if variant == "repeated":  # per cycle count, one stack of the four phases
        assert engine_runs == [(4, 3)] * 3  # on the 3 rows of the shared batch


@pytest.mark.parametrize("points, sizes", [(4, [4]), (5, [4, 1]), (8, [4, 4]),
                                           (9, [4, 4, 1])])
def test_sweep_chunks_hold_at_most_stack_rows(points, sizes, engine_runs):
    trials = experiments.STACK_ROWS // 4
    draws = experiments._draws(NoiseModel(sigma_iz=0.3), 1, trials)
    taus = np.linspace(10.0, 500.0, points)

    def build(tau):
        return experiments.ramsey_sequence(PARAMS, tau, detuning_khz=2.0)

    got = experiments._sweep(build, taus, PARAMS, draws, "nuclear")
    assert [p for p, _ in engine_runs] == sizes
    assert np.array_equal(got, _per_point_sweep(build, taus, PARAMS, draws, "nuclear"))


@pytest.mark.parametrize("noise, trials", [
    (NoiseModel(), 3),
    (NoiseModel(sigma_ix=0.2, sigma_iz=0.5, sigma_sz=5.0, spectator_flip_prob=0.3), 4),
])
def test_repeated_shuttle_equals_one_sweep_per_phase(noise, trials, engine_runs):
    k = [0, 1, 2, 5]
    got = experiments.run_shuttle_experiments("repeated", k, PARAMS, noise=noise,
                                              trials=trials, seed=7, tau_0=80.0, p_err=0.1)
    # per k, one stack of the four phases on the batch's distinct rows
    assert engine_runs == [(4, 1 if not noise.sigma_iz else trials)] * len(k)
    draws = experiments._draws(noise, 7, trials)  # the phases project one state
    for name, phi in (("p_x", 0.0), ("p_mx", 180.0), ("p_y", 90.0), ("p_my", 270.0)):
        expected = experiments._sweep(  # the form with one sweep per final phase
            lambda c: repeated_load_sequence(PARAMS, c, 80.0, p_err=0.1, final_phase=phi),
            k, PARAMS, draws, "nuclear")[:, 1]
        assert np.array_equal(got.columns[name], expected), name


def test_distinct_draws_are_not_collapsed(engine_runs, monkeypatch):
    # equal values with different bits (a signed zero) are distinct rows
    draws = NoiseBatch.stack([NoiseDraw(delta_sz=0.0), NoiseDraw(delta_sz=-0.0),
                              NoiseDraw(delta_sz=0.0)])
    seq = experiments.ramsey_sequence(PARAMS, 100.0, charge_config="qd1")
    got = experiments._sweep(lambda s: s, [seq], PARAMS, draws, "nuclear")
    assert engine_runs == [(1, 2)]
    assert np.array_equal(got, _per_point_sweep(lambda s: s, [seq], PARAMS, draws, "nuclear"))
    # a spectator-only Bell basis: stratified flips, two distinct rows of 40
    calibration = experiments.calibrate_bell_projection(PARAMS)
    engine_runs.clear()

    def basis():
        return experiments._bell_basis_probabilities(
            "XX", PARAMS, experiments.BellNoiseConfig().only("spectator_nucleus"),
            calibration, trials=40, seed=0)

    got = basis()
    assert engine_runs == [(1, 2)]
    monkeypatch.setattr(experiments, "_sweep", _per_point_sweep)
    assert np.array_equal(got, basis())


def test_calibration_runs_each_coordinate_as_one_stack(engine_runs, monkeypatch):
    # the prefix once, then each coordinate's four candidates as one stack of
    # projection tails, and the final parity as a stack of one
    prefixes, tails = [], []
    resume = experiments._resume

    def counted(seq, params):
        prefixes.append(len(seq.elements))
        run_tails = resume(seq, params)
        return lambda elements: tails.append(len(elements)) or run_tails(elements)

    monkeypatch.setattr(experiments, "_resume", counted)
    got = experiments._calibrated_projection.__wrapped__(PARAMS, 1.05)
    assert prefixes == [4]
    assert tails == [4] * 12 + [1]
    assert engine_runs == []  # nothing through run_stack or run_sequence
    assert got == ref.calibrate_bell_projection(PARAMS, 1.05, _per_point_sweep)


@pytest.mark.parametrize("params", [PARAMS, SpinSystemParams(a_hf=-300.0),
                                    SpinSystemParams(b_ext=0.9)])
@pytest.mark.parametrize("duration_scale", [1.0, 1.05, 0.9])
def test_calibration_equals_its_whole_circuit_oracle(params, duration_scale):
    got = experiments._calibrated_projection.__wrapped__(params, duration_scale)
    assert got == ref.calibrate_bell_projection(params, duration_scale, experiments._sweep)


def _noiseless_parity(phases, duration_scale):
    seq = bell_circuit(PARAMS, projection=((phases[2], phases[3]), (phases[0], phases[1])),
                       duration_scale=duration_scale)
    p = run_sequence(seq, PARAMS).joint_probabilities()
    return p[0] + p[3] - p[1] - p[2]


@given(duration_scale=st.sampled_from((0.9, 1.0, 1.05)), offset=st.floats(-180.0, 180.0))
@settings(max_examples=20, deadline=None)
def test_calibration_maximises_its_last_phase(duration_scale, offset):
    # the reported parity is the whole circuit's; no shift of phi_n_up, the
    # phase swept last, raises it. (The earlier phases stop short of their
    # optimum: shifting phi_e_up by -3.5 degrees at duration_scale 1.05
    # raises the parity by 4.4e-4.)
    cal = experiments.calibrate_bell_projection(PARAMS, duration_scale)
    phases = np.array([*cal["phi_e"], *cal["phi_n"]])
    assert _noiseless_parity(phases, duration_scale) == cal["parity"]
    phases[3] += offset
    assert _noiseless_parity(phases, duration_scale) <= cal["parity"] + 1e-12


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
    # propagator each within a run; the prefixes cut the written-out cycles
    seq = repeated_load_sequence(PARAMS, k, tau_0, p_err=p_err, final_phase=phase)
    batch = NoiseBatch.stack(draws)
    _assert_records_match_reference(run_sequence(seq, PARAMS, batch), seq, draws)
    elements = ref.unroll(seq.elements)
    for n in range(1, len(elements) + 1):
        prefix = replace(seq, elements=elements[:n] + (MeasureNuclear(),))
        got = run_sequence(prefix, PARAMS, batch)
        for i, d in enumerate(draws):
            one = ref.run_sequence(prefix, PARAMS, d)
            assert np.max(np.abs(got.rho[i] - one.state.density_matrix())) < TOL
            assert np.max(np.abs(got.last("nuclear")[i] - one.last("nuclear"))) < TOL


def _assert_records_match_reference(got, seq, draws):
    for i, d in enumerate(draws):
        one = ref.run_sequence(seq, PARAMS, d)
        assert np.max(np.abs(got.rho[i] - one.state.density_matrix())) < TOL
        assert np.max(np.abs(got.last("nuclear")[i] - one.last("nuclear"))) < TOL


#: Charge events that take a timeline from one config (first) to another.
_HOME = {("unloaded", "qd1"): ("load_down",), ("unloaded", "qd2"): ("load_down", "shuttle_1_to_2"),
         ("qd1", "unloaded"): ("unload",), ("qd2", "unloaded"): ("unload",),
         ("qd1", "qd2"): ("shuttle_1_to_2",), ("qd2", "qd1"): ("shuttle_2_to_1",)}


def _twins(seq, count):
    """seq's elements, closed by charge events back to its initial config,
    as one Repeat and written out count times, each followed by both
    measurements."""
    end = _validate(seq.elements, seq.initial_config)
    cycle = seq.elements + tuple(ChargeEvent(kind) for kind in
                                 _HOME.get((end, seq.initial_config), ()))
    tail = (MeasureNuclear(), MeasureElectron())
    return (replace(seq, elements=(Repeat(cycle, count),) + tail),
            replace(seq, elements=cycle * count + tail))


def _groups(seqs) -> list:
    """Each sequence's first sequence with the same stack_key."""
    keys = [stack_key(seq) for seq in seqs]
    return [keys.index(key) for key in keys]


def _assert_bitwise_equal(a, b):
    assert np.array_equal(a.rho, b.rho)
    assert [kind for kind, _ in a.records] == [kind for kind, _ in b.records]
    for (_, p), (_, q) in zip(a.records, b.records):
        assert np.array_equal(p, q)


@given(
    seqs=stacks(),
    count=st.integers(1, 4),
    draws=st.lists(noise_draws, min_size=1, max_size=3),
    ix=st.booleans(),
    init=initial_states(),
)
@settings(max_examples=30, deadline=None)
def test_repeat_equals_its_written_out_cycles(seqs, count, draws, ix, init):
    # random pulses, rotations, free evolutions, charge events (pure and
    # mixed runs) and measurements in the cycle; a lone run and a stack of
    # up to four points, with and without I_x noise
    batch = NoiseBatch.stack([d if ix else replace(d, delta_ix=0.0) for d in draws])
    repeated, written = zip(*(_twins(seq, count) for seq in seqs))
    # stack_key groups the points as it groups their written-out twins
    assert _groups(repeated) == _groups(written)
    stack = [i for i, first in enumerate(_groups(repeated)) if first == 0]
    _assert_bitwise_equal(run_sequence(repeated[0], PARAMS, batch, init),
                          run_sequence(written[0], PARAMS, batch, init))
    _assert_bitwise_equal(run_stack([repeated[i] for i in stack], PARAMS, batch, init),
                          run_stack([written[i] for i in stack], PARAMS, batch, init))


@given(seqs=stacks(), cut=st.integers(0, 7))
# an off-frame tail pulse after a superposition and an idle: its drive phase
# reads the time the prefix leaves
@example(seqs=[PulseSequence(
    elements=(Rotation("NMR", 90.0, 0.0), FreeEvolution(100.0, "unloaded"),
              Pulse("NMR", FREQS["f_n0"] + 0.002, 2.0, 50.0, 0.0), MeasureNuclear()),
    f_e_ref=FREQS["f_e0"], f_n_ref=FREQS["f_n0"], initial_config="unloaded")], cut=2)
@settings(max_examples=30, deadline=None)
def test_resumed_tails_equal_their_whole_sequences(seqs, cut):
    # one noiseless run of a shared prefix from the ground state (its
    # measurements included), then two stacks of tails from the state it
    # leaves, against run_stack of the whole sequences
    base = seqs[0]
    prefix = replace(base, elements=base.elements[:cut])
    tails = [seq.elements[cut:] for seq in seqs]
    resume = engine._resume(prefix, PARAMS)
    for stack in (tails, tails[:1]):
        whole = [replace(base, elements=prefix.elements + tail) for tail in stack]
        _assert_bitwise_equal(resume(stack), run_stack(whole, PARAMS))


@given(
    k=st.integers(1, 6),
    tau_0=st.lists(st.floats(1.0, 2000.0), min_size=4, max_size=4),
    p_err=st.sampled_from((0.0, 0.2)),
    draws=st.lists(noise_draws, min_size=1, max_size=3),
    ix=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_repeated_load_stack_equals_its_written_out_twin(k, tau_0, p_err, draws, ix):
    # four points of one k, each with its own dwell and final phase
    batch = NoiseBatch.stack([d if ix else replace(d, delta_ix=0.0) for d in draws])
    seqs = [repeated_load_sequence(PARAMS, k, t, p_err=p_err, final_phase=90.0 * i)
            for i, t in enumerate(tau_0)]
    written = [replace(seq, elements=ref.unroll(seq.elements)) for seq in seqs]
    _assert_bitwise_equal(run_stack(seqs, PARAMS, batch), run_stack(written, PARAMS, batch))


@pytest.mark.parametrize("p_err", [0.0, 0.1])
def test_chunked_repeated_sweep_equals_its_written_out_twin(p_err, engine_runs):
    # above STACK_ROWS // 4 trials the four phases of one k run as 3 + 1
    # points, on the eigh path of I_x noise
    trials = experiments.STACK_ROWS // 4 + 44
    draws = experiments._draws(NoiseModel(sigma_ix=0.2, sigma_iz=0.3), 1, trials)
    points = [(phi, k) for phi in (0.0, 90.0, 180.0, 270.0) for k in (0, 2, 5)]

    def build(point):
        return repeated_load_sequence(PARAMS, point[1], 60.0, p_err=p_err,
                                      final_phase=point[0])

    got = experiments._sweep(build, points, PARAMS, draws, "nuclear")
    assert [p for p, _ in engine_runs] == [3, 1] * 3
    written = experiments._sweep(
        lambda point: replace(build(point), elements=ref.unroll(build(point).elements)),
        points, PARAMS, draws, "nuclear")
    assert np.array_equal(got, written)


@pytest.mark.parametrize("k", [1, 3, 40])
def test_repeat_evaluates_its_cycle_once(k, monkeypatch):
    # the frame, two rotations and the cycle's two free evolutions, whatever
    # the number of cycles
    calls = []
    columns = engine._columns
    monkeypatch.setattr(engine, "_columns",
                        lambda items, names: calls.append(names) or columns(items, names))
    experiments.run_shuttle_experiments("repeated", [k], PARAMS, tau_0=80.0, p_err=0.1)
    assert len(calls) == 5


def test_cached_calibration_returns_equal_distinct_dicts():
    a = experiments.calibrate_bell_projection(PARAMS, 1.05)
    b = experiments.calibrate_bell_projection(PARAMS, 1.05)
    assert a == b and a is not b
    a["phi_e"] = None
    assert experiments.calibrate_bell_projection(PARAMS, 1.05) == b
    # the cache holds exactly what an uncached calibration computes
    uncached = experiments._calibrated_projection.__wrapped__(PARAMS, 1.05)
    assert uncached == b
