"""The engine's reuse paths against the work they replace: sweeps built as
stacked sequences (against the lone sequences of their points), their points
run as stacks on the distinct draw rows (against one run_sequence per point
on every trial), the per-run free-evolution propagators, a Repeat's cycle
evaluated once (against the cycles written out) and the cached Bell
calibration."""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_engine as ref
from test_batched_engine import FREQS, PARAMS, initial_states, noise_draws, sequences
from dotspin import engine, experiments
from dotspin.core import (NoiseBatch, NoiseDraw, NoiseModel, SpinSystemParams,
                          transition_frequencies)
from dotspin.engine import run_sequence, run_stack
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
    electron_shuttle_ramsey,
    hahn_sequence,
    point,
    ramsey_sequence,
    repeated_load_sequence,
    shuttle_ramsey_sequence,
    stacked_points,
)

TOL = 1e-12


@st.composite
def stacks(draw):
    """A random sequence and up to three copies of it with tones, Rabi
    rates, durations, phases, rotation angles and frame references
    redrawn, each value kept or changed at random, a non-zero free
    evolution sometimes to zero and a pulse sometimes onto its frame
    reference, so that the copies may differ in structure."""
    base = draw(sequences(max_elements=6))

    def moved(x, lo, hi):
        return x if draw(st.booleans()) else x + draw(st.floats(lo, hi))

    seqs = [base]
    for _ in range(draw(st.integers(0, 3))):
        f_e_ref = moved(base.f_e_ref, -0.1, 0.1)
        f_n_ref = moved(base.f_n_ref, -1e-3, 1e-3)
        elements = []
        for el in base.elements:
            if isinstance(el, Pulse):
                on_frame = f_e_ref if el.channel == "ESR" else f_n_ref
                el = replace(el, frequency=(on_frame if draw(st.integers(0, 3)) == 0
                                            else moved(el.frequency, -1e-3, 1e-3)),
                             rabi=moved(el.rabi, 0.0, 0.4),
                             duration=moved(el.duration, 0.0, 5.0),
                             phase=moved(el.phase, 0.0, 360.0))
            elif isinstance(el, Rotation):
                el = replace(el, angle=moved(el.angle, 0.0, 360.0),
                             phase=moved(el.phase, 0.0, 360.0))
            elif isinstance(el, FreeEvolution) and el.duration > 0:
                el = replace(el, duration=(0.0 if draw(st.integers(0, 3)) == 0
                                           else moved(el.duration, 0.0, 100.0)))
            elements.append(el)
        seqs.append(replace(base, elements=tuple(elements), f_e_ref=f_e_ref,
                            f_n_ref=f_n_ref))
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
    got = experiments._sweep([ref.stack(seqs)], PARAMS, draws, kind, init)
    assert got.tobytes() == ref.per_point_sweep(seqs, PARAMS, draws, kind, init).tobytes()
    ones = [ref.run_sequence(seqs[0], PARAMS, d, init) for d in trial_draws]
    expected = np.mean([o.joint_probabilities() if kind == "joint" else o.last(kind)
                        for o in ones], axis=0)
    assert np.max(np.abs(got[0] - expected)) < TOL


@pytest.fixture
def engine_runs(monkeypatch):
    """(points, distinct draws) of every engine run the experiments make."""
    runs = []
    stack, single = experiments.run_stack, experiments.run_sequence

    def run_stack(seq, params, noise, initial_state=None, rows=None):
        runs.append((seq.points if rows is None else len(rows), len(NoiseBatch.of(noise))))
        return stack(seq, params, noise, initial_state, rows)

    def run_sequence(seq, params, noise=NoiseDraw(), *args):
        runs.append((1, len(NoiseBatch.of(noise))))
        return single(seq, params, noise, *args)

    monkeypatch.setattr(experiments, "run_stack", run_stack)
    monkeypatch.setattr(experiments, "run_sequence", run_sequence)
    return runs


def _assert_equals_per_point_runs(experiment, monkeypatch):
    got = experiment().columns
    with monkeypatch.context() as m:
        m.setattr(experiments, "_sweep", ref.per_point_sweep)
        expected = experiment().columns
    assert got.keys() == expected.keys()
    for name in got:  # bytes, so that a signed zero counts as the CSV writes it
        assert got[name].tobytes() == expected[name].tobytes(), name


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
    if variant == "repeated":  # k = 0, then k = 1 and 3 as one stack of 2 x 4 phases
        assert engine_runs == [(4, 3), (8, 3)]  # on the 3 rows of the shared batch


def _bits(x):
    """x as nested tuples, each float as its 8 bytes, so that equal values
    of different bits (0.0 and -0.0) or types (float and np.float64)
    compare as their bits do."""
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if is_dataclass(x):
        return (type(x), *(_bits(getattr(x, f.name)) for f in fields(x)))
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes()
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    return x


def _column(draw, points, values, zero=None):
    """A length-points array of values, one entry sometimes set to zero."""
    column = np.array(draw(st.lists(values, min_size=points, max_size=points)))
    if zero is not None and draw(st.booleans()):
        column[draw(st.integers(0, points - 1))] = zero
    return column


@st.composite
def stacked_builds(draw):
    """(stacked, lone): a builder called with arrays of P values, and the
    same builder called at each point with its float values (a cycle count
    with its int)."""
    p = draw(st.integers(1, 4))
    phase = st.floats(-360.0, 360.0)
    kind = draw(st.sampled_from(("bell", "ramsey", "hahn", "shuttle_ramsey",
                                 "repeated_load", "electron_shuttle", "chevron")))
    if kind == "bell":
        phases = [_column(draw, p, phase) for _ in range(4)]
        scale = draw(st.sampled_from((0.9, 1.0, 1.05)))

        def build(a, b, c, d):
            return bell_circuit(PARAMS, projection=((a, b), (c, d)), duration_scale=scale)

        columns = phases
    elif kind in ("ramsey", "hahn"):
        make = ramsey_sequence if kind == "ramsey" else hahn_sequence
        config = draw(st.sampled_from(("unloaded", "qd1")))
        columns = [_column(draw, p, st.floats(0.0, 5000.0), zero=0.0),
                   _column(draw, p, st.floats(-5.0, 5.0))]

        def build(tau, detuning):
            return make(PARAMS, tau, detuning_khz=detuning, charge_config=config)
    elif kind == "shuttle_ramsey":
        tau_0 = draw(st.floats(1.0, 1000.0))
        t_load = _column(draw, p, st.floats(0.0, tau_0), zero=0.0)
        t_load[draw(st.integers(0, p - 1))] = draw(st.sampled_from((0.0, tau_0)))
        p_err = draw(st.sampled_from((0.0, 0.1)))
        columns = [t_load]

        def build(t):
            return shuttle_ramsey_sequence(PARAMS, t, tau_0, p_err=p_err)
    elif kind == "repeated_load":
        k = draw(st.integers(0, 4))
        columns = [_column(draw, p, st.floats(1.0, 2000.0)), _column(draw, p, phase)]
        if k and draw(st.booleans()):  # the cycle counts a column too
            columns.append(_column(draw, p, st.integers(1, 4)))

        def build(tau_0, final, count=k):
            count = count if isinstance(count, np.ndarray) else int(count)
            return repeated_load_sequence(PARAMS, count, tau_0, p_err=0.1, final_phase=final)
    elif kind == "electron_shuttle":
        columns = [_column(draw, p, phase)]

        def build(final):
            return electron_shuttle_ramsey(PARAMS, final_phase=final, p_transfer=0.3)
    else:
        columns = [FREQS["f_n0"] + _column(draw, p, st.floats(-0.02, 0.02)),
                   _column(draw, p, st.floats(0.0, 5.0)),
                   _column(draw, p, st.floats(1.0, 1000.0)), _column(draw, p, phase)]

        def build(freq, rabi, dur, phi):
            return PulseSequence((Pulse("NMR", freq, rabi, dur, phi), MeasureNuclear()),
                                 f_e_ref=FREQS["f_e0"], f_n_ref=freq)

    return build(*columns), [build(*(float(c[i]) for c in columns)) for i in range(p)]


@given(case=stacked_builds())
@settings(max_examples=60, deadline=None)
def test_stacked_builds_unstack_to_their_lone_builds(case):
    # every builder, and the chevron's pulse, called with arrays gives the
    # lone sequences of its points, bit for bit, through unstack and point
    stacked, lone = case
    assert stacked.points == len(lone)
    assert _bits(ref.unstack(stacked)) == _bits(lone)
    assert _bits([point(stacked, i) for i in range(len(lone))]) == _bits(lone)


def _drivers(draw):
    """One driver call on hypothesis-drawn sweeps, zero taus, t_load = 0
    and tau_0 and k = 0 among them, on a noisy or an all-zero model."""
    noise = draw(st.sampled_from((NoiseModel(), NoiseModel(sigma_iz=0.3, sigma_sz=8.0),
                                  NoiseModel(sigma_ix=0.2, spectator_flip_prob=0.3))))
    trials, seed = draw(st.integers(1, 3)), draw(st.integers(0, 9))
    common = {"noise": noise, "trials": trials, "seed": seed}
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("chevron", "rabi", "ramsey", "hahn", "bell",
                                 "phase", "electron", "repeated")))
    if kind in ("chevron", "rabi"):
        config = draw(st.sampled_from(("unloaded", "qd1")))
        durs = _column(draw, n, st.floats(1.0, 800.0))
        if kind == "rabi":
            return lambda: experiments.run_rabi(durs, PARAMS, charge_config=config, **common)
        freqs = FREQS["f_n0"] + _column(draw, draw(st.integers(1, 3)),
                                        st.floats(-0.02, 0.02), zero=0.0)
        return lambda: experiments.run_nmr_chevron(freqs, durs, PARAMS,
                                                   charge_config=config, **common)
    if kind in ("ramsey", "hahn"):
        taus = _column(draw, n, st.floats(0.0, 3000.0), zero=0.0)
        run = getattr(experiments, f"run_{kind}")
        config = draw(st.sampled_from(("unloaded", "qd1")))
        return lambda: run(taus, detuning_khz=1.5, params=PARAMS,
                           charge_config=config, **common)
    if kind == "bell":
        phis = _column(draw, n, st.floats(0.0, 360.0))
        vary = draw(st.sampled_from(("nuclear", "electron")))
        return lambda: experiments.run_bell_parity_sweep(
            PARAMS, experiments.BellNoiseConfig(), phi_range=phis, vary=vary,
            trials=trials, seed=seed)
    tau_0 = 50.0
    sweep = {"phase": _column(draw, n, st.floats(0.0, tau_0), zero=0.0),
             "electron": _column(draw, n, st.floats(0.0, 360.0)),
             "repeated": _column(draw, n, st.integers(0, 4), zero=0)}[kind]
    if kind == "phase":
        sweep[-1] = draw(st.sampled_from((sweep[-1], tau_0)))
    return lambda: experiments.run_shuttle_experiments(
        kind, sweep, PARAMS, tau_0=tau_0, p_err=0.1, p_transfer=0.3, **common)


@given(seqs=stacks(), draws=st.lists(noise_draws, min_size=1, max_size=2),
       init=initial_states())
@settings(max_examples=30, deadline=None)
def test_any_stack_runs_each_point_as_alone_to_the_bit(seqs, draws, init):
    # points of different structure in one run_stack (a zero wait beside a
    # non-zero one, a pulse on and off its frame) equal their lone runs to
    # the bit, signed zeros included
    batch = NoiseBatch.stack(draws)
    res = run_stack(ref.stack(seqs), PARAMS, batch, init)
    for i, seq in enumerate(seqs):
        lone = run_sequence(seq, PARAMS, batch, init)
        assert res.rho[i].tobytes() == lone.rho.tobytes()
        for (_, p), (_, q) in zip(res.records, lone.records, strict=True):
            assert p[i].tobytes() == q.tobytes()


@given(
    counts=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    tau_0=st.lists(st.one_of(st.floats(1.0, 2000.0), st.just(0.0)), min_size=6, max_size=6),
    final=st.lists(st.floats(-360.0, 360.0), min_size=6, max_size=6),
    p_err=st.sampled_from((0.0, 0.1)),
    draws=st.lists(noise_draws, min_size=1, max_size=3),
    ix=st.booleans(),
)
# 4d's shape, noiseless: unsorted counts, duplicates and a unique maximum
@example(counts=[3, 1, 6, 3, 1, 2], tau_0=[500.0] * 6, final=[0.0, 180.0, 90.0, 270.0, 0.0, 90.0],
         p_err=0.1, draws=[NoiseDraw()], ix=False)
# a repeated maximum
@example(counts=[4, 2, 4, 1], tau_0=[60.0, 700.0, 3.0, 60.0, 1.0, 1.0], final=[90.0] * 6,
         p_err=0.1, draws=[NoiseDraw(delta_iz=0.3, delta_sz=5.0)], ix=False)
# the cycle's wait column holds a zero beside non-zero waits
@example(counts=[2, 5, 3, 2], tau_0=[100.0, 0.0, 7.0, 0.0, 1.0, 1.0],
         final=[0.0, 45.0, -90.0, 180.0, 0.0, 0.0], p_err=0.0,
         draws=[NoiseDraw(delta_iz=0.3, delta_ix=0.2), NoiseDraw(delta_iz=-0.1)], ix=True)
@settings(max_examples=40, deadline=None)
def test_count_column_runs_each_point_as_alone_to_the_bit(counts, tau_0, final, p_err, draws,
                                                          ix):
    # each point of a repeated-load stack whose cycle count, dwell (zero
    # among them) and final phase are columns, under I_x, I_z, S_z and
    # spectator noise, equals the lone run_sequence of its point, signed
    # zeros included; the stack keeps its points' states once per distinct
    # count, after the cycle that ends them
    n = len(counts)
    seq = repeated_load_sequence(PARAMS, np.array(counts), np.array(tau_0[:n]), p_err=p_err,
                                 final_phase=np.array(final[:n]))
    batch = NoiseBatch.stack([d if ix else replace(d, delta_ix=0.0) for d in draws])
    merges = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_keep", lambda *a, keep=engine._keep: merges.append(1) or keep(*a))
        res = run_stack(seq, PARAMS, batch)
    assert len(merges) == len(set(counts))
    for i in range(n):
        lone = run_sequence(point(seq, i), PARAMS, batch)
        assert point(seq, i).elements[1].count == counts[i]
        assert _bits([res.rho[i], *(p[i] for _, p in res.records)]) == _bits(
            [lone.rho, *(p for _, p in lone.records)])


@given(
    ks=st.lists(st.integers(0, 6), min_size=1, max_size=5),
    noise=st.sampled_from((NoiseModel(), NoiseModel(sigma_ix=0.2),
                           NoiseModel(sigma_iz=0.4, spectator_flip_prob=0.4))),
    trials=st.integers(1, 3),
    p_err=st.sampled_from((0.0, 0.1)),
    stack_rows=st.sampled_from((1, 3, 5, 6, experiments.STACK_ROWS)),
)
@settings(max_examples=40, deadline=None)
def test_repeated_shuttle_chunks_across_counts_equal_per_point_runs(ks, noise, trials, p_err,
                                                                    stack_rows):
    # chunks of a few points of the one stacked sequence of every k >= 1
    # cross from one cycle count to the next; k = 0 may stand anywhere
    with pytest.MonkeyPatch.context() as m:
        m.setattr(experiments, "STACK_ROWS", stack_rows)
        _assert_equals_per_point_runs(lambda: experiments.run_shuttle_experiments(
            "repeated", ks, PARAMS, noise=noise, trials=trials, seed=4, tau_0=60.0,
            p_err=p_err), m)


def test_noiseless_chevron_runs_as_one_stack_at_any_trial_count(engine_runs, monkeypatch):
    # one distinct row: 441 points x 1 row is one run, though 441 points x 20
    # trials exceed STACK_ROWS
    freqs = FREQS["f_n0"] + np.linspace(-0.01, 0.01, 21)
    _assert_equals_per_point_runs(lambda: experiments.run_nmr_chevron(
        freqs, np.linspace(10.0, 1000.0, 21), PARAMS, trials=20), monkeypatch)
    assert engine_runs == [(441, 1)]


def test_count_column_of_equal_entries_runs_as_its_int():
    # its points take the measurement in the cycle as often as their lone runs
    cycle = (Rotation("NMR", np.array([30.0, 50.0])), FreeEvolution(np.array([5.0, 7.0])),
             MeasureNuclear())
    seq = PulseSequence((Repeat(cycle, np.array([3, 3])), MeasureElectron()),
                        FREQS["f_e0"], FREQS["f_n0"])
    batch = NoiseBatch.stack([NoiseDraw(delta_iz=0.3), NoiseDraw(delta_ix=0.1)])
    res = run_stack(seq, PARAMS, batch)
    assert [kind for kind, _ in res.records] == ["nuclear"] * 3 + ["electron"]
    for i in range(2):
        lone = run_sequence(point(seq, i), PARAMS, batch)
        assert _bits([res.rho[i], *(p[i] for _, p in res.records)]) == _bits(
            [lone.rho, *(p for _, p in lone.records)])


def test_run_sequence_refuses_a_stack_of_several_points():
    seq = experiments.ramsey_sequence(PARAMS, np.array([10.0, 20.0]))
    with pytest.raises(ValueError, match="run_sequence runs one point, got 2"):
        run_sequence(seq, PARAMS)
    lone = run_sequence(experiments.ramsey_sequence(PARAMS, np.array([10.0])), PARAMS)
    assert np.array_equal(lone.rho, run_sequence(ramsey_sequence(PARAMS, 10.0), PARAMS).rho)


@given(data=st.data(), stack_rows=st.sampled_from((1, 3, experiments.STACK_ROWS)))
@settings(max_examples=60, deadline=None)
def test_every_driver_equals_its_per_point_oracle(data, stack_rows):
    # a small STACK_ROWS splits the stacks into chunks of a few points, and
    # of one, which runs the lone sequence of its point
    experiment = _drivers(data.draw)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(experiments, "STACK_ROWS", stack_rows)
        _assert_equals_per_point_runs(experiment, m)


@pytest.mark.parametrize("points, sizes", [(4, [4]), (5, [4, 1]), (8, [4, 4]),
                                           (9, [4, 4, 1])])
def test_sweep_chunks_hold_at_most_stack_rows(points, sizes, engine_runs):
    trials = experiments.STACK_ROWS // 4
    draws = experiments._draws(NoiseModel(sigma_iz=0.3), 1, trials)
    taus = np.linspace(10.0, 500.0, points)

    seqs = [experiments.ramsey_sequence(PARAMS, taus, detuning_khz=2.0)]
    got = experiments._sweep(seqs, PARAMS, draws, "nuclear")
    assert [p for p, _ in engine_runs] == sizes
    assert np.array_equal(got, ref.per_point_sweep(seqs, PARAMS, draws, "nuclear"))


@pytest.mark.parametrize("noise, trials", [
    (NoiseModel(), 3),
    (NoiseModel(sigma_ix=0.2, sigma_iz=0.5, sigma_sz=5.0, spectator_flip_prob=0.3), 4),
])
def test_repeated_shuttle_equals_one_sweep_per_phase(noise, trials, engine_runs):
    k = [0, 1, 2, 5]
    got = experiments.run_shuttle_experiments("repeated", k, PARAMS, noise=noise,
                                              trials=trials, seed=7, tau_0=80.0, p_err=0.1)
    # k = 0's four phases, then the four phases of every k >= 1 as one stack,
    # on the batch's distinct rows
    rows = 1 if not noise.sigma_iz else trials
    assert engine_runs == [(4, rows), (4 * (len(k) - 1), rows)]
    draws = experiments._draws(noise, 7, trials)  # the phases project one state
    for name, phi in (("p_x", 0.0), ("p_mx", 180.0), ("p_y", 90.0), ("p_my", 270.0)):
        expected = experiments._sweep(  # the form with one sweep per final phase
            [repeated_load_sequence(PARAMS, c, 80.0, p_err=0.1, final_phase=phi) for c in k],
            PARAMS, draws, "nuclear")[:, 1]
        assert np.array_equal(got.columns[name], expected), name


def test_distinct_draws_are_not_collapsed(engine_runs, monkeypatch):
    # equal values with different bits (a signed zero) are distinct rows
    draws = NoiseBatch.stack([NoiseDraw(delta_sz=0.0), NoiseDraw(delta_sz=-0.0),
                              NoiseDraw(delta_sz=0.0)])
    seq = experiments.ramsey_sequence(PARAMS, 100.0, charge_config="qd1")
    got = experiments._sweep([seq], PARAMS, draws, "nuclear")
    assert engine_runs == [(1, 2)]
    assert np.array_equal(got, ref.per_point_sweep([seq], PARAMS, draws, "nuclear"))
    # a spectator-only Bell basis: stratified flips, two distinct rows of 40
    calibration = experiments.calibrate_bell_projection(PARAMS)
    engine_runs.clear()

    def basis():
        return experiments._bell_basis_probabilities(
            "XX", PARAMS, experiments.BellNoiseConfig().only("spectator_nucleus"),
            calibration, trials=40, seed=0)

    got = basis()
    assert engine_runs == [(1, 2)]
    monkeypatch.setattr(experiments, "_sweep", ref.per_point_sweep)
    assert np.array_equal(got, basis())


def test_calibration_runs_each_coordinate_as_one_stack(engine_runs, monkeypatch):
    # the prefix once, then each coordinate's four candidates as one stacked
    # tail of projection pulses, and the final parity as a lone tail
    prefixes, tails = [], []
    resume = experiments._resume

    def counted(seq, params):
        prefixes.append(len(seq.elements))
        run_tail = resume(seq, params)
        return lambda elements: tails.append(stacked_points(elements)) or run_tail(elements)

    monkeypatch.setattr(experiments, "_resume", counted)
    got = experiments._calibrated_projection.__wrapped__(PARAMS, 1.05)
    assert prefixes == [4]
    assert tails == [4] * 12 + [None]
    assert engine_runs == []  # nothing through run_stack or run_sequence
    assert got == ref.calibrate_bell_projection(PARAMS, 1.05, ref.per_point_sweep)


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
    _assert_bitwise_equal(run_sequence(repeated[0], PARAMS, batch, init),
                          run_sequence(written[0], PARAMS, batch, init))
    _assert_bitwise_equal(run_stack(ref.stack(repeated), PARAMS, batch, init),
                          run_stack(ref.stack(written), PARAMS, batch, init))


@given(
    seqs=stacks(),
    counts=st.lists(st.integers(1, 4), min_size=4, max_size=4),
    draws=st.lists(noise_draws, min_size=1, max_size=2),
    init=initial_states(),
)
@settings(max_examples=30, deadline=None)
def test_points_whose_count_ran_out_keep_their_state_and_time(seqs, counts, draws, init):
    # random cycles (measurements taken out) run a different count at each
    # point, then once more written out, so a pulse after the Repeat reads
    # the sequence time that each point's own count left
    def build(seq, count):
        repeated, _ = _twins(seq, count)
        (cycle,) = (el for el in repeated.elements if isinstance(el, Repeat))
        kept = tuple(el for el in cycle.elements
                     if not isinstance(el, (MeasureNuclear, MeasureElectron)))
        return replace(repeated, elements=(Repeat(kept, count),) + kept
                       + repeated.elements[1:])

    lone = [build(seq, count) for seq, count in zip(seqs, counts)]
    batch = NoiseBatch.stack(draws)
    res = run_stack(ref.stack(lone), PARAMS, batch, init)
    for i, seq in enumerate(lone):
        alone = run_sequence(seq, PARAMS, batch, init)
        assert _bits([res.rho[i], *(p[i] for _, p in res.records)]) == _bits(
            [alone.rho, *(p for _, p in alone.records)])


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
    # measurements included), then two stacked tails from the state it
    # leaves, against run_stack of the prefix followed by each tail
    base = seqs[0]
    prefix = replace(base, elements=base.elements[:cut])
    resume = engine._resume(prefix, PARAMS)
    for group in (seqs, seqs[:1]):
        tail = ref.stack(group).elements[cut:]
        whole = replace(base, elements=prefix.elements + tail)
        _assert_bitwise_equal(resume(tail), run_stack(whole, PARAMS))


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
    seq = repeated_load_sequence(PARAMS, k, np.array(tau_0), p_err=p_err,
                                 final_phase=90.0 * np.arange(4))
    written = replace(seq, elements=ref.unroll(seq.elements))
    _assert_bitwise_equal(run_stack(seq, PARAMS, batch), run_stack(written, PARAMS, batch))


@pytest.mark.parametrize("p_err", [0.0, 0.1])
def test_chunked_repeated_sweep_equals_its_written_out_twin(p_err, engine_runs):
    # above STACK_ROWS // 4 trials the four phases of one k run as 3 + 1
    # points, on the eigh path of I_x noise
    trials = experiments.STACK_ROWS // 4 + 44
    draws = experiments._draws(NoiseModel(sigma_ix=0.2, sigma_iz=0.3), 1, trials)
    seqs = [repeated_load_sequence(PARAMS, k, 60.0, p_err=p_err,
                                   final_phase=np.array([0.0, 90.0, 180.0, 270.0]))
            for k in (0, 2, 5)]
    got = experiments._sweep(seqs, PARAMS, draws, "nuclear")
    assert [p for p, _ in engine_runs] == [3, 1] * 3
    written = experiments._sweep(
        [replace(seq, elements=ref.unroll(seq.elements)) for seq in seqs],
        PARAMS, draws, "nuclear")
    assert np.array_equal(got, written)


@pytest.mark.parametrize("k", [1, 3, 40])
def test_repeat_evaluates_its_cycle_once(k, monkeypatch):
    # the frame, two rotations, the Repeat's count and the cycle's two free
    # evolutions, whatever the number of cycles
    calls = []
    columns = engine._columns
    monkeypatch.setattr(engine, "_columns",
                        lambda item, names, rows: calls.append(names) or columns(item, names, rows))
    experiments.run_shuttle_experiments("repeated", [k], PARAMS, tau_0=80.0, p_err=0.1)
    assert len(calls) == 6


def test_repeat_keeps_each_count_once(monkeypatch):
    # Fig. 4d's k = 0, 10, ..., 100: one stack of the ten counts >= 1 runs
    # 100 cycles and keeps its points' states ten times, once per count
    merges, cycles, propagate = [], [], engine._propagate
    monkeypatch.setattr(engine, "_keep", lambda *a, keep=engine._keep: merges.append(1) or keep(*a))
    monkeypatch.setattr(engine, "_propagate", lambda run, timeline, *a: cycles.append(
        isinstance(timeline[0][0], ChargeEvent)) or propagate(run, timeline, *a))
    experiments.run_shuttle_experiments("repeated", np.linspace(0.0, 100.0, 11), PARAMS,
                                        p_err=0.0045)
    assert len(merges) == 10
    assert sum(cycles) == 100  # the cycle begins with a shuttle


def test_cached_calibration_returns_equal_distinct_dicts():
    a = experiments.calibrate_bell_projection(PARAMS, 1.05)
    b = experiments.calibrate_bell_projection(PARAMS, 1.05)
    assert a == b and a is not b
    a["phi_e"] = None
    assert experiments.calibrate_bell_projection(PARAMS, 1.05) == b
    # the cache holds exactly what an uncached calibration computes
    uncached = experiments._calibrated_projection.__wrapped__(PARAMS, 1.05)
    assert uncached == b
