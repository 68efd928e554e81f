"""Timeline construction and validation."""

from dataclasses import replace

import numpy as np
import pytest

import reference_engine as ref
from dotspin.core import SpinSystemParams, transition_frequencies
from dotspin.sequences import (
    ChargeEvent,
    FreeEvolution,
    MeasureElectron,
    MeasureNuclear,
    Pulse,
    PulseSequence,
    Repeat,
    Rotation,
    bell_circuit,
    electron_shuttle_ramsey,
    hahn_sequence,
    pi_duration,
    point,
    ramsey_sequence,
    repeated_load_sequence,
    shuttle_ramsey_sequence,
    synchronized_esr_rabi,
)

PARAMS = SpinSystemParams()


def total_duration(seq: PulseSequence) -> float:
    """Sum of the element durations (charge events and ideal rotations are
    instantaneous), each Repeat's cycle counted as often as it runs."""
    return sum(el.duration for el in ref.unroll(seq.elements)
               if isinstance(el, (Pulse, FreeEvolution)))


class TestElements:
    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            Pulse("XYZ", 12.0, 2.0, 100.0)
        with pytest.raises(ValueError):
            Pulse("NMR", 12.0, 2.0, -1.0)
        with pytest.raises(ValueError):
            Pulse("NMR", 12.0, -2.0, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("build, field", [
        (lambda v: Pulse("NMR", v, 2.0, 100.0), "frequency"),
        (lambda v: Pulse("NMR", 12.0, v, 100.0), "rabi"),
        (lambda v: Pulse("NMR", 12.0, 2.0, v), "duration"),
        (lambda v: Pulse("NMR", 12.0, 2.0, 100.0, v), "phase"),
        (lambda v: Rotation("NMR", v), "angle"),
        (lambda v: Rotation("NMR", 90.0, v), "phase"),
        (lambda v: FreeEvolution(v), "duration"),
        (lambda v: PulseSequence((), v, 12.0), "f_e_ref"),
        (lambda v: PulseSequence((), 18.0e3, v), "f_n_ref"),
    ])
    def test_elements_refuse_non_finite_values_by_name(self, build, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(value)

    def test_charge_event_validation(self):
        with pytest.raises(ValueError):
            ChargeEvent(kind="teleport")
        with pytest.raises(ValueError):
            ChargeEvent(kind="unload", dephase_prob=2.0)


def _message(build, value):
    """The ValueError message build(value) raises."""
    with pytest.raises(ValueError) as refused:
        build(value)
    return str(refused.value)


class TestStackedValidation:
    """A stacked element or builder is refused when one point of a column is
    bad, with the message that point alone gets."""

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("build", [
        lambda v: Pulse("NMR", v, 2.0, 100.0),
        lambda v: Pulse("NMR", 12.0, v, 100.0),
        lambda v: Pulse("NMR", 12.0, 2.0, v),
        lambda v: Pulse("NMR", 12.0, 2.0, 100.0, v),
        lambda v: Rotation("NMR", v),
        lambda v: Rotation("NMR", 90.0, v),
        lambda v: FreeEvolution(v),
        lambda v: PulseSequence((), v, 12.0),
        lambda v: PulseSequence((), 18.0e3, v),
    ])
    def test_one_non_finite_point_refuses_the_stack(self, build, bad, at):
        column = np.linspace(1.0, 5.0, 5)
        column[at] = bad
        assert _message(build, column) == _message(build, bad)
        assert f"got {bad!r}" in _message(build, column)

    @pytest.mark.parametrize("at", [0, 3])
    @pytest.mark.parametrize("build, bad", [
        (lambda v: Pulse("NMR", 12.0, 2.0, v), 0.0),
        (lambda v: Pulse("NMR", 12.0, 2.0, v), -0.0),
        (lambda v: Pulse("NMR", 12.0, 2.0, v), -3.0),
        (lambda v: Pulse("NMR", 12.0, v, 100.0), -1e-9),
        (lambda v: FreeEvolution(v), -1.0),
        (lambda v: ramsey_sequence(PARAMS, v), -0.5),
        (lambda v: shuttle_ramsey_sequence(PARAMS, v, 50.0), -1.0),
        (lambda v: shuttle_ramsey_sequence(PARAMS, v, 50.0), 50.5),
        (lambda v: shuttle_ramsey_sequence(PARAMS, v, 50.0), float("nan")),
    ])
    def test_one_out_of_domain_point_refuses_the_stack(self, build, bad, at):
        column = np.linspace(1.0, 40.0, 4)
        column[at] = bad
        assert _message(build, column) == _message(build, bad)

    def test_good_columns_build(self):
        column = np.array([0.0, 10.0, 50.0])
        assert shuttle_ramsey_sequence(PARAMS, column, 50.0).points == 3
        assert FreeEvolution(column).duration is column  # held, not copied
        assert Pulse("NMR", 12.0, column, 100.0).rabi is column

    def test_columns_of_different_lengths_are_refused(self):
        seq = ramsey_sequence(PARAMS, np.array([1.0, 2.0]), detuning_khz=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match=r"stacked fields differ in length: \[2, 3\]"):
            seq.points

    def test_lone_sequences_stack_no_points(self):
        assert ramsey_sequence(PARAMS, 10.0).points is None
        assert ramsey_sequence(PARAMS, np.array([10.0])).points == 1

    @pytest.mark.parametrize("column, lone, error, message", [
        ([1, 0, 5], 0, ValueError, "count must be >= 1, got 0"),
        ([1, 3, -1], -1, ValueError, "count must be >= 1, got -1"),
        ([2.0, 0.0], 0, ValueError, "count must be >= 1, got 0"),
        ([1.0, 2.5], 2.5, TypeError, "count: expected int, got 2.5"),
        ([float("nan"), 1.0], float("nan"), TypeError, "count: expected int, got nan"),
        ([2.5, 0.0], 2.5, TypeError, "count: expected int, got 2.5"),
        ([0.0, 2.5], 0, ValueError, "count must be >= 1, got 0"),
        ([True, False], True, TypeError, "count: expected int, got True"),
    ])
    def test_one_bad_count_refuses_the_column(self, column, lone, error, message):
        # the first bad point decides, with the message that point alone gets
        cycle = (FreeEvolution(1.0),)
        with pytest.raises(error) as stacked:
            Repeat(cycle, np.array(column))
        with pytest.raises(error) as alone:
            Repeat(cycle, lone)
        assert str(stacked.value) == str(alone.value) == message

    @pytest.mark.parametrize("cycle", [
        (FreeEvolution(1.0), MeasureNuclear()),
        (Repeat((MeasureElectron(),), 2), FreeEvolution(1.0)),
    ], ids=["measurement", "measurement-in-a-nested-repeat"])
    def test_count_column_of_differing_counts_refuses_a_measurement(self, cycle):
        with pytest.raises(ValueError, match="count: a column of differing counts takes "
                                             "no measurement inside its cycle"):
            Repeat(cycle, np.array([1, 2]))
        assert Repeat(cycle, np.array([2, 2])).count.tolist() == [2, 2]

    def test_count_column_stacks_its_points(self):
        f = transition_frequencies(PARAMS)
        seq = PulseSequence((Repeat((FreeEvolution(1.0),), np.array([1, 4, 2])),),
                            f["f_e0"], f["f_n0"])
        assert seq.points == 3
        assert [point(seq, i).elements[0].count for i in range(3)] == [1, 4, 2]
        assert all(type(point(seq, i).elements[0].count) is int for i in range(3))
        with pytest.raises(ValueError, match=r"stacked fields differ in length: \[2, 3\]"):
            replace(seq, f_e_ref=np.array([1.0, 2.0])).points

    def test_repeated_load_column_refuses_k_0(self):
        with pytest.raises(ValueError, match="k_cycles: a column of counts must be >= 1 "
                                             "at every point, as k = 0 has no cycle"):
            repeated_load_sequence(PARAMS, np.array([2, 0]), 500.0)
        with pytest.raises(ValueError, match="k_cycles must be >= 0"):
            repeated_load_sequence(PARAMS, np.array([2, -1]), 500.0)
        with pytest.raises(TypeError, match="count: expected int, got 1.5"):
            repeated_load_sequence(PARAMS, np.array([2.0, 1.5]), 500.0)


class TestValidation:
    def test_esr_requires_loaded_electron(self):
        f = transition_frequencies(PARAMS)
        with pytest.raises(ValueError, match="no electron"):
            PulseSequence(
                elements=(Pulse("ESR", f["f_e0"], 100.0, 5.0),),
                f_e_ref=f["f_e0"],
                f_n_ref=f["f_n0"],
                initial_config="unloaded",
            )

    def test_double_load_rejected(self):
        f = transition_frequencies(PARAMS)
        with pytest.raises(ValueError, match="invalid from"):
            PulseSequence(
                elements=(ChargeEvent(kind="load_down"),
                          ChargeEvent(kind="load_down")),
                f_e_ref=f["f_e0"],
                f_n_ref=f["f_n0"],
                initial_config="unloaded",
            )

    def test_free_evolution_config_must_match(self):
        f = transition_frequencies(PARAMS)
        with pytest.raises(ValueError, match="free evolution"):
            PulseSequence(
                elements=(FreeEvolution(10.0, "qd1"),),
                f_e_ref=f["f_e0"],
                f_n_ref=f["f_n0"],
                initial_config="unloaded",
            )


    @pytest.mark.parametrize("count, error", [(0, ValueError), (-1, ValueError),
                                              (True, TypeError), (2.5, TypeError),
                                              (np.array(3), TypeError)])
    def test_repeat_count_must_be_a_positive_int(self, count, error):
        with pytest.raises(error, match="count"):
            Repeat((FreeEvolution(1.0),), count)

    def test_repeat_cycle_must_return_to_its_starting_config(self):
        f = transition_frequencies(PARAMS)
        cycle = (ChargeEvent(kind="shuttle_2_to_1"), FreeEvolution(5.0, "qd1"))
        with pytest.raises(ValueError, match="element 1: repeated cycle ends in 'qd1' "
                                             "but starts in 'qd2'"):
            PulseSequence((Rotation("NMR", 90.0), Repeat(cycle, 3)), f["f_e0"], f["f_n0"],
                          initial_config="qd2")

    def test_repeat_names_the_failing_element_inside_its_cycle(self):
        f = transition_frequencies(PARAMS)
        cycle = (ChargeEvent(kind="load_down"), FreeEvolution(5.0, "qd2"),
                 ChargeEvent(kind="unload"))
        with pytest.raises(ValueError, match="element 0.1: free evolution"):
            PulseSequence((Repeat(cycle, 2),), f["f_e0"], f["f_n0"])

    @pytest.mark.parametrize("elements, message", [
        (("oops", MeasureNuclear()), "element 0: unknown sequence element 'oops'"),
        ((MeasureNuclear(), None), "element 1: unknown sequence element None"),
        ((Repeat((FreeEvolution(1.0), 3.0), 2),),
         "element 0.1: unknown sequence element 3.0"),
    ], ids=["first", "last", "inside-a-repeat"])
    def test_unknown_element_is_refused_at_construction(self, elements, message):
        # so the engine meets only the element types it runs
        with pytest.raises(TypeError, match=message):
            PulseSequence(elements, 1.0, 1.0)


class TestBuilders:
    def test_pi_duration(self):
        assert pi_duration(2.0) == pytest.approx(250.0)

    def test_synchronized_rabi(self):
        # off-resonant manifold completes k generalised-Rabi cycles per pi
        for k in (1, 2, 3):
            omega = synchronized_esr_rabi(PARAMS, k)
            t_pi = pi_duration(omega)
            omega_gen = np.hypot(omega, 448.5)  # kHz
            cycles = omega_gen * 1e-3 * t_pi
            assert cycles == pytest.approx(k, rel=1e-12)
        with pytest.raises(ValueError):
            synchronized_esr_rabi(PARAMS, 0)

    def test_bell_circuit_structure(self):
        seq = bell_circuit(PARAMS)
        kinds = [type(el).__name__ for el in seq.elements]
        assert kinds[0] == "ChargeEvent"
        pulses = [el for el in seq.elements if isinstance(el, Pulse)]
        assert [p.channel for p in pulses] == ["NMR", "ESR"]
        f = transition_frequencies(PARAMS)
        assert pulses[0].frequency == pytest.approx(f["f_n_elec_down"])
        assert pulses[1].frequency == pytest.approx(f["f_e_nuc_up"])
        # the conditional ESR pi is a full pi, the NMR a half pi
        assert pulses[1].duration == pytest.approx(
            pi_duration(synchronized_esr_rabi(PARAMS))
        )

    def test_bell_circuit_projection_adds_four_pulses(self):
        plain = bell_circuit(PARAMS)
        proj = bell_circuit(PARAMS, projection=((0.0, 0.0), (0.0, 0.0)))
        n_plain = sum(isinstance(el, Pulse) for el in plain.elements)
        n_proj = sum(isinstance(el, Pulse) for el in proj.elements)
        assert n_proj == n_plain + 4
        # electron projection pulses come before the nuclear ones
        channels = [el.channel for el in proj.elements if isinstance(el, Pulse)]
        assert channels == ["NMR", "ESR", "ESR", "ESR", "NMR", "NMR"]

    def test_bell_duration_scale(self):
        base = bell_circuit(PARAMS)
        scaled = bell_circuit(PARAMS, duration_scale=1.05)
        assert total_duration(scaled) > total_duration(base)

    def test_ramsey_frame_detuning(self):
        seq = ramsey_sequence(PARAMS, tau=100.0, detuning_khz=2.0)
        f = transition_frequencies(PARAMS)
        assert seq.f_n_ref == pytest.approx(f["f_n0"] - 0.002)

    def test_hahn_total_free_time(self):
        seq = hahn_sequence(PARAMS, tau=500.0)
        free = sum(el.duration for el in seq.elements
                   if isinstance(el, FreeEvolution))
        assert free == pytest.approx(1000.0)

    def test_shuttle_ramsey_time_budget(self):
        seq = shuttle_ramsey_sequence(PARAMS, t_load=120.0, tau_0=500.0)
        assert total_duration(seq) == pytest.approx(500.0)
        configs = [el.charge_config for el in seq.elements
                   if isinstance(el, FreeEvolution)]
        assert configs == ["qd2", "qd1", "qd2"]
        with pytest.raises(ValueError):
            shuttle_ramsey_sequence(PARAMS, t_load=600.0, tau_0=500.0)

    def test_repeated_load_cycles(self):
        seq = repeated_load_sequence(PARAMS, k_cycles=5, tau_0=500.0, p_err=0.1)
        # one Repeat of the four-element cycle between the two rotations
        (cycle,) = (el for el in seq.elements if isinstance(el, Repeat))
        assert len(seq.elements) == 4 and seq.elements[1] is cycle
        assert cycle.count == 5 and len(cycle.elements) == 4
        events = [el for el in ref.unroll(seq.elements) if isinstance(el, ChargeEvent)]
        assert len(events) == 10
        unloads = [e for e in events if e.kind == "shuttle_1_to_2"]
        assert all(e.dephase_prob == 0.1 for e in unloads)
        assert total_duration(seq) == pytest.approx(500.0)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_repeated_load_equals_an_element_by_element_build(self, k):
        # written out, the cycles equal a build from fresh elements, cycle by
        # cycle
        elements = [Rotation("NMR", 90.0)]
        if k == 0:
            elements.append(FreeEvolution(500.0, "qd2"))
        for _ in range(k):
            elements += [ChargeEvent(kind="shuttle_2_to_1"),
                         FreeEvolution(500.0 / (2 * k), "qd1"),
                         ChargeEvent(kind="shuttle_1_to_2", dephase_prob=0.1),
                         FreeEvolution(500.0 / (2 * k), "qd2")]
        elements += [Rotation("NMR", 90.0, phase=90.0), MeasureNuclear()]
        f = transition_frequencies(PARAMS)
        expected = PulseSequence(tuple(elements), f_e_ref=f["f_e0"], f_n_ref=f["f_n0"],
                                 initial_config="qd2")
        seq = repeated_load_sequence(PARAMS, k, 500.0, p_err=0.1, final_phase=90.0)
        assert replace(seq, elements=ref.unroll(seq.elements)) == expected

    def test_electron_shuttle_targets_electron(self):
        seq = electron_shuttle_ramsey(PARAMS, p_transfer=0.3)
        event = next(el for el in seq.elements if isinstance(el, ChargeEvent))
        assert event.dephase_target == "electron"
        assert event.dephase_prob == 0.3

