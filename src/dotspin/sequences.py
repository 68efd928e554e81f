"""Control timelines: pulses, free evolution, charge events, measurements,
and Repeat, a cycle of elements run a whole number of times.

All elements are immutable values; builders are pure functions of their
inputs, so identical inputs produce element-wise identical timelines.
Durations are in microseconds, frequencies in MHz, Rabi rates in kHz,
phases in degrees.

A sweep is one stacked sequence: each of the STACKED_FIELDS, f_e_ref and
f_n_ref may hold a length-P array (held, not copied), one value per point.
Builders take arrays for those values; a stack is refused when one point
would be, with that point's message; point(seq, i) is the lone point i.

Charge configurations: 'unloaded' (no electron), 'qd1' (electron on the dot
hosting the nucleus, hyperfine active), 'qd2' (electron on the neighbouring
dot, hyperfine off). 'qd2' evolves freely as 'unloaded' does, but its
electron is loaded: ESR is allowed and the shuttle events apply.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import SpinSystemParams, _require_finite, transition_frequencies

LOADED_CONFIGS = ("qd1", "qd2")
CHARGE_CONFIGS = ("unloaded",) + LOADED_CONFIGS

# Charge-event kinds and the (pre, post) configurations they connect.
_EVENT_TRANSITIONS = {
    "load_down": ("unloaded", "qd1"),
    "load_up": ("unloaded", "qd1"),
    "unload": (LOADED_CONFIGS, "unloaded"),
    "shuttle_1_to_2": ("qd1", "qd2"),
    "shuttle_2_to_1": ("qd2", "qd1"),
}


@dataclass(frozen=True)
class Pulse:
    """Drive pulse at a fixed tone."""

    channel: str  # 'ESR' | 'NMR'
    frequency: float
    rabi: float
    duration: float
    phase: float = 0.0

    def __post_init__(self):
        if self.channel not in ("ESR", "NMR"):
            raise ValueError("channel must be 'ESR' or 'NMR'")
        stacked = _require_finite(self, ("frequency", "rabi", "duration", "phase"))
        # a stack is checked at its lowest point, and refused as that point would be
        if (np.min(self.duration) if stacked else self.duration) <= 0:
            raise ValueError("pulse duration must be positive")
        if (np.min(self.rabi) if stacked else self.rabi) < 0:
            raise ValueError("rabi must be >= 0")


@dataclass(frozen=True)
class Rotation:
    """Idealised instantaneous rotation of one subsystem (both hyperfine
    manifolds), used where pulse imperfections are not under study."""

    channel: str  # 'ESR' | 'NMR'
    angle: float  # degrees
    phase: float = 0.0

    def __post_init__(self):
        if self.channel not in ("ESR", "NMR"):
            raise ValueError("channel must be 'ESR' or 'NMR'")
        _require_finite(self, ("angle", "phase"))


@dataclass(frozen=True)
class FreeEvolution:
    duration: float
    charge_config: str = "unloaded"

    def __post_init__(self):
        stacked = _require_finite(self, ("duration",))
        if (np.min(self.duration) if stacked else self.duration) < 0:
            raise ValueError("duration must be >= 0")
        if self.charge_config not in CHARGE_CONFIGS:
            raise ValueError(f"unknown charge config {self.charge_config!r}")


@dataclass(frozen=True)
class ChargeEvent:
    """Load/unload/shuttle event, executed as an instantaneous frame change.
    dephase_prob applies a dephasing channel to dephase_target when the
    event executes."""

    kind: str
    dephase_prob: float = 0.0
    dephase_target: str = "nuclear"

    def __post_init__(self):
        if self.kind not in _EVENT_TRANSITIONS:
            raise ValueError(f"unknown charge event kind {self.kind!r}")
        if not 0 <= self.dephase_prob <= 1:
            raise ValueError("dephase_prob must be in [0, 1]")
        if self.dephase_target not in ("nuclear", "electron"):
            raise ValueError("dephase_target must be 'nuclear' or 'electron'")


@dataclass(frozen=True)
class MeasureElectron:
    pass


@dataclass(frozen=True)
class MeasureNuclear:
    pass


@dataclass(frozen=True)
class Repeat:
    """A cycle of elements run count times in a row. The cycle must end in
    the charge config it starts in (validate_sequence). count may be a
    column, one whole count >= 1 per point, refused at its first bad point
    as that point would be; a column whose counts differ takes no
    measurement in its cycle, as its points would record it unequally often."""

    elements: tuple
    count: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        column = isinstance(self.count, np.ndarray) and self.count.ndim > 0
        counts = self.count.tolist() if column else [self.count]
        for count in counts:
            if column and isinstance(count, float) and count.is_integer():
                count = int(count)  # the int count of its point
            if not isinstance(count, numbers.Integral) or isinstance(count, bool):
                raise TypeError(f"count: expected int, got {count!r}")
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count!r}")
        if len(set(counts)) > 1 and any(isinstance(el, (MeasureNuclear, MeasureElectron))
                                        for el in cycles_once(self.elements)):
            raise ValueError("count: a column of differing counts takes no measurement "
                             "inside its cycle")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered control timeline plus the per-channel rotating-frame
    references (f_e_ref, f_n_ref, MHz) the engine simulates it in."""

    elements: tuple
    f_e_ref: float
    f_n_ref: float
    initial_config: str = "unloaded"

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        _require_finite(self, ("f_e_ref", "f_n_ref"))
        if self.initial_config not in CHARGE_CONFIGS:
            raise ValueError(f"unknown charge config {self.initial_config!r}")
        validate_sequence(self)

    @functools.cached_property
    def points(self) -> int | None:
        """How many sweep points the sequence stacks, or None for a lone one."""
        return stacked_points(self.elements, self.f_e_ref, self.f_n_ref)


#: The fields of each element type that may hold one value per sweep point.
STACKED_FIELDS = {Pulse: ("frequency", "rabi", "duration", "phase"),
                  Rotation: ("angle", "phase"), FreeEvolution: ("duration",),
                  Repeat: ("count",)}


def cycles_once(elements):
    """Each element once, a Repeat followed by the elements of its cycle."""
    for el in elements:
        yield el
        if isinstance(el, Repeat):
            yield from cycles_once(el.elements)


def stacked_points(elements, *values) -> int | None:
    """The one length of the arrays among values and the STACKED_FIELDS of
    elements (a Repeat and its cycle included), or None when none is an
    array."""
    values += tuple(getattr(el, name) for el in cycles_once(elements)
                    for name in STACKED_FIELDS.get(type(el), ()))
    lengths = {len(v) for v in values if isinstance(v, np.ndarray) and v.ndim}
    if len(lengths) > 1:
        raise ValueError(f"stacked fields differ in length: {sorted(lengths)}")
    return lengths.pop() if lengths else None


def point(seq: PulseSequence, i: int) -> PulseSequence:
    """The lone sequence of point i of a stacked sequence, each array field
    replaced by its float entry i (a Repeat's count by its int); a lone
    sequence itself."""
    def at(x):  # an element, or a field's value
        if isinstance(x, Repeat):
            return Repeat(tuple(map(at, x.elements)), int(at(x.count)))
        if type(x) in STACKED_FIELDS:
            names = STACKED_FIELDS[type(x)]
            return replace(x, **{name: at(getattr(x, name)) for name in names})
        return float(x[i]) if isinstance(x, np.ndarray) else x

    if seq.points is None:
        return seq
    return PulseSequence(tuple(map(at, seq.elements)), at(seq.f_e_ref), at(seq.f_n_ref),
                         seq.initial_config)


def validate_sequence(seq: PulseSequence) -> None:
    """Check charge-configuration consistency along the timeline, and refuse
    an element of unknown type (TypeError).

    ESR requires a loaded electron; NMR is allowed in any configuration;
    loading into an already-loaded configuration is rejected. A Repeat's
    cycle is walked once and must end in the config it starts in; an
    element inside it is named by both indices, as in 'element 1.2'.
    """
    _validate(seq.elements, seq.initial_config)


def _validate(elements, config: str, where: str = "") -> str:
    """Walk the elements from config; return the config they end in."""
    for i, el in enumerate(elements):  # element where + i, named only when refused
        if isinstance(el, Repeat):
            end = _validate(el.elements, config, f"{where}{i}.")
            if end != config:
                raise ValueError(f"element {where}{i}: repeated cycle ends in {end!r} "
                                 f"but starts in {config!r}")
        elif isinstance(el, (Pulse, Rotation)):
            if el.channel == "ESR" and config not in LOADED_CONFIGS:
                raise ValueError(f"element {where}{i}: ESR pulse with no electron loaded")
        elif isinstance(el, FreeEvolution):
            if el.charge_config != config:
                raise ValueError(
                    f"element {where}{i}: free evolution declared in {el.charge_config!r} "
                    f"but sequence is in {config!r}"
                )
        elif isinstance(el, ChargeEvent):
            pre, post = _EVENT_TRANSITIONS[el.kind]
            allowed = pre if isinstance(pre, tuple) else (pre,)
            if config not in allowed:
                raise ValueError(
                    f"element {where}{i}: charge event {el.kind!r} invalid from {config!r}"
                )
            config = post
        elif not isinstance(el, (MeasureNuclear, MeasureElectron)):
            raise TypeError(f"element {where}{i}: unknown sequence element {el!r}")
    return config


# ---------------------------------------------------------------------------
# Builders

#: Default drive strengths for the built-in protocols.
DEFAULT_NMR_RABI = 2.0  # kHz
DEFAULT_PULSE_GAP = 0.2  # us, source-switching dead time between pulses
BELL_NMR_RABI = 1.0  # kHz, slower conditional NMR drive used in the entangler


def pi_duration(rabi_khz: float) -> float:
    """pi-pulse duration (us) from Rabi frequency (kHz): t_pi = 1/(2 Omega)."""
    return 1e3 / (2 * rabi_khz)


def synchronized_esr_rabi(params: SpinSystemParams, k: int = 3) -> float:
    """Conditional-pulse Rabi frequency (kHz) synchronised with the
    hyperfine splitting: Omega = |A|/sqrt(4k^2 - 1), so that during a
    resonant pi/2 (pi) pulse the off-resonant manifold completes exactly
    k/2 (k) full generalised-Rabi cycles and returns to its pole. Larger k
    is slower but more selective."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return abs(params.a_hf) / np.sqrt(4.0 * k * k - 1.0)


def bell_circuit(
    params: SpinSystemParams,
    projection: tuple | None = None,
    duration_scale: float = 1.0,
) -> PulseSequence:
    """Entangling circuit preparing (|down,Down> + |up,Up>)/sqrt(2) from
    |down,Down>, with optional X-Y-plane projection pulses.

    The entangler is a conditional NMR pi/2 on the electron-down line
    followed by a conditional ESR pi on the nuclear-up line. Unconditional
    projection rotations are built from two consecutive conditional
    rotations. projection is (phi_n, phi_e) in degrees; each entry is a
    per-conditional-line pair (the two consecutive conditional pulses
    accumulate different deterministic phases, which the tomography driver
    calibrates out per line). The electron projection precedes the
    nuclear one so that the electron spends the least possible time in a
    superposition.

    The ESR Rabi frequency is the splitting-synchronised value, which
    suppresses off-resonant driving of the spectator ESR line; the NMR one
    is BELL_NMR_RABI. duration_scale multiplies every pulse duration (models
    pulse-length calibration error). Idle windows of DEFAULT_PULSE_GAP, the
    dead time of the source switching, separate the NMR and ESR pulse
    groups; the joint two-qubit coherence is exposed to electron dephasing
    during them.
    """
    frame, prefix, project = _bell_parts(params, duration_scale)
    tail = () if projection is None else project(*projection)
    return PulseSequence(prefix + tail + (MeasureNuclear(), MeasureElectron()), **frame,
                         initial_config="unloaded")


def _bell_parts(params: SpinSystemParams, duration_scale: float) -> tuple:
    """bell_circuit's pieces: its frame references, its entangling prefix
    (from 'unloaded' to 'qd1') and project(phi_n, phi_e), the elements of
    its projection."""
    f = transition_frequencies(params)
    esr_rabi, nmr_rabi = synchronized_esr_rabi(params), BELL_NMR_RABI
    t_pi_e = pi_duration(esr_rabi) * duration_scale
    t_pi_n = pi_duration(nmr_rabi) * duration_scale
    idle = FreeEvolution(DEFAULT_PULSE_GAP, "qd1")
    prefix = (
        ChargeEvent(kind="load_down"),
        # Conditional NMR pi/2 on the electron-down line: nuclear superposition.
        Pulse("NMR", f["f_n_elec_down"], nmr_rabi, t_pi_n / 2),
        idle,
        # Conditional ESR pi on the nuclear-up line: entangler.
        Pulse("ESR", f["f_e_nuc_up"], esr_rabi, t_pi_e),
    )

    def project(phi_n, phi_e):
        return (
            idle,
            # Unconditional electron pi/2 from two conditional pi/2 pulses.
            Pulse("ESR", f["f_e_nuc_up"], esr_rabi, t_pi_e / 2, phase=phi_e[0]),
            Pulse("ESR", f["f_e_nuc_down"], esr_rabi, t_pi_e / 2, phase=phi_e[1]),
            idle,
            # Unconditional nuclear pi/2 from two conditional pi/2 pulses.
            Pulse("NMR", f["f_n_elec_down"], nmr_rabi, t_pi_n / 2, phase=phi_n[0]),
            Pulse("NMR", f["f_n_elec_up"], nmr_rabi, t_pi_n / 2, phase=phi_n[1]),
        )

    return {"f_e_ref": f["f_e0"], "f_n_ref": f["f_n0"]}, prefix, project


def nmr_line(params: SpinSystemParams, charge_config: str = "unloaded",
             electron_spin: str = "down") -> float:
    """The NMR line (MHz) a charge config drives: f_n0 with no electron on
    the nucleus's dot, and in 'qd1' f_n_elec_down or f_n_elec_up."""
    if electron_spin not in ("down", "up"):
        raise ValueError(f"electron_spin must be 'down' or 'up', got {electron_spin!r}")
    f = transition_frequencies(params)
    return f[f"f_n_elec_{electron_spin}"] if charge_config == "qd1" else f["f_n0"]


def ramsey_sequence(
    params: SpinSystemParams,
    tau: float,
    detuning_khz: float = 0.0,
    charge_config: str = "unloaded",
) -> PulseSequence:
    """Nuclear Ramsey: pi/2 - free(tau) - pi/2 - measure, ideal rotations.

    The detuning is implemented by offsetting the nuclear frame reference, so
    the coherence precesses at `detuning_khz` during free evolution.
    """
    return _free_precession(params, tau, detuning_khz, charge_config, echo=False)


def hahn_sequence(
    params: SpinSystemParams,
    tau: float,
    detuning_khz: float = 0.0,
    charge_config: str = "unloaded",
) -> PulseSequence:
    """Nuclear Hahn echo: pi/2 - tau - pi - tau - pi/2 - measure, ideal
    rotations; tau is the half-interval (total free evolution 2*tau)."""
    return _free_precession(params, tau, detuning_khz, charge_config, echo=True)


def _free_precession(params, tau, detuning_khz, charge_config, echo) -> PulseSequence:
    """Ramsey, or with echo=True Hahn (a refocusing pi and a second wait),
    on the bare nuclear line ('unloaded') or, with a spin-down electron
    loaded first, on its electron-down line ('qd1')."""
    if charge_config not in ("unloaded", "qd1"):
        raise ValueError(f"charge_config must be 'unloaded' or 'qd1', got {charge_config!r}")
    half_pi, pi = Rotation("NMR", 90.0), Rotation("NMR", 180.0)
    wait = FreeEvolution(tau, charge_config)
    elements = [ChargeEvent(kind="load_down")] if charge_config == "qd1" else []
    elements += [half_pi, *([wait, pi, wait] if echo else [wait]),
                 half_pi, MeasureNuclear()]
    return PulseSequence(elements, transition_frequencies(params)["f_e0"],
                         nmr_line(params, charge_config) - detuning_khz * 1e-3)


def shuttle_ramsey_sequence(
    params: SpinSystemParams,
    t_load: float,
    tau_0: float,
    p_err: float = 0.0,
) -> PulseSequence:
    """Nuclear Ramsey with the electron moved onto the nucleus's dot for
    t_load out of a fixed total precession time tau_0.

    The electron starts spin-down on the neighbouring dot; while it sits on
    QD1 the nuclear precession picks up the electron-state-dependent
    hyperfine detuning (|A|/2 for spin-down). p_err is the dephasing
    probability per load/unload cycle, applied on the cycle-completing event.
    """
    if not np.all((0 <= t_load) & (t_load <= tau_0)):
        raise ValueError("t_load must satisfy 0 <= t_load <= tau_0")
    f = transition_frequencies(params)
    t_side = (tau_0 - t_load) / 2
    elements = [
        Rotation("NMR", 90.0),
        FreeEvolution(t_side, "qd2"),
        ChargeEvent(kind="shuttle_2_to_1"),
        FreeEvolution(t_load, "qd1"),
        ChargeEvent(kind="shuttle_1_to_2", dephase_prob=p_err),
        FreeEvolution(t_side, "qd2"),
        Rotation("NMR", 90.0),
        MeasureNuclear(),
    ]
    return PulseSequence(elements, f["f_e0"], f["f_n0"], initial_config="qd2")


def repeated_load_sequence(
    params: SpinSystemParams,
    k_cycles: int,
    tau_0: float,
    p_err: float = 0.0,
    final_phase: float = 0.0,
) -> PulseSequence:
    """Nuclear Ramsey with k load/unload cycles during a fixed precession
    time tau_0. The per-cycle dephasing probability p_err is applied once
    per completed cycle (on the unloading shuttle). k_cycles may be a
    column of counts >= 1, the Repeat's count; k = 0 has no cycle."""
    if np.any(k_cycles < 0):
        raise ValueError("k_cycles must be >= 0")
    stacked = isinstance(k_cycles, np.ndarray)
    if stacked and np.any(k_cycles == 0):
        raise ValueError("k_cycles: a column of counts must be >= 1 at every point, "
                         "as k = 0 has no cycle")
    f = transition_frequencies(params)
    elements = [Rotation("NMR", 90.0)]
    if not stacked and k_cycles == 0:
        elements.append(FreeEvolution(tau_0, "qd2"))
    else:
        dwell = tau_0 / (2 * k_cycles)
        elements.append(Repeat((
            ChargeEvent(kind="shuttle_2_to_1"),
            FreeEvolution(dwell, "qd1"),
            ChargeEvent(kind="shuttle_1_to_2", dephase_prob=p_err),
            FreeEvolution(dwell, "qd2"),
        ), k_cycles))
    elements += [Rotation("NMR", 90.0, phase=final_phase), MeasureNuclear()]
    return PulseSequence(elements, f["f_e0"], f["f_n0"], initial_config="qd2")


def electron_shuttle_ramsey(
    params: SpinSystemParams,
    final_phase: float = 0.0,
    p_transfer: float = 0.0,
) -> PulseSequence:
    """Electron Ramsey across a shuttle: first pi/2 with the electron on QD1,
    second pi/2 after the transfer to QD2, both ideal rotations. Nothing
    evolves freely on QD2, so no QD2 g-factor shift is modelled.

    p_transfer is the electron dephasing probability of the shuttle, the
    knob that sets the fringe visibility.
    """
    f = transition_frequencies(params)
    elements = [
        Rotation("ESR", 90.0),
        ChargeEvent("shuttle_1_to_2", dephase_prob=p_transfer, dephase_target="electron"),
        Rotation("ESR", 90.0, phase=final_phase),
        MeasureElectron(),
    ]
    return PulseSequence(elements, f["f_e_nuc_down"], f["f_n0"], initial_config="qd1")
