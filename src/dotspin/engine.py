"""Pulse-sequence executor.

Propagates 4x4 density matrices through a PulseSequence, one per frozen
quasi-static noise draw, all trials of a batch at once along a leading
trial axis. The state is kept in the sequence's rotating frame
(f_e_ref for the electron, f_n_ref for the nucleus). A pulse whose tone
differs from its channel reference is propagated exactly in its own drive
frame, with diagonal frame-change rotations at the pulse boundaries; only
chirped pulses require piecewise-constant discretisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import (
    IDENT4,
    IZ,
    SZ,
    NoiseBatch,
    NoiseDraw,
    QuantumState,
    SpinSystemParams,
    ZERO_DRAW,
    check_rwa,
    dagger,
    drive_operator,
    eigen_propagator,
    marginal,
    populations,
    rotating_frame_hamiltonian,
    unitary,
)
from .sequences import (
    _EVENT_TRANSITIONS,
    ChargeEvent,
    FreeEvolution,
    MeasureElectron,
    MeasureNuclear,
    Pulse,
    PulseSequence,
    Rotation,
)

#: Discretisation bound for chirped pulses: dt <= 1/(CHIRP_STEPS_PER_CYCLE * f)
#: for both the Rabi frequency and the maximum frame detuning, bounding the
#: piecewise-constant (Magnus) error per pulse below ~1e-4.
CHIRP_STEPS_PER_CYCLE = 50

#: Chirped pulses ramp their amplitude smoothly (sin^2) over this fraction of
#: the duration at each end, so the adiabatic eigenstates connect to the bare
#: states even when the sweep terminates close to resonance.
CHIRP_EDGE_FRACTION = 0.1


@dataclass
class SequenceResult:
    """Final density matrix plus the Born probabilities recorded at
    measurement markers: list of (kind, probabilities) in timeline order.

    A NoiseBatch of N draws gives rho of shape (N, 4, 4) and records of shape
    (N, 2); a single NoiseDraw drops the trial axis: (4, 4) and (2,).
    """

    rho: np.ndarray
    records: list = field(default_factory=list)

    @property
    def state(self) -> QuantumState:
        """The final state of a single-draw run."""
        if self.rho.ndim != 2:
            raise ValueError("a batched result has one state per trial; use .rho")
        return QuantumState(matrix=self.rho)

    def last(self, kind: str) -> np.ndarray:
        for k, probs in reversed(self.records):
            if k == kind:
                return probs
        raise KeyError(f"no {kind!r} measurement recorded")

    def joint_probabilities(self) -> np.ndarray:
        """Born probabilities of the four joint basis states (per trial)."""
        return populations(self.rho)


#: |down,Down><down,Down|, the default initial state.
_GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def run_sequence(
    seq: PulseSequence,
    params: SpinSystemParams,
    noise_draw: NoiseDraw | NoiseBatch = ZERO_DRAW,
    initial_state: QuantumState | None = None,
) -> SequenceResult:
    """Execute a sequence for one noise draw, or for a batch of N draws at
    once along a leading trial axis, and return the final state(s).

    Measurements are recorded as ideal Born probabilities (no collapse);
    sampling-based readout lives in the readout module. A pulse whose peak
    Rabi frequency exceeds 10% of its transition is refused (check_rwa).
    """
    batch = NoiseBatch.of(noise_draw)
    rho0 = _GROUND if initial_state is None else initial_state.density_matrix()
    rho = np.repeat(rho0[None], len(batch), axis=0)
    config = seq.initial_config
    t = 0.0  # absolute sequence time, us
    records = []
    static = {}  # charge config -> drive-free Hamiltonians of the batch
    free = {}  # (charge config, duration) -> free-evolution propagators

    def h_static(config):
        if config not in static:
            static[config] = rotating_frame_hamiltonian(
                params, noise_draw=batch, frame=(seq.f_e_ref, seq.f_n_ref),
                charge_config=config,
                qd2_frequency_offset=seq.qd2_frequency_offset,
            )
        return static[config]

    for el in seq.elements:
        if isinstance(el, Pulse):
            check_rwa(params, el.channel, el.rabi)
            rho = _conjugate(_pulse_unitary(el, seq, h_static(config), t), rho)
            t += el.duration
        elif isinstance(el, Rotation):
            rho = _conjugate(_rotation_unitary(el), rho)
        elif isinstance(el, FreeEvolution):
            if el.duration > 0:
                key = (config, el.duration)
                if key not in free:
                    free[key] = unitary(h_static(config), el.duration)
                rho = _conjugate(free[key], rho)
            t += el.duration
        elif isinstance(el, ChargeEvent):
            rho = _apply_charge_event(rho, el)
            config = _EVENT_TRANSITIONS[el.kind][1]
        elif isinstance(el, MeasureNuclear):
            records.append(("nuclear", marginal(rho, "nuclear")))
        elif isinstance(el, MeasureElectron):
            records.append(("electron", marginal(rho, "electron")))
        else:
            raise TypeError(f"unknown sequence element {el!r}")

    rho = _renormalise(rho)
    if not isinstance(noise_draw, NoiseBatch):
        rho = rho[0]
        records = [(kind, probs[0]) for kind, probs in records]
    return SequenceResult(rho=rho, records=records)


def _conjugate(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return u @ rho @ dagger(u)


def _renormalise(rho: np.ndarray) -> np.ndarray:
    # guard against accumulated float drift over very long sequences
    rho = (rho + dagger(rho)) / 2
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _rotation_unitary(el: Rotation) -> np.ndarray:
    axis = drive_operator(el.channel, el.phase)
    theta = np.deg2rad(el.angle)
    return np.cos(theta / 2) * IDENT4 - 1j * np.sin(theta / 2) * axis


def _pulse_unitary(
    pulse: Pulse,
    seq: PulseSequence,
    h0: np.ndarray,
    t0: float,
) -> np.ndarray:
    """Propagators (one per trial) of a pulse starting at sequence time t0,
    given the drive-free Hamiltonians h0 of the batch."""
    z_op = SZ if pulse.channel == "ESR" else IZ
    f_ref = seq.f_e_ref if pulse.channel == "ESR" else seq.f_n_ref
    rabi_mhz = pulse.rabi * 1e-3

    if pulse.chirp is None:
        df = pulse.frequency - f_ref
        h_d = h0 - df * z_op + (rabi_mhz / 2) * drive_operator(pulse.channel, pulse.phase)
        return _in_drive_frame(unitary(h_d, pulse.duration), z_op, df, t0, pulse.duration)

    # Linear chirp: frame at the sweep centre, drive phase accumulates the
    # instantaneous detuning integral; piecewise-constant stepping.
    f_start, f_stop = pulse.chirp
    f_c = (f_start + f_stop) / 2
    df_c = f_c - f_ref
    span = abs(f_stop - f_start)
    max_rate = max(rabi_mhz, span / 2, 1e-9)
    n_steps = max(1, int(np.ceil(pulse.duration * max_rate * CHIRP_STEPS_PER_CYCLE)))
    dt = pulse.duration / n_steps
    rate = (f_stop - f_start) / pulse.duration  # MHz per us

    h_base = h0 - df_c * z_op
    t_edge = CHIRP_EDGE_FRACTION * pulse.duration
    u_total = IDENT4
    for k in range(n_steps):
        t_mid = (k + 0.5) * dt
        # accumulated phase of the tone relative to the sweep-centre frame
        theta = pulse.phase + 360.0 * (
            (f_start - f_c) * t_mid + 0.5 * rate * t_mid**2
        )
        ramp = min(t_mid, pulse.duration - t_mid)
        amp = np.sin(0.5 * np.pi * ramp / t_edge) ** 2 if ramp < t_edge else 1.0
        h_k = h_base + (amp * rabi_mhz / 2) * drive_operator(pulse.channel, theta)
        # every step's stack is new, so it bypasses unitary's eigh memo
        u_total = eigen_propagator(*np.linalg.eigh(h_k), dt) @ u_total
    return _in_drive_frame(u_total, z_op, df_c, t0, pulse.duration)


def _in_drive_frame(u, z_op, df: float, t0: float, duration: float) -> np.ndarray:
    """Exact frame change into / out of the drive frame at offset df."""
    if df == 0.0:
        return u
    w_in = _frame_rotation(z_op, df, t0)
    w_out = _frame_rotation(z_op, df, t0 + duration).conj().T
    return w_out @ u @ w_in


def _frame_rotation(z_op: np.ndarray, df: float, t: float) -> np.ndarray:
    """Diagonal rotation exp(+2*pi*i df t Z) mapping sequence frame -> drive frame."""
    return np.diag(np.exp(2j * np.pi * df * t * np.diag(z_op))).astype(complex)


def _apply_charge_event(rho: np.ndarray, el: ChargeEvent) -> np.ndarray:
    if "unloaded" in _EVENT_TRANSITIONS[el.kind]:
        # (un)loading: the nucleus keeps its state; the electron is reset into
        # a fresh spin state (unloading keeps spin-down as a reference slot)
        e = 1 if el.kind == "load_up" else 0
        rho_n = core.partial_trace_electron(rho)
        rho = np.zeros_like(rho)
        rho[..., 2 * e:2 * e + 2, 2 * e:2 * e + 2] = rho_n
    if el.dephase_prob > 0:
        rho = core.apply_dephasing_channel(
            _renormalise(rho), el.dephase_prob, el.dephase_target
        )
    return rho
