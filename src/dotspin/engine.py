"""Pulse-sequence executor.

Propagates the joint state through a PulseSequence, one per frozen
quasi-static noise draw, all trials of a batch at once along a trial axis,
and with run_stack the P points of a stacked sequence at once. The state is
kept in the sequence's rotating frame (f_e_ref for the electron, f_n_ref for
the nucleus). A pulse whose tone differs from its channel reference is
propagated exactly in its own drive frame, with diagonal frame-change
rotations at the pulse boundaries, applied entrywise.

A run from a pure state (the default ground state, or a QuantumState built
from a vector) carries amplitudes psi (P, N, 4) and applies each propagator
as one 4x4 mat-vec. It switches once to density matrices rho = psi psi^dagger
(P, N, 4, 4), conjugated as u rho u^dagger, at the first element that can
mix it: an unload, a charge event with dephasing, or a load, unless the run
began with its electron amplitudes exactly zero (nothing acts on the
electron while unloaded, so the load then only moves the nuclear
amplitudes). The switch depends on the sequence's structure and the initial
state only, never on a point's values. The result is rho either way, as the
element loop leaves it: every element preserves the trace, so nothing
renormalises rho, and |tr rho - 1| drifts ~1e-15 per noisy load/unload cycle.

Every propagator comes from core.unitary, told the structure its element
guarantees. An NMR drive is two 2x2 blocks (one per electron state), and so
is an ESR drive (one per nuclear state) when no trial has I_x noise; both
take the closed form of core.block_unitary. Without I_x noise a free
evolution is diagonal and acts entrywise: psi is multiplied by a cached
phase vector p, rho by the mask p_i p_j*. I_x noise couples the nuclear
states only, so under it a free evolution is two NMR blocks, and the ESR
pulse is the one element that takes eigh, of its real H at drive phase 0.
The choice is one flag per run that depends on the batch alone, so a lone
run and the same point inside a stack take the same path and agree to the
bit.

The points of a stack need not share a structure. A pulse on its frame
reference beside one off it is rotated into its frame by exactly 1, and a
zero wait beside a non-zero one keeps its point's state, as its lone run
skips the element, so every point equals its lone run to the bit.

run_stack evaluates the columns of a Repeat's cycle once, with each wait's
choice of the points it moves, and applies the cycle count times through the
same element code, so it agrees to the bit with its cycles written out. A
count column runs the cycle max(count) times on every point. After each
cycle whose number is one of the distinct counts, the points of that count
are merged into one kept (state, sequence time), which the Repeat leaves:
each point keeps what exactly its own count of cycles made, as its lone run
has no further cycles. Every count is >= 1, so each point switches to rho,
if at all, in the first cycle. The final rho is built only when something
reads it.

run_stack is set-up, one element loop (_propagate) and the finish; _resume
runs a shared prefix through that loop once and continues each stacked tail
from the (state, pure, t, config) it leaves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import core
from .core import (
    DIAGONAL,
    ESR_BLOCKS,
    IDENT4,
    IZ,
    NMR_BLOCKS,
    SZ,
    XE,
    NoiseBatch,
    NoiseDraw,
    QuantumState,
    SpinSystemParams,
    ZERO_DRAW,
    check_rwa,
    dagger,
    drive_operator,
    marginal_of_populations,
    populations,
    rotating_frame_hamiltonian,
    unitary,
)
from .sequences import (
    _EVENT_TRANSITIONS,
    STACKED_FIELDS,
    stacked_points,
    ChargeEvent,
    FreeEvolution,
    MeasureElectron,
    MeasureNuclear,
    Pulse,
    PulseSequence,
    Repeat,
    Rotation,
)

@dataclass
class SequenceResult:
    """Final density matrix plus the Born probabilities recorded at
    measurement markers: list of (kind, probabilities) in timeline order.
    final() builds rho, on its first read only.

    A NoiseBatch of N draws gives rho of shape (N, 4, 4) and records of shape
    (N, 2); a single NoiseDraw drops the trial axis: (4, 4) and (2,).
    run_stack keeps the trial axis and adds one of P points before it.
    """

    final: Callable[[], np.ndarray]
    records: list = field(default_factory=list)

    @functools.cached_property
    def rho(self) -> np.ndarray:
        return self.final()

    def last(self, kind: str) -> np.ndarray:
        for k, probs in reversed(self.records):
            if k == kind:
                return probs
        raise KeyError(f"no {kind!r} measurement recorded")

    def joint_probabilities(self) -> np.ndarray:
        """Born probabilities of the four joint basis states (per trial)."""
        return populations(self.rho)


#: |down,Down>, the default initial state.
_GROUND = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def run_sequence(
    seq: PulseSequence,
    params: SpinSystemParams,
    noise_draw: NoiseDraw | NoiseBatch = ZERO_DRAW,
    initial_state: QuantumState | None = None,
) -> SequenceResult:
    """Execute a lone sequence for one noise draw, or for a batch of N draws
    at once along a leading trial axis, and return the final state(s).

    Measurements are recorded as ideal Born probabilities (no collapse);
    sampling-based readout lives in the readout module. A pulse whose peak
    Rabi frequency exceeds 10% of its transition is refused (check_rwa).
    """
    if (seq.points or 1) != 1:
        raise ValueError(f"run_sequence runs one point, got {seq.points}; use run_stack")
    res = run_stack(seq, params, noise_draw, initial_state)
    drop = (0,) if isinstance(noise_draw, NoiseBatch) else (0, 0)  # P, and N
    return SequenceResult(lambda: res.rho[drop], [(kind, p[drop]) for kind, p in res.records])


def run_stack(seq, params, noise_draw=ZERO_DRAW, initial_state=None,
              rows=None) -> SequenceResult:
    """Execute the P points of a stacked sequence, or its points rows,
    against the same noise draw(s) in one pass: rho (P, N, 4, 4) and records
    (P, N, 2), N = 1 for a NoiseDraw. The points need not share a structure
    (a pulse on or off its frame, a wait of zero or not): each point gets
    the arithmetic of its lone run_sequence, to the bit."""
    run, records = _Run(seq, params, noise_draw, initial_state, rows), []
    state, pure, _, _ = _propagate(run, _timeline(seq.elements, rows), records, *run.start)
    return _finish(state, pure, records, (seq.points or 1) if rows is None else len(rows))


def _resume(seq, params):
    """Run seq's elements once, noiseless from the ground state, and return
    tail -> SequenceResult, which runs the stacked elements tail on from the
    state they leave, to the bit as run_stack runs seq followed by tail."""
    run, records = _Run(seq, params, ZERO_DRAW, None), []
    at = _propagate(run, _timeline(seq.elements, None), records, *run.start)

    def tail(elements):
        out = list(records)
        state, pure, _, _ = _propagate(run, _timeline(elements, None), out, *at)
        return _finish(state, pure, out, stacked_points(elements) or 1)

    return tail


class _Run:
    """What the elements of one run share, the points it runs (rows, None
    for all) and the (state, pure, t, config) it starts from."""

    def __init__(self, seq, params, noise_draw, initial_state, rows=None):
        self.params, self.batch, self.rows = params, NoiseBatch.of(noise_draw), rows
        self.frame = _columns(seq, ("f_e_ref", "f_n_ref"), rows)
        psi0 = _GROUND if initial_state is None else initial_state.vector
        pure = psi0 is not None  # state holds amplitudes psi, else density matrices
        # with no I_x noise every drive-free Hamiltonian is diagonal; a property
        # of the batch alone, so a lone run and a stacked run take the same path
        self.diagonal = not np.any(self.batch.delta_ix)
        # nothing acts on the electron while unloaded, so a load keeps a pure run
        # pure exactly when the run began with an empty electron slot
        self.load_keeps_pure = pure and not psi0[2:].any()
        self.static = {}  # charge config -> drive-free Hamiltonians of the batch
        self.free = {}  # (charge config, duration(s), pure) -> propagators, or phases
        state0 = psi0 if pure else initial_state.density_matrix()
        self.start = (np.repeat(state0[None], len(self.batch), axis=0), pure, 0.0,
                      seq.initial_config)

    def h_static(self, config):
        if config not in self.static:
            self.static[config] = rotating_frame_hamiltonian(
                self.params, self.batch, self.frame, config)
        return self.static[config]


def _propagate(run: _Run, timeline, records: list, state, pure: bool, t, config: str) -> tuple:
    """The element loop: the elements of a _timeline applied to state from
    sequence time t (us) in charge config config, appending their
    measurements to records; returns the (state, pure, t, config) they
    leave."""
    for el, values in timeline:
        if isinstance(el, Repeat):
            count, cycle, ends = values
            kept = None  # each point's (state, t) after its own count of cycles
            for c in range(1, max(ends) + 1):
                state, pure, t, config = _propagate(run, cycle, records, state, pure, t, config)
                if c in ends:  # c >= 1: pure is the same in every kept state
                    kept = _keep(count == c, (state, t), kept, pure)
            state, t = kept
        elif isinstance(el, Pulse):
            rabi = values[1]  # a column is checked at its peak
            check_rwa(run.params, el.channel,
                      float(rabi.max()) if isinstance(rabi, np.ndarray) else rabi)
            u = _pulse_unitary(el.channel, *values, run.frame, run.h_static(config), t,
                               run.diagonal)
            state = _apply(u, state, pure)
            t = t + values[2]
        elif isinstance(el, Rotation):
            state = _apply(_rotation_unitary(el.channel, *values), state, pure)
        elif isinstance(el, FreeEvolution):
            duration, moves, wait = values
            if moves is not False:
                key = (config, wait, pure)
                if key not in run.free:
                    run.free[key] = _free_propagator(run.h_static(config), _lift(duration, 1),
                                                     run.diagonal, pure)
                moved = (state * run.free[key] if run.diagonal
                         else _apply(run.free[key], state, pure))
                state = moved if moves is True else np.where(_lift(moves, 2 - pure), moved, state)
            t = t + duration
        elif isinstance(el, ChargeEvent):
            before, config = _EVENT_TRANSITIONS[el.kind]
            if pure and (el.dephase_prob > 0 or config == "unloaded"
                         or (before == "unloaded" and not run.load_keeps_pure)):
                state, pure = _outer(state), False
            state = _apply_charge_event(state, el, pure)
        elif isinstance(el, (MeasureNuclear, MeasureElectron)):
            kind = "nuclear" if isinstance(el, MeasureNuclear) else "electron"
            p = state.real**2 + state.imag**2 if pure else populations(state)
            # a sum of populations may pass 1 by round-off
            records.append((kind, marginal_of_populations(p, kind).clip(0.0, 1.0)))
    return state, pure, t, config


def _finish(state, pure: bool, records, points: int) -> SequenceResult:
    """The records, and rho as the element loop leaves it, unrenormalised
    (|tr rho - 1| drifts ~1e-15 per noisy load/unload cycle) and built on
    its first read, each with one entry per point."""
    def per_point(x, ndim):  # as it is, or repeated
        return x if x.ndim == ndim else np.repeat(x[None], points, axis=0)

    return SequenceResult(lambda: per_point(_outer(state) if pure else state, 4),
                          [(kind, per_point(p, 3)) for kind, p in records])


def _timeline(elements, rows) -> list:
    """(element, values) for each element in timeline order: its _columns
    of its STACKED_FIELDS at the points rows, or None; for a Repeat, its
    count, the _timeline of its cycle, evaluated once and replayed, and its
    distinct counts; for a FreeEvolution, its duration, the points it moves
    and its propagator's cache key, decided once however often it replays."""
    out = []
    for el in elements:
        names = STACKED_FIELDS.get(type(el))
        values = names and _columns(el, names, rows)
        if isinstance(el, Repeat):
            (count,) = values
            values = (count, _timeline(el.elements, rows), set(map(int, np.ravel(count))))
        elif isinstance(el, FreeEvolution):  # the points it moves (False: none, True:
            (duration,) = values  # all, else a (P, 1) mask) and its propagator's cache key
            column, moves = isinstance(duration, np.ndarray), duration > 0
            moves = (bool(moves.all()) or (bool(moves.any()) and moves)) if column else bool(moves)
            values = (duration, moves, duration.tobytes() if column else duration)
        out.append((el, values))
    return out


def _keep(done, now, kept, pure: bool) -> tuple:
    """The (state, t) of now at the points done, else of kept (None: now)."""
    if kept is None:
        return now
    return (np.where(_lift(done, 2 - pure), now[0], kept[0]),
            np.where(done, now[1], kept[1]))


def _columns(item, names, rows) -> list:
    """Each named field of item: a scalar as it is, and an array, at the
    points rows (None for all), as float(v[0]) when its entries are equal to
    the bit, else as a (P, 1) column. The float is there only so a prefix
    the points share runs once; a column of equal entries gives each point
    the same bits."""
    out = []
    for name in names:
        value = getattr(item, name)
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value if rows is None else value[rows], dtype=float)
            bits = value.view(np.uint64)
            value = float(value[0]) if (bits == bits[0]).all() else value[:, None]
        out.append(value)
    return out


def _lift(x, axes: int):
    """A (P, 1) column with `axes` trailing axes added; a scalar as it is."""
    return x.reshape(x.shape + (1,) * axes) if isinstance(x, np.ndarray) else x


def _apply(u: np.ndarray, state: np.ndarray, pure: bool) -> np.ndarray:
    """u applied to amplitudes (u psi) or to density matrices (u rho u^dagger)."""
    return (u @ state[..., None])[..., 0] if pure else _conjugate(u, state)


def _conjugate(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return u @ rho @ dagger(u)


def _outer(psi: np.ndarray) -> np.ndarray:
    """psi psi^dagger of each amplitude vector (..., 4)."""
    return psi[..., :, None] * psi.conj()[..., None, :]


def _rotation_unitary(channel: str, angle, phase) -> np.ndarray:
    axis = drive_operator(channel, _lift(phase, 2))
    theta = np.deg2rad(_lift(angle, 2))
    return np.cos(theta / 2) * IDENT4 - 1j * np.sin(theta / 2) * axis


def _free_propagator(h0: np.ndarray, dt, diagonal: bool, pure: bool) -> np.ndarray:
    """The propagators of a free evolution, two NMR blocks under I_x noise,
    or for diagonal Hamiltonians what the state is multiplied by: psi by p,
    the diagonal of U, and rho by the phase mask p_i conj(p_j)."""
    if not diagonal:
        return unitary(h0, dt, NMR_BLOCKS)
    p = np.diagonal(unitary(h0, dt, DIAGONAL), axis1=-2, axis2=-1)
    return p if pure else _outer(p)


def _pulse_unitary(channel: str, frequency, rabi, duration, phase, frame,
                   h0: np.ndarray, t0, diagonal: bool) -> np.ndarray:
    """Propagators (per point and trial) of a pulse on the channel with the
    given values starting at sequence time t0, given the drive-free
    Hamiltonians h0 of the batch in the frame (f_e_ref, f_n_ref), diagonal
    when the batch has no I_x noise. I_x noise couples the ESR blocks, so an
    ESR pulse under it takes eigh of its H at phase 0, which is real
    symmetric: every drive-free term commutes with S_z, so the phase phi is
    the rotation exp(i phi S_z), which joins the frame rotations."""
    z_op = SZ if channel == "ESR" else IZ
    df = frequency - (frame[0] if channel == "ESR" else frame[1])
    if channel == "ESR" and not diagonal:
        h_d = h0.real - _lift(df, 2) * SZ.real + _lift(rabi * 1e-3 / 2, 2) * XE.real
        return _in_drive_frame(unitary(h_d, _lift(duration, 1)), z_op, df, t0, duration,
                               np.deg2rad(phase))
    h_d = h0 - _lift(df, 2) * z_op + _lift(rabi * 1e-3 / 2, 2) * drive_operator(
        channel, _lift(phase, 2))
    blocks = NMR_BLOCKS if channel == "NMR" else ESR_BLOCKS
    return _in_drive_frame(unitary(h_d, _lift(duration, 1), blocks), z_op, df, t0, duration)


def _in_drive_frame(u, z_op, df, t0, duration, phi=0.0) -> np.ndarray:
    """Exact frame change into / out of the drive frame at offset df: the
    diagonal rotations exp(+i (2*pi df t - phi) Z) at t0 (in) and
    t0 + duration (out, conjugated), applied to u entrywise. phi (radians)
    is the drive phase of a u built at phase 0, else 0."""
    if np.all(df == 0.0) and np.all(phi == 0.0):
        return u
    z = np.diag(z_op).real
    turn, phi = 2 * np.pi * _lift(df, 1), _lift(phi, 1)
    w_in = np.exp(1j * (turn * _lift(t0, 1) - phi) * z)
    w_out = np.exp(-1j * (turn * _lift(t0 + duration, 1) - phi) * z)
    return w_out[..., :, None] * u * w_in[..., None, :]


def _apply_charge_event(state: np.ndarray, el: ChargeEvent, pure: bool) -> np.ndarray:
    """A charge event on amplitudes (a shuttle, or a load onto an empty
    electron slot, neither with dephasing) or on density matrices."""
    if "unloaded" in _EVENT_TRANSITIONS[el.kind]:
        # (un)loading: the nucleus keeps its state; the electron is reset into
        # a fresh spin state (unloading keeps spin-down as a reference slot)
        e = 1 if el.kind == "load_up" else 0
        if pure:  # the electron slot is empty: psi_n = psi[0:2] moves to slot e
            psi = np.zeros_like(state)
            psi[..., 2 * e:2 * e + 2] = state[..., 0:2]
            return psi
        rho_n = core.partial_trace_electron(state)
        state = np.zeros_like(state)
        state[..., 2 * e:2 * e + 2, 2 * e:2 * e + 2] = rho_n
    if el.dephase_prob > 0:
        state = core.apply_dephasing_channel(state, el.dephase_prob, el.dephase_target)
    return state
