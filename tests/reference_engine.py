"""Reference per-trial sequence executor, kept only to check the batched
engine in ``dotspin.engine`` against.

This is the package's original engine: it propagates one 4x4 density matrix
per noise draw, builds its own drive-free Hamiltonian, and averages trials
one at a time (optionally on a thread pool). The core helpers it relied on
(propagator, partial trace, dephasing channel) are copied here in their
original single-matrix form, so the reference shares no numerical code with
the batched path beyond the operator constants, the state container and
core.populations. It also keeps the Bell projection calibration's original
loop, one whole circuit per candidate, which runs on the sweep it is given,
and the sweep loop's per-point form (per_point_sweep), with unstack and
stack between a stacked sequence and the lone sequences of its points.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from dotspin.core import (
    IDENT4,
    IZ,
    SZ,
    XN,
    NoiseBatch,
    NoiseDraw,
    QuantumState,
    SpinSystemParams,
    ZERO_DRAW,
    _MASK_ELECTRON,
    _MASK_NUCLEAR,
    drive_operator,
    populations,
)
from dotspin.sequences import (
    ChargeEvent,
    FreeEvolution,
    MeasureElectron,
    MeasureNuclear,
    Pulse,
    PulseSequence,
    Repeat,
    Rotation,
    LOADED_CONFIGS,
    STACKED_FIELDS,
    bell_circuit,
)
from dotspin import engine
from dotspin.experiments import CALIBRATION_SWEEPS


def unstack(seq: PulseSequence) -> list:
    """The lone sequences of the points of a stacked sequence, each element
    rebuilt through its constructor with entry i of every array field ([seq]
    for a lone sequence), a Repeat with the int entry i of a count column."""
    def at(value, i):
        return float(value[i]) if isinstance(value, np.ndarray) else value

    def element(el, i):
        if isinstance(el, Repeat):
            return Repeat(tuple(element(e, i) for e in el.elements), int(at(el.count, i)))
        if is_dataclass(el):
            return type(el)(**{f.name: at(getattr(el, f.name), i) for f in fields(el)})
        return el

    return [PulseSequence(tuple(element(el, i) for el in seq.elements),
                          at(seq.f_e_ref, i), at(seq.f_n_ref, i), seq.initial_config)
            for i in range(seq.points or 1)]


def stack(seqs) -> PulseSequence:
    """One stacked sequence of lone sequences with the same element types in
    the same order (a pulse may sit on its frame in one and off it in
    another, a wait may be zero in one only, a Repeat may run a different
    count of cycles): every field that may be stacked becomes the array of
    the sequences' values, as the engine once gathered side-by-side fields
    into columns, a Repeat's counts an int column."""
    def column(values):
        return np.array(values, dtype=float)

    def merged(els):
        first = els[0]
        if isinstance(first, Repeat):
            cycle = zip(*(el.elements for el in els), strict=True)
            return Repeat(tuple(merged(step) for step in cycle),
                          np.array([el.count for el in els]))
        names = STACKED_FIELDS.get(type(first), ())
        return replace(first, **{n: column([getattr(el, n) for el in els]) for n in names})

    steps = zip(*(seq.elements for seq in seqs), strict=True)
    return PulseSequence(tuple(merged(step) for step in steps),
                         column([seq.f_e_ref for seq in seqs]),
                         column([seq.f_n_ref for seq in seqs]), seqs[0].initial_config)


def per_point_sweep(seqs, params, draws, kind, initial_state=None) -> np.ndarray:
    """The reference for experiments._sweep: one engine.run_sequence per
    point of each of seqs (its unstack) on every trial of the batch, then
    the trial-order mean."""
    out = []
    for point in (lone for seq in seqs for lone in unstack(seq)):
        res = engine.run_sequence(point, params, draws, initial_state)
        probs = res.joint_probabilities() if kind == "joint" else res.last(kind)
        out.append(probs.sum(axis=0) / len(draws))
    return np.array(out)


def unitary(h: np.ndarray, dt_us: float) -> np.ndarray:
    """Exact propagator U = exp(-2*pi*i H dt) via Hermitian eigendecomposition."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    phases = np.exp(-2j * np.pi * w * dt_us)
    return (v * phases) @ v.conj().T


def partial_trace_electron(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def apply_dephasing_channel(state: QuantumState, p_err: float, subsystem: str):
    mask = _MASK_ELECTRON if subsystem == "electron" else _MASK_NUCLEAR
    rho = state.density_matrix()
    return QuantumState(matrix=np.where(mask, (1.0 - p_err) * rho, rho))


def unroll(elements) -> tuple:
    """The elements with each Repeat written out, its cycle count times; a
    count column must hold one count (unstack a column of differing counts
    first)."""
    out = []
    for el in elements:
        if isinstance(el, Repeat):
            (count,) = set(np.ravel(el.count).tolist())
            out += unroll(el.elements) * int(count)
        else:
            out.append(el)
    return tuple(out)


def draw_row(batch, t: int) -> NoiseDraw:
    """Row t of a NoiseBatch as the single draw this executor takes."""
    return NoiseDraw(float(batch.delta_ix[t]), float(batch.delta_iz[t]),
                     float(batch.delta_sz[t]), bool(batch.spectator_detuned[t]))


def average_populations(build_draws, run_one, trials: int, threads: int = 1):
    """Average run_one(draw) over per-trial draws, reducing in trial order."""
    draws = [build_draws(t) for t in range(trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(run_one, draws))
    else:
        outs = [run_one(d) for d in draws]
    return sum(outs) / trials


@dataclass
class SequenceResult:
    """Final state plus the Born probabilities recorded at measurement
    markers: list of (kind, probabilities) in timeline order."""

    state: QuantumState
    records: list = field(default_factory=list)

    def last(self, kind: str) -> np.ndarray:
        for k, probs in reversed(self.records):
            if k == kind:
                return probs
        raise KeyError(f"no {kind!r} measurement recorded")

    def joint_probabilities(self) -> np.ndarray:
        return populations(self.state.density_matrix())


def run_sequence(
    seq: PulseSequence,
    params: SpinSystemParams,
    noise_draw: NoiseDraw = ZERO_DRAW,
    initial_state: QuantumState | None = None,
) -> SequenceResult:
    """Execute a sequence for one noise draw and return the final state.

    Measurements are recorded as ideal Born probabilities (no collapse);
    sampling-based readout lives in the readout module.
    """
    if initial_state is None:
        initial_state = QuantumState.basis("down", "down")
    rho = initial_state.density_matrix().copy()
    config = seq.initial_config
    t = 0.0  # absolute sequence time, us
    records = []

    for el in unroll(seq.elements):
        if isinstance(el, Pulse):
            if el.channel == "ESR" and config not in LOADED_CONFIGS:
                raise ValueError("ESR pulse with no electron loaded")
            rho = _apply_pulse(rho, el, seq, params, noise_draw, config, t)
            t += el.duration
        elif isinstance(el, Rotation):
            if el.channel == "ESR" and config not in LOADED_CONFIGS:
                raise ValueError("ESR rotation with no electron loaded")
            u = _rotation_unitary(el)
            rho = u @ rho @ u.conj().T
        elif isinstance(el, FreeEvolution):
            if el.duration > 0:
                h = _static_hamiltonian(seq, params, noise_draw, config)
                u = unitary(h, el.duration)
                rho = u @ rho @ u.conj().T
            t += el.duration
        elif isinstance(el, ChargeEvent):
            rho, config = _apply_charge_event(rho, el, config)
        elif isinstance(el, MeasureNuclear):
            records.append(("nuclear", _marginal(rho, "nuclear")))
        elif isinstance(el, MeasureElectron):
            records.append(("electron", _marginal(rho, "electron")))
        else:
            raise TypeError(f"unknown sequence element {el!r}")

    return SequenceResult(state=QuantumState(matrix=_renormalise(rho)), records=records)


def _renormalise(rho: np.ndarray) -> np.ndarray:
    # guard against accumulated float drift over very long sequences
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _marginal(rho: np.ndarray, subsystem: str) -> np.ndarray:
    p = np.real(np.diag(rho)).clip(0.0)
    if subsystem == "electron":
        return np.array([p[0] + p[1], p[2] + p[3]])
    return np.array([p[0] + p[2], p[1] + p[3]])


def _static_hamiltonian(
    seq: PulseSequence,
    params: SpinSystemParams,
    noise: NoiseDraw,
    config: str,
) -> np.ndarray:
    """Drive-free rotating-frame Hamiltonian for the current charge config."""
    alpha = -params.b_ext * params.gamma_e * 1e3
    beta = -params.b_ext * params.gamma_n
    if noise.spectator_detuned:
        alpha = alpha + abs(params.a_spectator) * 1e-3
    h = (alpha - seq.f_e_ref) * SZ + (beta - seq.f_n_ref) * IZ
    if config == "qd1" and params.a_hf != 0:
        h = h + params.a_mhz * (SZ @ IZ)
    h = h + (noise.delta_sz * 1e-3) * SZ + (noise.delta_iz * 1e-3) * IZ
    if noise.delta_ix:
        h = h + (noise.delta_ix * 1e-3) * XN / 2
    return h


def _rotation_unitary(el: Rotation) -> np.ndarray:
    axis = drive_operator(el.channel, el.phase)
    theta = np.deg2rad(el.angle)
    return np.cos(theta / 2) * IDENT4 - 1j * np.sin(theta / 2) * axis


def _apply_pulse(
    rho: np.ndarray,
    pulse: Pulse,
    seq: PulseSequence,
    params: SpinSystemParams,
    noise: NoiseDraw,
    config: str,
    t0: float,
) -> np.ndarray:
    h0 = _static_hamiltonian(seq, params, noise, config)
    z_op = SZ if pulse.channel == "ESR" else IZ
    f_ref = seq.f_e_ref if pulse.channel == "ESR" else seq.f_n_ref
    df = pulse.frequency - f_ref
    h_d = h0 - df * z_op + (pulse.rabi * 1e-3 / 2) * drive_operator(pulse.channel, pulse.phase)
    u = unitary(h_d, pulse.duration)
    if df != 0.0:
        # exact frame change into / out of the drive frame at frequency f
        w_in = _frame_rotation(z_op, df, t0)
        w_out = _frame_rotation(z_op, df, t0 + pulse.duration).conj().T
        u = w_out @ u @ w_in
    return u @ rho @ u.conj().T


def _frame_rotation(z_op: np.ndarray, df: float, t: float) -> np.ndarray:
    """Diagonal rotation exp(+2*pi*i df t Z) mapping sequence frame -> drive frame."""
    return np.diag(np.exp(2j * np.pi * df * t * np.diag(z_op))).astype(complex)


def _apply_charge_event(rho: np.ndarray, el: ChargeEvent, config: str):
    if el.kind in ("load_down", "load_up"):
        rho_n = partial_trace_electron(rho)
        e_state = np.zeros((2, 2), dtype=complex)
        e_state[0 if el.kind == "load_down" else 1, 0 if el.kind == "load_down" else 1] = 1.0
        rho = np.kron(e_state, rho_n)
        config = "qd1"
    elif el.kind == "unload":
        rho_n = partial_trace_electron(rho)
        e_state = np.diag([1.0, 0.0]).astype(complex)  # reference slot only
        rho = np.kron(e_state, rho_n)
        config = "unloaded"
    elif el.kind == "shuttle_1_to_2":
        config = "qd2"
    elif el.kind == "shuttle_2_to_1":
        config = "qd1"
    if el.dephase_prob > 0:
        state = apply_dephasing_channel(
            QuantumState(matrix=_renormalise(rho)), el.dephase_prob, el.dephase_target
        )
        rho = state.density_matrix()
    return rho, config


def calibrate_bell_projection(params: SpinSystemParams, duration_scale: float,
                              sweep) -> dict:
    """The Bell projection calibration as it ran before its prefix ran once:
    every candidate a whole, lone bell_circuit, each coordinate's four
    quadrature candidates one sweep(seqs, params, draws, 'joint') on the
    zero draw (experiments._sweep, or per_point_sweep), 13 sweeps in all.
    The oracle of the loop's structure, not of the engine it runs."""
    phases = np.zeros(4)  # (phi_e_up, phi_e_down, phi_n_down, phi_n_up)

    def circuit(ph):
        return bell_circuit(params, projection=((ph[2], ph[3]), (ph[0], ph[1])),
                            duration_scale=duration_scale)

    def parity_at(*phase_sets):
        p = sweep([circuit(ph) for ph in phase_sets], params, NoiseBatch.of(ZERO_DRAW),
                  "joint")
        return p[..., 0] + p[..., 3] - p[..., 1] - p[..., 2]

    for _ in range(CALIBRATION_SWEEPS):
        for i in range(4):
            candidates = [phases.copy() for _ in range(4)]
            for candidate, offset in zip(candidates, (0.0, 90.0, 180.0, 270.0)):
                candidate[i] = phases[i] + offset
            samples = parity_at(*candidates)
            a = (samples[0] - samples[2]) / 2
            b = (samples[1] - samples[3]) / 2
            phases[i] = (phases[i] + np.rad2deg(np.arctan2(b, a))) % 360.0
    (best,) = parity_at(phases)
    return {"phi_e": (phases[0], phases[1]), "phi_n": (phases[2], phases[3]),
            "parity": best}
