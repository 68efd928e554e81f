"""Protocol drivers: execute pulse sequences over Monte Carlo noise trials
and produce the observable curves (resonance maps, Ramsey/Hahn decays,
Bell-state tomography, the entanglement error budget, shuttle experiments).

Each experiment builds its sweep as stacked sequences (sequences), draws its
per-trial noise once, as one NoiseBatch, and runs them through _sweep: the
points of each sequence run together as one stack, whatever their
structure, and the engine sees only the batch's distinct draws. Every
point's result is expanded back to trial order before the trial-order sum,
so the means are those of one engine call per point on every trial of the
batch, to the bit. A sweep driver returns its table as {name: float64
array}, a row per sweep point, each probability column beside its binomial
standard error in '<name>_stderr'.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    NoiseBatch,
    NoiseModel,
    QuantumState,
    SpinSystemParams,
    _require_finite,
    populations,
    rng_for,
    sample_noise,
    sigma_from_t2,
    transition_frequencies,
)
from .engine import _resume, run_sequence, run_stack
from .fitting import coherence_metric
from .readout import confuse_readout, correct_readout
from .sequences import (
    DEFAULT_NMR_RABI,
    PulseSequence,
    Pulse,
    ChargeEvent,
    MeasureNuclear,
    _bell_parts,
    bell_circuit,
    electron_shuttle_ramsey,
    hahn_sequence,
    nmr_line,
    point,
    ramsey_sequence,
    repeated_load_sequence,
    shuttle_ramsey_sequence,
)


def binomial_stderr(p: np.ndarray, trials: int) -> np.ndarray:
    return np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / max(trials, 1))


def _draws(noise: NoiseModel, seed: int, trials: int, *label) -> NoiseBatch:
    """The experiment's draw batch, row t for trial t, from one generator
    keyed on (seed, "noise", *label). The "noise" part keeps the stream apart
    from rng_for(seed), the s1 record's; the key holds neither the thread
    count nor the sweep order, so neither moves a draw. An all-zero model
    builds no generator: its batch is the +0.0 and False columns that
    sample_noise would give whatever the draws."""
    if not isinstance(trials, numbers.Integral) or isinstance(trials, bool):
        raise TypeError(f"trials: expected int, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if noise == NoiseModel():
        return NoiseBatch(np.zeros(trials), np.zeros(trials), np.zeros(trials),
                          np.zeros(trials, bool))
    return sample_noise(noise, rng_for(seed, "noise", *label), trials)


#: Most sweep points x distinct draw rows one engine run holds, and most
#: points x trials one expansion to trial order holds (at least one point
#: each), so neither grows with the sweep.
STACK_ROWS = 1024


def _distinct_rows(batch: NoiseBatch) -> tuple:
    """The batch's distinct draw rows, and each trial's index into them.
    Rows are compared as 32 bytes, so they are equal only when bit for bit
    (a -0.0 beside a 0.0 stays distinct)."""
    columns = (batch.delta_ix, batch.delta_iz, batch.delta_sz, batch.spectator_detuned)
    _, first, inverse = np.unique(np.stack(columns, 1, dtype=float).view("V32")[:, 0],
                                  return_index=True, return_inverse=True)
    return NoiseBatch(*(column[first] for column in columns)), inverse


def _sweep(seqs, params, draws, kind, initial_state=None) -> np.ndarray:
    """Probabilities of one measurement kind ('nuclear', 'electron', or
    'joint' for the final joint populations) at each point of the stacked
    (or lone) sequences seqs, one after another, averaged over the trials of
    the one NoiseBatch draws in trial order: shape (points, 2), or
    (points, 4) for 'joint'.

    The points of each sequence run as one stack, whatever their structure,
    in contiguous chunks of at most STACK_ROWS points x distinct rows,
    against the batch's distinct rows, each row once (_distinct_rows): a
    noiseless sweep runs as one stack at any trial count. A chunk of one
    point runs its lone sequence through run_sequence. Results are expanded
    back to trial order, at most STACK_ROWS points x trials at a time,
    before the sum, so every point gets the means of one run_sequence on the
    whole batch, to the bit."""
    distinct, inverse = _distinct_rows(draws)
    size = max(1, STACK_ROWS // len(distinct))
    expand = max(1, STACK_ROWS // len(draws))
    out = []
    for seq in seqs:
        points = seq.points or 1
        p = np.empty((points, 4 if kind == "joint" else 2))
        for lo in range(0, points, size):
            chunk = np.arange(lo, min(lo + size, points))
            res = (run_sequence(point(seq, lo), params, distinct, initial_state)
                   if len(chunk) == 1  # a plain run_sequence call, as perfbench traces
                   else run_stack(seq, params, distinct, initial_state, chunk))
            probs = res.joint_probabilities() if kind == "joint" else res.last(kind)
            probs = probs.reshape(len(chunk), len(distinct), -1)
            for i in range(0, len(chunk), expand):
                part = probs[i:i + expand]
                p[chunk[i:i + expand]] = part[:, inverse].sum(axis=1) / len(draws)
        out.append(p)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Resonance maps / Rabi


def run_nmr_chevron(
    freq_range,
    duration_range,
    params: SpinSystemParams,
    noise: NoiseModel | None = None,
    trials: int = 1,
    seed: int = 0,
    rabi: float = DEFAULT_NMR_RABI,
    charge_config: str = "unloaded",
    electron_spin: str = "down",
) -> dict:
    """Nuclear flip probability over (drive frequency, duration).

    charge_config 'unloaded' drives the bare line; 'qd1' loads an electron
    (spin given by electron_spin) first, shifting the resonance by +-|A|/2.
    """
    freq_range = np.asarray(freq_range, dtype=float)
    duration_range = np.asarray(duration_range, dtype=float)
    if freq_range.size == 0 or duration_range.size == 0:
        raise ValueError("sweep ranges must be non-empty")
    if charge_config not in ("unloaded", "qd1"):
        raise ValueError(f"charge_config must be 'unloaded' or 'qd1', got {charge_config!r}")
    if electron_spin not in ("down", "up"):
        raise ValueError(f"electron_spin must be 'down' or 'up', got {electron_spin!r}")
    load = (ChargeEvent(kind=f"load_{electron_spin}"),) if charge_config == "qd1" else ()
    # the grid, frequency-major, each point in the frame of its drive
    freq = np.repeat(freq_range, duration_range.size)
    dur = np.tile(duration_range, freq_range.size)
    seq = PulseSequence((*load, Pulse("NMR", freq, rabi, dur), MeasureNuclear()),
                        transition_frequencies(params)["f_e0"], freq)
    # P(flip) from the Down-initialised nucleus
    p = _sweep([seq], params, _draws(noise or NoiseModel(), seed, trials), "nuclear")[:, 1]
    return {
        "frequency_mhz": freq, "duration_us": dur,
        "p_flip": p, "p_flip_stderr": binomial_stderr(p, trials),
    }


def run_rabi(duration_range, params, frequency=None, **kwargs) -> dict:
    """Rabi oscillation: a single-frequency chevron slice, resonant by default."""
    if frequency is None:
        frequency = nmr_line(params, kwargs.get("charge_config", "unloaded"),
                             kwargs.get("electron_spin", "down"))
    return run_nmr_chevron([frequency], duration_range, params, **kwargs)


# ---------------------------------------------------------------------------
# Ramsey / Hahn


def _run_free_precession(kind, tau_range, detuning_khz, params, noise, trials,
                         seed, charge_config) -> dict:
    tau_range = np.asarray(tau_range, dtype=float)
    if tau_range.size == 0 or np.any(tau_range < 0):
        raise ValueError("tau_range must be non-empty and non-negative")
    make = ramsey_sequence if kind == "ramsey" else hahn_sequence
    seq = make(params, tau_range, detuning_khz=detuning_khz, charge_config=charge_config)
    p = _sweep([seq], params, _draws(noise, seed, trials), "nuclear")[:, 1]
    return {
        "tau_us": tau_range, "p_up": p, "p_up_stderr": binomial_stderr(p, trials),
    }


def run_ramsey(
    tau_range,
    detuning_khz: float = 2.0,
    params: SpinSystemParams | None = None,
    noise: NoiseModel | None = None,
    trials: int = 2000,
    seed: int = 0,
    charge_config: str = "unloaded",
) -> dict:
    """Detuned nuclear Ramsey decay. The default 2 kHz detuning gives at
    least ten fringes within the unloaded dephasing time."""
    return _run_free_precession(
        "ramsey", tau_range, detuning_khz, params or SpinSystemParams(),
        noise or NoiseModel(), trials, seed, charge_config
    )


def run_hahn(
    tau_range,
    detuning_khz: float = 0.0,
    params: SpinSystemParams | None = None,
    noise: NoiseModel | None = None,
    trials: int = 2000,
    seed: int = 0,
    charge_config: str = "unloaded",
) -> dict:
    """Nuclear Hahn echo; tau is the half-interval. Pure quasi-static
    detuning noise is refocused exactly."""
    return _run_free_precession(
        "hahn", tau_range, detuning_khz, params or SpinSystemParams(),
        noise or NoiseModel(), trials, seed, charge_config
    )


# ---------------------------------------------------------------------------
# Bell-state tomography


#: The imperfection mechanisms BellNoiseConfig switches on and off.
_BELL_MECHANISMS = (
    "electron_t2star", "spectator_nucleus", "pulse_calibration",
    "nmr_control", "nuclear_t2star",
)


#: Noise and imperfection settings of the entanglement experiment. Times in
#: microseconds; pulse_length_error is the fractional pulse-duration
#: calibration error applied as a multiplicative duration factor.
@dataclass(frozen=True)
class BellNoiseConfig:
    t2_star_e_us: float = 15.0
    t2_star_n_us: float = 2900.0
    t2_rabi_n_us: float = 1100.0
    spectator_flip_prob: float = 0.07
    pulse_length_error: float = 0.05
    electron_t2star: bool = True
    spectator_nucleus: bool = True
    pulse_calibration: bool = True
    nmr_control: bool = True
    nuclear_t2star: bool = True

    def __post_init__(self):
        times = ("t2_star_e_us", "t2_star_n_us", "t2_rabi_n_us")
        _require_finite(self, times + ("spectator_flip_prob", "pulse_length_error"))
        for name in times:
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
            with np.errstate(over="ignore"):  # the overflow is refused here
                finite = np.isfinite(sigma_from_t2(value))
            if not finite:
                raise ValueError(f"{name} is too short for a finite dephasing rate, got {value!r}")
        if not self.pulse_length_error > -1:  # every pulse must keep a positive length
            raise ValueError(f"pulse_length_error must be > -1, got {self.pulse_length_error!r}")
        if not 0 <= self.spectator_flip_prob <= 1:
            raise ValueError(
                f"spectator_flip_prob must be in [0, 1], got {self.spectator_flip_prob!r}"
            )

    def noise_model(self) -> NoiseModel:
        return NoiseModel(
            sigma_ix=sigma_from_t2(self.t2_rabi_n_us) if self.nmr_control else 0.0,
            sigma_iz=sigma_from_t2(self.t2_star_n_us) if self.nuclear_t2star else 0.0,
            sigma_sz=sigma_from_t2(self.t2_star_e_us) if self.electron_t2star else 0.0,
            spectator_flip_prob=self.spectator_flip_prob if self.spectator_nucleus else 0.0,
        )

    def duration_scale(self) -> float:
        return 1.0 + (self.pulse_length_error if self.pulse_calibration else 0.0)

    def only(self, mechanism: str) -> "BellNoiseConfig":
        return replace(self.none(), **{mechanism: True})

    def none(self) -> "BellNoiseConfig":
        return replace(self, **dict.fromkeys(_BELL_MECHANISMS, False))


def _initial_state(initial_nuclear: str) -> QuantumState:
    return QuantumState.basis("down", initial_nuclear)


def _parity(probs: np.ndarray):
    """Two-qubit parity of joint probabilities (last axis of length 4)."""
    return probs[..., 0] + probs[..., 3] - probs[..., 1] - probs[..., 2]


#: Coordinate-wise sweeps of the projection-phase calibration.
CALIBRATION_SWEEPS = 3


def calibrate_bell_projection(
    params: SpinSystemParams,
    duration_scale: float = 1.0,
) -> dict:
    """Calibrate the four conditional projection-pulse phases on a noiseless
    circuit, absorbing the deterministic AC Stark and free-precession phase
    offsets; mirrors the experimental calibration workflow.

    Coordinate-wise: each of CALIBRATION_SWEEPS sweeps samples four
    quadrature points per phase and moves the phase to the maximum of their
    first harmonic. The parity is a pure sinusoid only in the second phase
    of each pair (phi_e_down, phi_n_up), so the result is close to the joint
    optimum, not at it.

    The circuit's entangling prefix (load, NMR pi/2, idle, ESR pi) runs
    once; each coordinate's four candidates then run only their projection
    pulses from its state, as one stacked tail whose swept phase is a column
    of four, so every parity is the whole circuit's to the bit.

    Returns {'phi_e': (a, b), 'phi_n': (a, b), 'parity': best}, a fresh dict
    on each call; the calibration itself runs once per (params,
    duration_scale).
    """
    return dict(_calibrated_projection(params, duration_scale))


@functools.lru_cache(maxsize=64)
def _calibrated_projection(params, duration_scale) -> dict:
    phases = np.zeros(4)  # (phi_e_up, phi_e_down, phi_n_down, phi_n_up)
    frame, prefix, project = _bell_parts(params, duration_scale)
    resume = _resume(PulseSequence(prefix, **frame), params)

    def parity_at(ph):  # the noiseless parities at phases or phase columns ph
        return _parity(populations(resume(project((ph[2], ph[3]), (ph[0], ph[1]))).rho)[:, 0])

    for _ in range(CALIBRATION_SWEEPS):
        for i in range(4):
            candidates = list(phases)
            candidates[i] = phases[i] + np.array([0.0, 90.0, 180.0, 270.0])
            samples = parity_at(candidates)
            a = (samples[0] - samples[2]) / 2
            b = (samples[1] - samples[3]) / 2
            phases[i] = (phases[i] + np.rad2deg(np.arctan2(b, a))) % 360.0
    (best,) = parity_at(phases)
    return {
        "phi_e": (phases[0], phases[1]),
        "phi_n": (phases[2], phases[3]),
        "parity": best,
    }


def _bell_basis_probabilities(basis: str, params: SpinSystemParams,
                              config: BellNoiseConfig, calibration: dict, trials: int,
                              seed: int, initial_nuclear: str = "down") -> np.ndarray:
    """Trial-averaged joint Born probabilities for one measurement basis."""
    scale = config.duration_scale()
    if basis == "ZZ":
        projection = None
    else:
        shift = 0.0 if basis == "XX" else 90.0
        phi_e = tuple(p + shift for p in calibration["phi_e"])
        phi_n = tuple(p + shift for p in calibration["phi_n"])
        projection = (phi_n, phi_e)
    seq = bell_circuit(params, projection=projection, duration_scale=scale)
    noise = config.noise_model()
    basis_idx = {"ZZ": 0, "XX": 1, "YY": 2}[basis]
    p_flip = noise.spectator_flip_prob
    draws = _draws(noise, seed, trials, basis_idx)
    # Stratified (systematic) spectator flips: exact flip fraction across
    # the trial set; unbiased, removes the Bernoulli count variance.
    t = np.arange(trials)
    draws = replace(
        draws,
        spectator_detuned=np.floor((t + 1) * p_flip) > np.floor(t * p_flip),
    )
    return _sweep([seq], params, draws, "joint", _initial_state(initial_nuclear))[0]


@dataclass
class BellTomographyResult:
    probabilities: dict  # basis -> corrected joint probabilities
    raw_probabilities: dict
    fidelity: float
    components: dict  # f_zz, f_xx, f_yy
    calibration: dict


def run_bell_tomography(
    params: SpinSystemParams | None = None,
    config: BellNoiseConfig | None = None,
    readout: dict | None = None,
    trials: int = 1000,
    seed: int = 0,
    initial_nuclear: str = "down",
    calibration: dict | None = None,
) -> BellTomographyResult:
    """Bell-state fidelity from XX / YY / ZZ measurements.

    readout, when given, maps the projection regime to ReadoutFidelities
    ({'ZZ': ..., 'XY': ...}); the measured distributions are passed through
    the electron confusion matrix and corrected by direct inversion, exactly
    as the real analysis pipeline does. The fidelity combination is
    F = F_ZZ/2 + F_YY/2 + F_XX/2 - 1/2, with the parity/anti-parity role of
    XX and YY swapping between the two nuclear initialisations.
    """
    params = params or SpinSystemParams()
    config = config or BellNoiseConfig()
    if calibration is None:
        calibration = calibrate_bell_projection(params, config.duration_scale())

    raw, corrected = {}, {}
    for basis in ("ZZ", "XX", "YY"):
        probs = _bell_basis_probabilities(
            basis, params, config, calibration, trials, seed, initial_nuclear
        )
        if readout is not None:
            fid = readout["ZZ"] if basis == "ZZ" else readout["XY"]
            measured = confuse_readout(probs, fid)
            raw[basis] = measured
            corrected[basis] = correct_readout(measured, fid)["probabilities"]
        else:
            raw[basis] = probs
            corrected[basis] = probs

    def parity(basis, anti=False):  # P(even), or P(odd) for anti
        p = corrected[basis]
        return float(p[1] + p[2] if anti else p[0] + p[3])

    up = initial_nuclear == "up"  # XX and YY swap parity and anti-parity roles
    f_zz, f_xx, f_yy = parity("ZZ"), parity("XX", up), parity("YY", not up)
    fidelity = f_zz / 2 + f_yy / 2 + f_xx / 2 - 0.5
    if fidelity > 1.0 + 1e-9:
        raise ValueError(
            "corrected fidelity exceeds 1; readout correction model inconsistent"
        )
    return BellTomographyResult(
        probabilities=corrected, raw_probabilities=raw, fidelity=float(fidelity),
        components={"f_zz": f_zz, "f_xx": f_xx, "f_yy": f_yy},
        calibration=calibration,
    )


def run_bell_parity_sweep(
    params: SpinSystemParams | None = None,
    config: BellNoiseConfig | None = None,
    phi_range=None,
    vary: str = "nuclear",
    trials: int = 200,
    seed: int = 0,
    initial_nuclear: str = "down",
) -> dict:
    """Two-qubit parity vs the nuclear (or electron) projection phase."""
    if vary not in ("nuclear", "electron"):
        raise ValueError(f"vary must be 'nuclear' or 'electron', got {vary!r}")
    params = params or SpinSystemParams()
    config = config or BellNoiseConfig()
    if phi_range is None:
        phi_range = np.arange(0.0, 360.0, 20.0)
    phi_range = np.asarray(phi_range, dtype=float)
    scale = config.duration_scale()
    calibration = calibrate_bell_projection(params, scale)

    phi_n, phi_e = calibration["phi_n"], calibration["phi_e"]
    if vary == "nuclear":
        phi_n = tuple(p + phi_range for p in phi_n)
    else:
        phi_e = tuple(p + phi_range for p in phi_e)
    seq = bell_circuit(params, projection=(phi_n, phi_e), duration_scale=scale)
    joint = _sweep([seq], params, _draws(config.noise_model(), seed, trials), "joint",
                   _initial_state(initial_nuclear))
    return {
        "phi_deg": phi_range, "parity": _parity(joint),
        "p_down_Down": joint[:, 0], "p_down_Up": joint[:, 1],
        "p_up_Down": joint[:, 2], "p_up_Up": joint[:, 3],
    }


@dataclass
class ErrorBudget:
    """Per-mechanism Bell-fidelity reductions (percentage points), each
    computed with every other mechanism disabled."""

    electron_t2star: float
    spectator_nucleus: float
    pulse_calibration: float
    nmr_control: float
    baseline_fidelity: float
    total_fidelity: float


def compute_error_budget(
    params: SpinSystemParams | None = None,
    config: BellNoiseConfig | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> ErrorBudget:
    """Bell-fidelity error budget: each mechanism simulated in isolation
    against the noiseless baseline, plus the all-mechanisms-on total."""
    params = params or SpinSystemParams()
    config = config or BellNoiseConfig()
    # Projection phases calibrated once on the ideal protocol; the residual
    # pulse-length error is, by definition, not absorbed by the calibration.
    calibration = calibrate_bell_projection(params)

    def fidelity(cfg, mech_seed):
        return run_bell_tomography(
            params, cfg, trials=trials, seed=mech_seed,
            calibration=calibration,
        ).fidelity

    baseline = fidelity(config.none(), seed)
    mechanisms = {}
    for i, mech in enumerate(
        ("electron_t2star", "spectator_nucleus", "pulse_calibration", "nmr_control")
    ):
        f_mech = fidelity(config.only(mech), seed + 1000 * (i + 1))
        mechanisms[mech] = 100.0 * (baseline - f_mech)
    total = fidelity(config, seed + 5000)
    return ErrorBudget(
        baseline_fidelity=float(baseline),
        total_fidelity=float(total),
        **{k: float(v) for k, v in mechanisms.items()},
    )


# ---------------------------------------------------------------------------
# Shuttle experiments


#: Total nuclear precession time (us) of the phase and repeated shuttle runs.
DEFAULT_SHUTTLE_TAU_0 = 500.0


def run_shuttle_experiments(
    variant: str,
    sweep,
    params: SpinSystemParams | None = None,
    noise: NoiseModel | None = None,
    trials: int = 1,
    seed: int = 0,
    tau_0: float = DEFAULT_SHUTTLE_TAU_0,
    p_err: float = 0.0,
    p_transfer: float = 0.0,
) -> dict:
    """The three electron-transfer experiments.

    variant 'phase': sweep = t_load values (us), fixed total precession
    tau_0; the nuclear phase oscillates at |A|/2 vs t_load.
    variant 'repeated': sweep = load/unload cycle counts k, whole numbers;
    emits the four-phase probabilities and the coherence C(k), with
    per-cycle dephasing probability p_err. Every k >= 1 and final phase is
    one point of one stacked sequence whose cycle count, dwell and final
    phase are columns; k = 0, which has no cycle, is a sequence of its own.
    Both run as one sweep on one draw batch, so the four phases of one k
    project one state on the same draws: C <= 1.
    variant 'electron': sweep = final Ramsey phase (deg) for the
    electron-coherence shuttle transfer, with transfer dephasing p_transfer.
    """
    params = params or SpinSystemParams()
    noise = noise or NoiseModel()
    sweep = np.asarray(sweep, dtype=float)
    if sweep.size == 0:
        raise ValueError("sweep must be non-empty")
    if not tau_0 > 0:
        raise ValueError(f"tau_0 must be positive, got {tau_0!r}")

    if variant == "repeated":
        whole = np.isfinite(sweep) & (sweep == np.round(sweep))
        if not whole.all():
            raise ValueError(f"cycle counts must be whole numbers, got "
                             f"{float(sweep[~whole][0])!r}")
        phases = {"p_x": 0.0, "p_mx": 180.0, "p_y": 90.0, "p_my": 270.0}
        final = np.array(list(phases.values()))
        # the k = 0 points first, each k >= 1 in sweep order after them, a
        # point per (k, final phase); scattered back to sweep order below
        order = np.argsort(sweep != 0, kind="stable")
        ks, zeros = sweep[order].astype(int), int(np.sum(sweep == 0))
        seqs = [repeated_load_sequence(params, k, tau_0, p_err=p_err,
                                       final_phase=np.tile(final, n))
                for k, n in ((0, zeros), (np.repeat(ks[zeros:], len(final)), len(ks) - zeros))
                if n]
        p = np.empty((len(sweep), len(phases)))  # a row per k
        p[order] = _sweep(seqs, params, _draws(noise, seed, trials), "nuclear")[:, 1].reshape(
            len(sweep), len(phases))
        return {
            "k_cycles": sweep, **dict(zip(phases, p.T)),
            "coherence": np.array([coherence_metric(*row) for row in p])}

    # the other two variants record P(up) of one spin per sweep point
    if variant == "phase":
        column, kind, seq = "t_load_us", "nuclear", shuttle_ramsey_sequence(
            params, sweep, tau_0, p_err=p_err)
    elif variant == "electron":
        column, kind, seq = "phi_deg", "electron", electron_shuttle_ramsey(
            params, final_phase=sweep, p_transfer=p_transfer)
    else:
        raise ValueError(f"unknown shuttle variant {variant!r}")
    p = _sweep([seq], params, _draws(noise, seed, trials), kind)[:, 1]
    return {column: sweep, "p_up": p, "p_up_stderr": binomial_stderr(p, trials)}
