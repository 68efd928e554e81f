"""Joint electron-nuclear spin system: operators, Hamiltonians, propagation, noise.

Conventions used throughout the package:

* Hilbert space is the 4-dimensional product of one electron spin-1/2 and one
  nuclear spin-1/2, with basis order |e,n> = |down,Down>, |down,Up>,
  |up,Down>, |up,Up> (electron-major; index = 2*electron + nucleus, where
  0 = spin-down / -1/2 and 1 = spin-up / +1/2).
* Frequencies are in MHz, times in microseconds, so phases are 2*pi*f*t.
  Noise sigmas and Rabi/hyperfine couplings are quoted in kHz at the API
  surface (matching the magnitudes people quote in the lab) and converted
  internally.
* All spin operators are built from S = sigma/2 (x) 1 and I = 1 (x) sigma/2.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)

# Pauli matrices in the (down, up) single-spin basis.
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[-1, 0], [0, 1]], dtype=complex)
_ID = np.eye(2, dtype=complex)

# Electron (S) and nuclear (I) spin-1/2 operators on the joint space.
SX = np.kron(_SX, _ID) / 2
SY = np.kron(_SY, _ID) / 2
SZ = np.kron(_SZ, _ID) / 2
IX = np.kron(_ID, _SX) / 2
IY = np.kron(_ID, _SY) / 2
IZ = np.kron(_ID, _SZ) / 2
IDENT4 = np.eye(4, dtype=complex)

# Full Pauli operators (eigenvalues +-1), convenient for drive terms.
XE = np.kron(_SX, _ID)
YE = np.kron(_SY, _ID)
XN = np.kron(_ID, _SX)
YN = np.kron(_ID, _SY)


def sigma_from_t2(t2_us: float) -> float:
    """Quasi-static Gaussian detuning std (kHz) equivalent to a Gaussian
    free-induction decay exp[-(t/T2)^2], with T2 in microseconds.

    sigma = 1 / (sqrt(2) * pi * T2), converted from MHz to kHz.
    """
    if t2_us <= 0:
        raise ValueError("T2 must be positive")
    return 1e3 / (SQRT2 * np.pi * t2_us)


def _require_finite(obj, names) -> bool:
    """Refuse NaN and +-inf in the named fields of obj, naming the field. A
    tuple or list field is checked entry by entry, and an array of sweep
    points is refused at its first bad point, as that point alone would be.
    Returns whether any of the fields is such an array."""
    stacked = False
    for name in names:
        value = getattr(obj, name)
        try:
            finite = math.isfinite(value)
        except TypeError:
            if isinstance(value, np.ndarray):
                stacked, bad = True, value[~np.isfinite(value)]
                finite, value = not bad.size, float(bad[0]) if bad.size else value
            else:  # a tuple or list field
                finite = all(map(math.isfinite, value))
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")
    return stacked


@dataclass(frozen=True)
class SpinSystemParams:
    """Physical constants of the electron-nucleus pair.

    b_ext in tesla, gamma_e in GHz/T, gamma_n in MHz/T, hyperfine couplings
    in kHz. Gyromagnetic ratios and the hyperfine coupling are signed
    (all negative for the silicon system this package models).
    """

    b_ext: float = 1.42
    gamma_e: float = -28.0
    gamma_n: float = -8.458
    a_hf: float = -448.5
    a_spectator: float = -120.0

    def __post_init__(self):
        _require_finite(self, ("b_ext", "gamma_e", "gamma_n", "a_hf", "a_spectator"))
        if self.b_ext <= 0:
            raise ValueError(f"b_ext must be positive, got {self.b_ext!r}")
        # High-field regime guard: electron Zeeman splitting must dominate
        # the hyperfine coupling or the secular approximation is invalid.
        if abs(self.f_e0) < 100 * abs(self.a_hf) * 1e-3:
            raise ValueError(
                "electron Zeeman splitting below 100x |a_hf|: outside the "
                "high-field regime the secular Hamiltonian A S_z I_z is invalid"
            )

    @property
    def f_e0(self) -> float:
        """Bare electron Larmor frequency |gamma_e * B|, MHz."""
        return abs(self.gamma_e) * 1e3 * self.b_ext

    @property
    def f_n0(self) -> float:
        """Bare nuclear Larmor frequency |gamma_n * B|, MHz."""
        return abs(self.gamma_n) * self.b_ext

    @property
    def a_mhz(self) -> float:
        return self.a_hf * 1e-3


def rng_for(seed: int, *key) -> np.random.Generator:
    """Deterministic, order-independent generator for one (seed, *key) tuple,
    the package's one seeding scheme; rng_for(seed) is default_rng(seed).

    String key parts are hashed to stable integers so labels can seed too.
    """
    words = tuple(
        int.from_bytes(hashlib.sha256(k.encode()).digest()[:4], "little")
        if isinstance(k, str) else int(k)
        for k in key
    )
    return np.random.default_rng(np.random.SeedSequence((seed,) + words))


class QuantumState:
    """Density matrix (4x4) of the joint system. A state built from its 4
    amplitudes keeps a read-only copy of them as .vector, next to their
    outer product; one built from a matrix has .vector None. The sequence
    engine propagates a state with a vector as amplitudes for as long as the
    run keeps it pure."""

    __slots__ = ("_rho", "vector")

    def __init__(self, vector=None, matrix=None):
        if (vector is None) == (matrix is None):
            raise ValueError("provide exactly one of vector, matrix")
        if vector is not None:
            vec = np.array(vector, dtype=complex).reshape(4)
            norm = np.linalg.norm(vec)
            if abs(norm - 1.0) > 1e-10:
                raise ValueError(f"state vector norm {norm} differs from 1")
            vec.flags.writeable = False
            self.vector = vec
            self._rho = np.outer(vec, vec.conj())
            return
        self.vector = None
        rho = np.asarray(matrix, dtype=complex).reshape(4, 4)
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValueError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
            raise ValueError("density matrix has negative eigenvalues")
        self._rho = rho

    # -- constructors -----------------------------------------------------
    @classmethod
    def basis(cls, electron: str, nucleus: str) -> "QuantumState":
        """Basis state from labels 'down'/'up' for each spin."""
        idx = 2 * _spin_index(electron) + _spin_index(nucleus)
        vec = np.zeros(4, dtype=complex)
        vec[idx] = 1.0
        return cls(vector=vec)

    # -- views -------------------------------------------------------------
    def density_matrix(self) -> np.ndarray:
        return self._rho


def _spin_index(label: str) -> int:
    try:
        return {"down": 0, "up": 1}[label]
    except KeyError:
        raise ValueError(f"spin label must be 'down' or 'up', got {label!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Quasi-static Gaussian noise widths (kHz) plus the spectator-nucleus
    detuning channel.

    sigma_ix: drive-axis (I_x) offset; sigma_iz / sigma_sz: nuclear / electron
    detuning offsets. With probability spectator_flip_prob a run executes with
    the ESR line detuned by the spectator hyperfine coupling.
    """

    sigma_ix: float = 0.0
    sigma_iz: float = 0.0
    sigma_sz: float = 0.0
    spectator_flip_prob: float = 0.0

    def __post_init__(self):
        _require_finite(
            self, ("sigma_ix", "sigma_iz", "sigma_sz", "spectator_flip_prob")
        )
        for name in ("sigma_ix", "sigma_iz", "sigma_sz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not 0 <= self.spectator_flip_prob <= 1:
            raise ValueError(
                f"spectator_flip_prob must be in [0, 1], got {self.spectator_flip_prob!r}"
            )


@dataclass(frozen=True)
class NoiseDraw:
    """One quasi-static draw, frozen for an entire pulse sequence. All in kHz."""

    delta_ix: float = 0.0
    delta_iz: float = 0.0
    delta_sz: float = 0.0
    spectator_detuned: bool = False


ZERO_DRAW = NoiseDraw()


@dataclass(frozen=True, eq=False)
class NoiseBatch:
    """N quasi-static draws, one per trial, as length-N arrays (kHz).

    The sequence engine runs all N trials at once along a leading trial
    axis; a single NoiseDraw is the batch of one.
    """

    delta_ix: np.ndarray
    delta_iz: np.ndarray
    delta_sz: np.ndarray
    spectator_detuned: np.ndarray

    @classmethod
    def stack(cls, draws) -> "NoiseBatch":
        draws = list(draws)
        if not draws:
            raise ValueError("a noise batch needs at least one draw")
        return cls(
            delta_ix=np.array([d.delta_ix for d in draws], dtype=float),
            delta_iz=np.array([d.delta_iz for d in draws], dtype=float),
            delta_sz=np.array([d.delta_sz for d in draws], dtype=float),
            spectator_detuned=np.array([d.spectator_detuned for d in draws], dtype=bool),
        )

    @classmethod
    def of(cls, noise: "NoiseDraw | NoiseBatch") -> "NoiseBatch":
        return noise if isinstance(noise, cls) else cls.stack([noise])

    def __len__(self) -> int:
        return len(self.delta_iz)


def sample_noise(model: NoiseModel, rng: np.random.Generator, trials: int) -> NoiseBatch:
    """Draw `trials` quasi-static noise realisations from one generator, row
    t being trial t: one (trials, 3) standard-normal block, every column
    drawn whatever the sigmas, then one uniform block for the spectator flag.
    A zero sigma gives +0.0 everywhere (never 0.0 * z, which is -0.0 where
    z < 0), so an all-zero model gives identical rows."""
    z = rng.standard_normal((trials, 3))
    ix, iz, sz = (
        sigma * z[:, i] if sigma else np.zeros(trials)
        for i, sigma in enumerate((model.sigma_ix, model.sigma_iz, model.sigma_sz))
    )
    return NoiseBatch(ix, iz, sz, rng.random(trials) < model.spectator_flip_prob)


# ---------------------------------------------------------------------------
# Hamiltonians


def transition_frequencies(params: SpinSystemParams) -> dict:
    """Labelled transition frequencies (MHz) under the secular approximation.

    Keys: f_e0 / f_n0 (bare Larmor), f_e_nuc_up / f_e_nuc_down (ESR line
    conditioned on the nuclear state), f_n_elec_up / f_n_elec_down (NMR line
    conditioned on the electron state).
    """
    alpha = -params.b_ext * params.gamma_e * 1e3  # electron Zeeman term, MHz
    beta = -params.b_ext * params.gamma_n
    a = params.a_mhz
    return {
        "f_e0": abs(alpha),
        "f_n0": abs(beta),
        "f_e_nuc_up": abs(alpha + a / 2),
        "f_e_nuc_down": abs(alpha - a / 2),
        "f_n_elec_up": abs(beta + a / 2),
        "f_n_elec_down": abs(beta - a / 2),
    }


def drive_operator(channel: str, phase_deg: float) -> np.ndarray:
    """Co-rotating drive axis operator (full Pauli, eigenvalues +-1)."""
    phi = np.deg2rad(phase_deg)
    if channel == "ESR":
        return np.cos(phi) * XE + np.sin(phi) * YE
    return np.cos(phi) * XN + np.sin(phi) * YN


def check_rwa(params: SpinSystemParams, channel: str, rabi_khz: float) -> None:
    """Refuse a drive whose (peak) Rabi frequency exceeds 10% of the
    transition it addresses, where the rotating wave approximation fails."""
    addressed = params.f_e0 if channel == "ESR" else params.f_n0
    if rabi_khz * 1e-3 > 0.1 * addressed:
        raise ValueError(
            f"{channel} Rabi frequency {rabi_khz!r} kHz exceeds 10% of the "
            f"addressed transition frequency ({addressed:.6g} MHz); rotating "
            "wave approximation invalid"
        )


def rotating_frame_hamiltonian(
    params: SpinSystemParams,
    noise_draw: NoiseDraw | NoiseBatch = ZERO_DRAW,
    frame: tuple | None = None,
    charge_config: str = "qd1",
) -> np.ndarray:
    """Drive-free secular Hamiltonian in the frame rotating at (f_e_ref, f_n_ref).

    Contains the detuning terms, the secular hyperfine term A S_z I_z in
    'qd1', the quasi-static noise offsets on I_z / S_z, the additive I_x
    drive-amplitude noise, and the spectator detuning on the ESR line. The
    sequence engine adds the co-rotating drive terms; frame=(0, 0) gives the
    lab-frame Zeeman + secular hyperfine Hamiltonian. 'qd2' and 'unloaded'
    give the same matrix: no hyperfine term, and no QD2 g-factor shift.

    A NoiseDraw gives a 4x4 matrix; a NoiseBatch of N draws gives (N, 4, 4),
    Hermitian by construction (real coefficients times Hermitian operators);
    a frame of (P, 1) columns, one per sequence of a stack, (P, N, 4, 4).
    """
    alpha = -params.b_ext * params.gamma_e * 1e3
    beta = -params.b_ext * params.gamma_n
    alpha = alpha + np.where(
        noise_draw.spectator_detuned, abs(params.a_spectator) * 1e-3, 0.0
    )
    if frame is None:
        frame = (abs(alpha), abs(beta))
    f_e_ref, f_n_ref = frame

    outer = np.multiply.outer
    h = outer(alpha - f_e_ref, SZ) + outer(beta - f_n_ref, IZ)
    if charge_config == "qd1" and params.a_hf != 0:
        h = h + params.a_mhz * (SZ @ IZ)
    h = h + outer(noise_draw.delta_sz * 1e-3, SZ) + outer(noise_draw.delta_iz * 1e-3, IZ)
    if np.any(noise_draw.delta_ix):
        h = h + outer(noise_draw.delta_ix * 1e-3, XN) / 2
    return h


# ---------------------------------------------------------------------------
# Propagation and channels


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


#: Index pairs of the two 2x2 blocks of a drive Hamiltonian: an NMR drive
#: couples the nuclear states at fixed electron state, an ESR drive (with no
#: I_x noise) the electron states at fixed nuclear state.
NMR_BLOCKS = ((0, 1), (2, 3))
ESR_BLOCKS = ((0, 2), (1, 3))
#: The structure of a drive-free Hamiltonian without I_x noise.
DIAGONAL = "diagonal"


def unitary(h: np.ndarray, dt_us, blocks=None) -> np.ndarray:
    """Exact propagator U = exp(-2*pi*i H dt) of a stack of Hamiltonians
    (..., 4, 4), the one place the engine builds propagators.

    blocks names a structure every Hamiltonian of the stack has: DIAGONAL
    exponentiates the diagonal, NMR_BLOCKS or ESR_BLOCKS use block_unitary,
    and None (any Hermitian H) takes one batched eigh. dt_us may be an array
    broadcasting against the eigenvalues (..., 4), such as a (P, 1, 1) column
    of durations.
    """
    if blocks == DIAGONAL:
        p = np.exp(-2j * np.pi * np.diagonal(h, axis1=-2, axis2=-1) * dt_us)
        u = np.zeros(p.shape + (4,), dtype=complex)
        u[..., range(4), range(4)] = p
        return u
    if blocks is not None:
        return block_unitary(h, dt_us, blocks)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-2j * np.pi * w * dt_us)[..., None, :]) @ dagger(v)


def block_unitary(h: np.ndarray, dt_us, pairs) -> np.ndarray:
    """Exact propagator U = exp(-2*pi*i H dt) in closed form for a stack of
    Hamiltonians (..., 4, 4) that are each a direct sum of two 2x2 blocks on
    the index pairs (i, j) in `pairs` (NMR_BLOCKS or ESR_BLOCKS).

    A block g0 + a.sigma gives exp(-2*pi*i g0 dt) (cos(2*pi |a| dt) -
    i 2*pi dt sinc(2 |a| dt) a.sigma); the sinc keeps a zero-norm block
    exact. dt_us broadcasts against (..., 2), one entry per block, as
    unitary's does against its eigenvalues.
    """
    (i0, j0), (i1, j1) = pairs
    # flat indices of the entries ii, jj, ij and ji of both blocks
    flat = [5 * i0, 5 * i1, 5 * j0, 5 * j1, 4 * i0 + j0, 4 * i1 + j1, 4 * j0 + i0, 4 * j1 + i1]
    v = h.reshape(h.shape[:-2] + (16,))[..., flat]
    h_ii, h_jj, h_ij, h_ji = v[..., 0:2].real, v[..., 2:4].real, v[..., 4:6], v[..., 6:8]
    a_z = (h_ii - h_jj) * 0.5
    norm = np.hypot(a_z, np.abs(h_ij))
    g = np.exp((-1j * np.pi) * ((h_ii + h_jj) * dt_us))
    gc = g * np.cos((2 * np.pi) * (norm * dt_us))
    gs = g * ((-2j * np.pi) * dt_us * np.sinc(2 * (norm * dt_us)))  # -i 2 pi dt sinc g
    gsz = gs * a_z
    u = np.zeros(gc.shape[:-1] + (16,), dtype=complex)
    u[..., flat] = np.concatenate([gc + gsz, gc - gsz, gs * h_ij, gs * h_ji], axis=-1)
    return u.reshape(u.shape[:-1] + (4, 4))


def populations(rho: np.ndarray) -> np.ndarray:
    """Born probabilities of the four joint basis states (per batch index)."""
    return np.real(np.diagonal(rho, axis1=-2, axis2=-1)).clip(0.0)


def marginal_of_populations(p: np.ndarray, subsystem: str) -> np.ndarray:
    """(down, up) populations of the 'electron' or 'nuclear' subsystem, from
    the four joint populations (..., 4)."""
    p = p.reshape(p.shape[:-1] + (2, 2))  # [..., electron, nucleus]
    if subsystem == "electron":
        return p[..., 0] + p[..., 1]
    if subsystem == "nuclear":
        return p[..., 0, :] + p[..., 1, :]
    raise ValueError("subsystem must be 'electron' or 'nuclear'")


# Masks selecting coherences of one subsystem: element (i, j) is scaled iff the
# chosen subsystem's index differs between i and j.
_ELECTRON_IDX = np.array([0, 0, 1, 1])
_NUCLEAR_IDX = np.array([0, 1, 0, 1])
_MASK_ELECTRON = (_ELECTRON_IDX[:, None] != _ELECTRON_IDX[None, :])
_MASK_NUCLEAR = (_NUCLEAR_IDX[:, None] != _NUCLEAR_IDX[None, :])


def apply_dephasing_channel(rho: np.ndarray, p_err: float, subsystem: str) -> np.ndarray:
    """Dephasing channel rho -> (1-p) rho + p diag_subsystem(rho).

    Scales every coherence of the chosen subsystem by (1 - p_err); the
    diagonal (and the other subsystem's internal coherences) are untouched.
    rho is a (..., 4, 4) array of density matrices.
    """
    if not 0 <= p_err <= 1:
        raise ValueError("p_err must be in [0, 1]")
    if subsystem == "electron":
        mask = _MASK_ELECTRON
    elif subsystem == "nuclear":
        mask = _MASK_NUCLEAR
    else:
        raise ValueError("subsystem must be 'electron' or 'nuclear'")
    return np.where(mask, (1.0 - p_err) * rho, rho)


def partial_trace_electron(rho: np.ndarray) -> np.ndarray:
    """Trace out the electron, returning the 2x2 nuclear density matrix
    (one per leading batch index)."""
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).trace(axis1=-4, axis2=-2)
