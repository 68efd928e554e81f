"""Electron readout fidelities, repetitive majority-vote nuclear readout,
the analytic nuclear readout fidelity model, and confusion-matrix correction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import _require_finite


@dataclass(frozen=True)
class ReadoutFidelities:
    """Asymmetric single-shot electron readout fidelities.

    f_down = P(report down | down), f_up = P(report up | up).
    """

    f_down: float = 0.884
    f_up: float = 0.733

    def __post_init__(self):
        for f in (self.f_down, self.f_up):
            if not 0.5 < f <= 1.0:
                raise ValueError("readout fidelities must be in (0.5, 1]")

    def confusion_matrix(self) -> np.ndarray:
        """2x2 map from true to reported electron-state probabilities,
        column = true state (down, up)."""
        return np.array(
            [
                [self.f_down, 1.0 - self.f_up],
                [1.0 - self.f_down, self.f_up],
            ]
        )


@dataclass(frozen=True)
class NuclearReadoutConfig:
    """Parameters of the repetitive nuclear readout.

    m_shots readout shots, each taking t_shot_ms and containing two
    conditional-inversion electron reads; t1_n_hours is the nuclear spin
    lifetime and f_e_avg the average single-read electron fidelity.
    """

    m_shots: int = 26
    t_shot_ms: float = 8.0
    t1_n_hours: float = 1.0
    f_e_avg: float = 0.765

    def __post_init__(self):
        if not isinstance(self.m_shots, numbers.Integral) or isinstance(self.m_shots, bool):
            raise TypeError(f"m_shots: expected int, got {self.m_shots!r}")
        _require_finite(self, ("t_shot_ms", "t1_n_hours"))
        if self.m_shots < 1:
            raise ValueError(f"m_shots must be >= 1, got {self.m_shots!r}")
        for name in ("t_shot_ms", "t1_n_hours"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        # a probability; the comparison also refuses NaN and +-inf
        if not 0 <= self.f_e_avg <= 1:
            raise ValueError(f"f_e_avg must be in [0, 1], got {self.f_e_avg!r}")
        # repetitive_nuclear_readout's per-draw thresholds, built once per
        # config: two reads, then the per-shot flip probability
        hazard = 2.0 * self.t_shot_ms * 1e-3 / (self.t1_n_hours * 3600.0)
        thresholds = np.array([self.f_e_avg, self.f_e_avg, -math.expm1(-hazard)])
        thresholds.flags.writeable = False
        object.__setattr__(self, "_thresholds", thresholds)


def repetitive_nuclear_readout(
    nuclear_up: bool,
    config: NuclearReadoutConfig,
    rng: np.random.Generator,
    previous_reported: bool | None = None,
):
    """Simulate M-shot repetitive QND nuclear readout with majority voting.

    Each shot contributes two electron reads of the current nuclear state,
    each correct with probability f_e_avg. Between shots the nucleus flips
    with a Poisson hazard of 2*t_shot/T1. Ties over the 2M votes break
    toward the previous reported state (the best prior in QND usage);
    previous_reported defaults to the initial true state.

    Returns {'reported': bool, 'votes_up': int, 'votes_down': int}.
    """
    if previous_reported is None:
        previous_reported = nuclear_up
    m = config.m_shots
    # per shot, in stream order: two reads, then the flip draw; one byte per
    # draw, 1 for a correct read and 1 for a flip
    hits = (rng.random((m, 3)) < config._thresholds).tobytes()
    if 1 not in hits[2::3]:
        # the usual case at T1 >> M t_shot: every read sees the initial state
        n_correct = hits.count(1)
        votes_up = n_correct if nuclear_up else 2 * m - n_correct
    else:
        state, votes_up = nuclear_up, 0
        for i in range(0, 3 * m, 3):
            n_correct = hits[i] + hits[i + 1]
            votes_up += n_correct if state else 2 - n_correct
            if hits[i + 2]:
                state = not state
    votes_down = 2 * m - votes_up
    if votes_up > votes_down:
        reported = True
    elif votes_up < votes_down:
        reported = False
    else:
        reported = previous_reported
    return {"reported": reported, "votes_up": votes_up, "votes_down": votes_down}


def nuclear_fidelity_model(config: NuclearReadoutConfig) -> dict:
    """Analytic first-order model of the repetitive-readout fidelity.

    f_t1 = exp(-2M t_shot / T1) is the probability that the nucleus survives
    the 2M electron reads without decaying. f_shot is the cumulative binomial
    probability that a majority of the 2M reads (ties counted favourably,
    matching the tie-break toward the prior) is correct:

        f_shot = sum_{k=0}^{M} C(2M, k) (1-F)^k F^(2M-k)

    The combined estimate weights the two branches by the survival
    probability:

        f_n = f_t1 * f_shot + (1 - f_t1) * (1 - f_shot)

    Note the published form of this estimate uses the symbol for the survival
    factor where the decay probability belongs; written as above, the model
    reproduces its own quoted optimum (1 - f_n ~ 1e-4 at M = 26).
    """
    m = config.m_shots
    f = config.f_e_avg
    f_t1 = float(np.exp(-2.0 * m * config.t_shot_ms * 1e-3 / (config.t1_n_hours * 3600.0)))
    # P(#errors <= M) over 2M reads with per-read error rate (1 - f), exactly:
    # with f = a/b the sum is a^M sum_k C(2M, k) (b-a)^k a^(M-k) over b^(2M),
    # integers, so int / int rounds it once; the inner sum by Horner's rule
    a, b = float(f).as_integer_ratio()
    s, c_k = 0, 1
    for k in range(m + 1):
        s = s * a + math.comb(2 * m, k) * c_k
        c_k *= b - a
    f_shot = s * a**m / b ** (2 * m)
    f_n = f_t1 * f_shot + (1.0 - f_t1) * (1.0 - f_shot)
    return {"f_t1": f_t1, "f_shot": f_shot, "f_n": f_n}


def _best_shots(rows) -> int:
    """The M of the largest f_n among fidelity_curve rows; an f_n within
    1e-15 of the best so far is a tie, which the smaller M wins."""
    best_m, best_f = 1, -np.inf
    for m, _, _, f_n in rows:
        if f_n > best_f + 1e-15:
            best_m, best_f = m, f_n
    return best_m


def fidelity_curve(config: NuclearReadoutConfig, m_max: int = 50) -> list:
    """Rows of (M, f_t1, f_shot, f_n) for M in [1, m_max]."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    rows = []
    for m in range(1, m_max + 1):
        r = nuclear_fidelity_model(replace(config, m_shots=m))
        rows.append((m, r["f_t1"], r["f_shot"], r["f_n"]))
    return rows


def confuse_readout(true_probs: np.ndarray, fidelities: ReadoutFidelities) -> np.ndarray:
    """Forward model: apply the electron confusion matrix (tensored with the
    nuclear identity) to a 4-outcome joint distribution in the basis order
    (electron, nucleus) = (down,Down), (down,Up), (up,Down), (up,Up)."""
    m = np.kron(fidelities.confusion_matrix(), np.eye(2))
    return m @ np.asarray(true_probs, dtype=float)


def correct_readout(raw_probs: np.ndarray, fidelities: ReadoutFidelities) -> dict:
    """Invert the electron confusion matrix on a joint 4-outcome distribution.

    Nuclear readout errors are not corrected. Corrected probabilities may
    exit [0, 1] under statistical fluctuation; they are clamped (and
    renormalised) with a flag.
    """
    raw = np.asarray(raw_probs, dtype=float)
    if abs(raw.sum() - 1.0) > 1e-6:
        raise ValueError("raw probabilities must sum to 1")
    m = np.kron(fidelities.confusion_matrix(), np.eye(2))
    corrected = np.linalg.solve(m, raw)
    clamped = bool(np.any(corrected < -1e-12) or np.any(corrected > 1 + 1e-12))
    if clamped:
        corrected = corrected.clip(0.0, 1.0)
        corrected = corrected / corrected.sum()
    return {"probabilities": corrected, "clamped": clamped}
