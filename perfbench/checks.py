"""Output checks that hold for any workload seed.

* Noise-free outputs are compared with closed forms (or, for the
  calibration phases and deterministic error-budget entries, with stored
  references) at tight tolerance.
* Monte Carlo outputs must lie within ``K_SIGMA`` standard errors of an
  exact expectation or of a high-trial reference stored in
  ``reference.json``. Every Monte Carlo output here is a mean of per-trial
  values in [0, 1], whose variance is at most p(1 - p); the binomial
  standard error sqrt(p(1 - p)/n) is therefore an upper bound, and the
  larger of the estimate's and the expectation's is used.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

K_SIGMA = 5.0
#: Absolute slack for closed-form comparisons of probabilities.
EXACT_TOL = 1e-9
#: Calibration phases are compared in degrees, modulo 360.
PHASE_TOL_DEG = 1e-6
#: The midpoint-corrected continuum integral tracks the lattice sum to 0.6%
#: over the bundled 2-10 nm standoffs; this bounds their disagreement.
S2_REL_TOL = 0.02

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def read_output(path: Path):
    """A CSV output as {column: float array}, a JSON output as parsed."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError(f"{path.name}: no data rows")
        return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    return json.loads(path.read_text())


class CheckContext:
    """Inputs shared by the checks of one run: the workload seed, the stored
    references, and lattice site counts. The counts are deterministic
    functions of the program, so ``cache_path`` (keyed by the caller to the
    source tree) may keep them across runs."""

    def __init__(self, seed: int, reference: dict | None = None, cache_path: Path | None = None):
        self.seed = seed
        self.reference = (json.loads(REFERENCE_PATH.read_text())
                          if reference is None else reference)
        self._cache_path = cache_path
        self._lattice = (json.loads(cache_path.read_text())
                         if cache_path is not None and cache_path.is_file() else {})

    def site_counts(self, diameter: float, f_z: float, thresholds) -> tuple:
        """(number of sites with |A| >= each threshold, peak |A|) from
        hyperfine.site_couplings."""
        key = json.dumps([diameter, f_z, [float(t) for t in thresholds]])
        if key not in self._lattice:
            from dotspin import hyperfine

            params = hyperfine.WavefunctionParams(dot_diameter=diameter, f_z=f_z)
            couplings = hyperfine.site_couplings(params)[1]
            self._lattice[key] = ([int(np.count_nonzero(couplings >= t)) for t in thresholds],
                                  float(couplings.max()) if couplings.size else 0.0)
            if self._cache_path is not None:
                self._cache_path.parent.mkdir(parents=True, exist_ok=True)
                self._cache_path.write_text(json.dumps(self._lattice))
        counts, peak = self._lattice[key]
        return counts, peak


# --------------------------------------------------------------------------
# helpers


def _binomial_se(p, n):
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    return np.sqrt(p * (1.0 - p) / n)


def _within_se(label, est, expected, n, own_se=None, n_expected=None) -> list:
    """|est - expected| <= K_SIGMA * se + EXACT_TOL elementwise. se combines
    the estimate's trials n with the expectation's own n_expected trials
    (None for an exact expectation)."""
    est = np.atleast_1d(np.asarray(est, dtype=float))
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    var = np.maximum(_binomial_se(est, 1.0), _binomial_se(expected, 1.0)) ** 2
    if own_se is not None:
        var = np.maximum(var, np.atleast_1d(own_se) ** 2 * n)
    scale = 1.0 / n + (1.0 / n_expected if n_expected else 0.0)
    tol = K_SIGMA * np.sqrt(var * scale) + EXACT_TOL
    bad = np.flatnonzero(~(np.abs(est - expected) <= tol))
    return [f"{label}[{i}]: {est[i]!r} vs expected {expected[i]!r} "
            f"(tolerance {tol[i]:.3g})" for i in bad[:5]]


def _close(label, got, expected, tol, rel=False) -> list:
    got = np.atleast_1d(np.asarray(got, dtype=float))
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    if got.shape != expected.shape:
        return [f"{label}: shape {got.shape} vs expected {expected.shape}"]
    scale = np.abs(expected) if rel else 1.0
    bad = np.flatnonzero(~(np.abs(got - expected) <= tol * scale))
    return [f"{label}[{i}]: {got[i]!r} vs expected {expected[i]!r}" for i in bad[:5]]


def _params(config: dict):
    from dotspin.core import SpinSystemParams

    return SpinSystemParams(**config.get("params", {}))


def _only_noise(config: dict, allowed=()) -> list:
    extra = [k for k, v in config.get("noise", {}).items() if v and k not in allowed]
    return [f"closed form assumes no {k} noise" for k in extra]


# --------------------------------------------------------------------------
# noiseless-sweeps: closed forms


def check_chevron(out, step, ctx) -> list:
    """Two-level Rabi formula on the nuclear line, shifted by a*s_e when the
    electron is loaded: P = W0^2/W^2 sin^2(pi W t), W^2 = rabi^2 + detuning^2."""
    config = step.config
    params = _params(config)
    beta = -params.b_ext * params.gamma_n
    shift = 0.0
    if config.get("charge_config", "unloaded") == "qd1":
        s_e = -0.5 if config.get("electron_spin", "down") == "down" else 0.5
        shift = params.a_mhz * s_e
    rabi = config.get("rabi", 2.0) * 1e-3
    detuning = beta + shift - out["frequency_mhz"]
    w = np.hypot(rabi, detuning)
    expected = (rabi / w) ** 2 * np.sin(np.pi * w * out["duration_us"]) ** 2
    return _only_noise(config) + _close("p_flip", out["p_flip"], expected, EXACT_TOL)


def check_shuttle_phase(out, step, ctx) -> list:
    """Nuclear Ramsey picking up the hyperfine detuning |A|/2 while the
    spin-down electron sits on QD1: P_up = (1 + cos(2 pi (A/2) t_load))/2."""
    config = step.config
    if config.get("p_err", 0.0):
        return ["closed form assumes p_err = 0"]
    a = _params(config).a_mhz
    expected = (1 + np.cos(2 * np.pi * (a / 2) * out["t_load_us"])) / 2
    return _only_noise(config) + _close("p_up", out["p_up"], expected, EXACT_TOL)


def check_shuttle_repeated(out, step, ctx) -> list:
    """Coherence after k dephasing cycles is (1 - p_err)^k; opposite
    projection phases are complementary."""
    config = step.config
    expected = (1.0 - config.get("p_err", 0.0)) ** out["k_cycles"]
    return (_only_noise(config)
            + _close("coherence", out["coherence"], expected, EXACT_TOL)
            + _close("p_x + p_mx", out["p_x"] + out["p_mx"], np.ones_like(expected), EXACT_TOL)
            + _close("p_y + p_my", out["p_y"] + out["p_my"], np.ones_like(expected), EXACT_TOL))


def check_shuttle_electron(out, step, ctx) -> list:
    """Electron Ramsey with transfer dephasing p: P_up = (1 + (1-p) cos phi)/2."""
    config = step.config
    p = config.get("p_transfer", 0.0)
    expected = (1 + (1 - p) * np.cos(np.deg2rad(out["phi_deg"]))) / 2
    return _only_noise(config) + _close("p_up", out["p_up"], expected, EXACT_TOL)


# --------------------------------------------------------------------------
# noisy-trials


def check_ramsey(out, step, ctx) -> list:
    """Quasi-static Gaussian detuning (width sigma_iz) on ideal pi/2 pulses:
    E[P_up] = (1 + cos(2 pi d tau) exp(-2 (pi sigma tau)^2))/2."""
    config = step.config
    if config.get("charge_config", "unloaded") != "unloaded":
        return ["closed form assumes the unloaded configuration"]
    d = config.get("detuning_khz", 2.0) * 1e-3
    sigma = config.get("noise", {}).get("sigma_iz", 0.0) * 1e-3
    tau = out["tau_us"]
    expected = (1 + np.cos(2 * np.pi * d * tau) * np.exp(-2 * (np.pi * sigma * tau) ** 2)) / 2
    return (_only_noise(config, ("sigma_iz",))
            + _within_se("p_up", out["p_up"], expected, config["trials"],
                         own_se=out["p_up_stderr"]))


def check_hahn(out, step, ctx) -> list:
    """Ideal echo refocuses any static detuning exactly: P_up = 0."""
    config = step.config
    if config.get("detuning_khz", 0.0) or config.get("charge_config", "unloaded") != "unloaded":
        return ["closed form assumes zero detuning, unloaded"]
    return (_only_noise(config, ("sigma_iz",))
            + _close("p_up", out["p_up"], np.zeros_like(out["p_up"]), EXACT_TOL))


_JOINT = ("p_down_Down", "p_down_Up", "p_up_Down", "p_up_Up")


def check_parity(out, step, ctx) -> list:
    """Joint probabilities normalised, parity consistent with them, each
    within K_SIGMA of the high-trial reference."""
    ref = ctx.reference[step.name]
    joint = np.stack([out[k] for k in _JOINT])
    problems = _close("phi_deg", out["phi_deg"], ref["phi_deg"], 1e-12)
    problems += _close("sum p", joint.sum(axis=0), np.ones(joint.shape[1]), EXACT_TOL)
    problems += _close("parity", out["parity"],
                       joint[0] + joint[3] - joint[1] - joint[2], EXACT_TOL)
    for k in _JOINT:
        problems += _within_se(k, out[k], ref[k], step.config["trials"],
                               n_expected=ref["trials"])
    return problems


def _phase_problems(label, got, expected) -> list:
    diff = (np.asarray(got, float) - np.asarray(expected, float) + 180.0) % 360.0 - 180.0
    if np.any(np.abs(diff) > PHASE_TOL_DEG):
        return [f"{label}: {got} vs reference {expected}"]
    return []


def check_tomography(out, step, ctx) -> list:
    """Calibration equals the stored noise-free reference; basis
    probabilities within K_SIGMA of the high-trial reference; components and
    fidelity consistent with the probabilities."""
    ref = ctx.reference[step.name]
    res = out["result"]
    cal, ref_cal = res["calibration"], ref["calibration"]
    problems = _phase_problems("phi_e", cal["phi_e"], ref_cal["phi_e"])
    problems += _phase_problems("phi_n", cal["phi_n"], ref_cal["phi_n"])
    problems += _close("calibration parity", cal["parity"], ref_cal["parity"], EXACT_TOL)
    probs = {b: np.asarray(res["probabilities"][b], float) for b in ("ZZ", "XX", "YY")}
    for b, p in probs.items():
        problems += _close(f"sum p {b}", p.sum(), 1.0, EXACT_TOL)
        problems += _within_se(f"p {b}", p, ref["probabilities"][b],
                               step.config["trials"], n_expected=ref["trials"])
    comps = {"f_zz": probs["ZZ"][0] + probs["ZZ"][3],
             "f_xx": probs["XX"][0] + probs["XX"][3],
             "f_yy": probs["YY"][1] + probs["YY"][2]}
    for k, v in comps.items():
        problems += _close(k, res["components"][k], v, EXACT_TOL)
    fidelity = sum(comps.values()) / 2 - 0.5
    problems += _close("fidelity", res["fidelity"], fidelity, EXACT_TOL)
    return problems


def _fidelity_se(fidelities, n: int, n_ref: int) -> float:
    """Upper bound on the standard error of a Bell fidelity (f_zz + f_xx +
    f_yy - 1)/2 whose three components are means over n independent trials
    of values in [0, 1]: at fixed sum the bound sum c(1 - c) is largest with
    equal components q = (2F + 1)/3."""
    q = np.clip((2 * np.asarray(fidelities, float) + 1) / 3, 0.0, 1.0)
    var = np.max(q * (1 - q))
    return math.sqrt(3 * var * (1 / n + 1 / n_ref)) / 2


def check_error_budget(out, step, ctx) -> list:
    """Noise-free entries (baseline, the stratified spectator flips, the
    pulse-length error) equal the stored reference; the Monte Carlo
    entries lie within K_SIGMA of the high-trial reference."""
    ref = ctx.reference[step.name]
    res = out["result"]
    n = int(out["provenance"]["trials"])
    problems = []
    for k in ("baseline_fidelity", "spectator_nucleus", "pulse_calibration"):
        problems += _close(k, res[k], ref[k], 1e-7)
    base = res["baseline_fidelity"]
    for k in ("electron_t2star", "nmr_control"):
        f = base - np.array([res[k], ref[k]]) / 100.0
        tol = K_SIGMA * 100.0 * _fidelity_se(f, n, ref["trials"]) + EXACT_TOL
        if not abs(res[k] - ref[k]) <= tol:
            problems.append(f"{k}: {res[k]!r} vs reference {ref[k]!r} (tolerance {tol:.3g})")
    f = np.array([res["total_fidelity"], ref["total_fidelity"]])
    tol = K_SIGMA * _fidelity_se(f, n, ref["trials"]) + EXACT_TOL
    if not abs(f[0] - f[1]) <= tol:
        problems.append(f"total_fidelity: {f[0]!r} vs reference {f[1]!r} (tolerance {tol:.3g})")
    return problems


# --------------------------------------------------------------------------
# lattice-stats


def check_hyperfine(out, step, ctx) -> list:
    """P(some occupied site has |A| >= theta) = 1 - (1 - p_occ)^N(theta),
    N(theta) counted from site_couplings; the peak coupling is exact."""
    from dotspin import hyperfine

    config = step.config
    f_z = config.get("f_z", hyperfine.DEFAULT_F_Z)
    p_occ = config.get("ppm", 800.0) * 1e-6
    diameters, thresholds = out["diameter_nm"], out["threshold_khz"]
    expected, max_a = np.empty(len(diameters)), np.empty(len(diameters))
    for d in np.unique(diameters):
        rows = np.flatnonzero(diameters == d)
        counts, peak = ctx.site_counts(float(d), f_z, thresholds[rows])
        expected[rows] = [-math.expm1(n * math.log1p(-p_occ)) for n in counts]
        max_a[rows] = peak
    return (_within_se("probability", out["probability"], expected,
                       config["draws"], own_se=out["stderr"])
            + _close("max_coupling_khz", out["max_coupling_khz"], max_a, 1e-9, rel=True))


def check_vanvleck(out, step, ctx) -> list:
    """The discrete lattice sum agrees with its continuum integral; T2* is
    sqrt(2/M2) for both."""
    m_sum, m_int = out["m2_sum"], out["m2_integral"]
    problems = _close("m2_sum vs m2_integral", m_sum, m_int, S2_REL_TOL, rel=True)
    problems += _close("t2star_sum_ms", out["t2star_sum_ms"],
                       np.sqrt(2 / m_sum) * 1e3, 1e-12, rel=True)
    problems += _close("t2star_integral_ms", out["t2star_integral_ms"],
                       np.sqrt(2 / m_int) * 1e3, 1e-12, rel=True)
    return problems


def check_s1(out, step, ctx) -> list:
    """The seed reached the program and the fit produced finite, positive
    values. The fitted values themselves are not compared with the truth:
    fit_esr_histogram mislabels the peaks on about 5% of seeds (a1 near
    a1 - a2), so no such check holds for every seed."""
    res = out["result"]
    problems = []
    if out["provenance"]["seed"] != ctx.seed:
        problems.append(f"provenance seed {out['provenance']['seed']} != workload seed {ctx.seed}")
    values = dict(res["histogram_fit"])
    values.update({k: v for k, v in res.items() if k.startswith("t1_")})
    for k, v in values.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            problems.append(f"{k}: {v!r} is not a finite positive number")
    return problems


def _fidelity_model(m: int, t_shot_ms: float, t1_hours: float, f_e: float) -> tuple:
    f_t1 = math.exp(-2.0 * m * t_shot_ms * 1e-3 / (t1_hours * 3600.0))
    f_shot = math.fsum(math.comb(2 * m, k) * (1 - f_e) ** k * f_e ** (2 * m - k)
                       for k in range(m + 1))
    return f_t1, f_shot, f_t1 * f_shot + (1 - f_t1) * (1 - f_shot)


def check_readout_fidelity(out, step, ctx) -> list:
    """f_t1, f_shot and f_n from exact binomial sums; m_opt maximises f_n."""
    from dotspin.readout import NuclearReadoutConfig

    c = NuclearReadoutConfig()
    ms = np.arange(1, step.meta["m_max"] + 1)
    rows = np.array([_fidelity_model(int(m), c.t_shot_ms, c.t1_n_hours, c.f_e_avg) for m in ms])
    problems = _close("m", out["m"], ms, 0.0)
    for j, k in enumerate(("f_t1", "f_shot", "f_n")):
        problems += _close(k, out[k], rows[:, j], 1e-12)
    m_opt = int(out["m_opt"][0])
    if not (1 <= m_opt <= len(ms) and rows[m_opt - 1, 2] >= rows[:, 2].max() - 1e-12):
        problems.append(f"m_opt {m_opt} does not maximise f_n")
    return problems


def check_readout_mc(out, step, ctx) -> list:
    """Monte Carlo readout fidelity within K_SIGMA of nuclear_fidelity_model."""
    from dotspin.readout import NuclearReadoutConfig

    c = NuclearReadoutConfig(m_shots=out["m_shots"])
    f_n = _fidelity_model(c.m_shots, c.t_shot_ms, c.t1_n_hours, c.f_e_avg)[2]
    if out["calls"] != step.meta["calls"]:
        return [f"calls {out['calls']} != {step.meta['calls']}"]
    return _within_se("readout fidelity", out["correct"] / out["calls"], f_n, out["calls"])


CHECKS = {
    "2i_ramsey": check_ramsey,
    "2j_hahn": check_hahn,
    "3c_parity_nuclear": check_parity,
    "3d_parity_electron": check_parity,
    "3e_tomography": check_tomography,
    "error_budget": check_error_budget,
    "2e_chevron": check_chevron,
    "2f_chevron_down": check_chevron,
    "2f_chevron_up": check_chevron,
    "2g_rabi": check_chevron,
    "4b_shuttle_phase": check_shuttle_phase,
    "4d_shuttle_repeated": check_shuttle_repeated,
    "4f_shuttle_electron": check_shuttle_electron,
    "ext1_hyperfine": check_hyperfine,
    "s2_vanvleck": check_vanvleck,
    "s1_stats": check_s1,
    "readout_fidelity": check_readout_fidelity,
    "readout_mc": check_readout_mc,
}


def check_step(step, outdir: Path, ctx: CheckContext) -> list:
    """Problems with the output ``step`` left in ``outdir``."""
    path = Path(outdir) / step.output
    if not path.is_file():
        return [f"{step.output}: missing"]
    try:
        return CHECKS[step.name](read_output(path), step, ctx)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"{step.output}: unreadable or incomplete ({exc!r})"]
