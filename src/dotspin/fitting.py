"""Nonlinear least-squares extraction of coherence times, flip rates,
spectral splittings and shuttle error probabilities from measured or
simulated curves.

All fitters are deterministic given the data: multi-start grids cover the
frequency-like parameters, and uncertainties are the linearised 1-sigma
values from the Jacobian covariance at the optimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FitResult",
    "fit_sinusoid",
    "fit_ramsey",
    "fit_hahn",
    "fit_flip_intervals",
    "fit_esr_histogram",
    "classify_shifts",
    "coherence_metric",
    "fit_coherence_decay",
]

#: Fewest samples fit_esr_histogram accepts.
MIN_SPECTRUM_SAMPLES = 100


@dataclass
class FitResult:
    model: str
    parameters: dict
    uncertainties: dict
    residual_norm: float
    converged: bool
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(v < 0 for v in self.uncertainties.values() if np.isfinite(v)):
            raise ValueError("uncertainties must be non-negative")

    def value(self, name: str) -> float:
        return self.parameters[name]

    def sigma(self, name: str) -> float:
        return self.uncertainties[name]


def _fit(fn, x, y, p0, bounds, names, model, sigma=None,
         absolute_sigma=False) -> FitResult:
    from scipy.optimize import curve_fit

    try:
        popt, pcov = curve_fit(
            fn, x, y, p0=p0, bounds=bounds, maxfev=5000, ftol=1e-11, xtol=1e-11,
            sigma=sigma, absolute_sigma=absolute_sigma,
        )
    except RuntimeError:
        return FitResult(model, dict(zip(names, p0)),
                         {n: np.inf for n in names}, np.inf, converged=False)
    resid = fn(x, *popt) - y
    sigmas = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    return FitResult(
        model,
        dict(zip(names, popt)),
        dict(zip(names, sigmas)),
        float(np.linalg.norm(resid)),
        converged=bool(np.all(np.isfinite(popt))),
    )


def _frequency_grid(x, y, n_grid: int = 10):
    """Candidate frequencies: FFT peak plus a log-spaced sweep up to Nyquist."""
    x = np.asarray(x, dtype=float)
    dx = np.median(np.diff(np.sort(x)))
    nyquist = 0.5 / dx
    yc = y - np.mean(y)
    spectrum = np.abs(np.fft.rfft(yc))
    freqs = np.fft.rfftfreq(len(x), d=dx)
    candidates = [freqs[np.argmax(spectrum[1:]) + 1]] if len(freqs) > 1 else []
    candidates += list(np.geomspace(nyquist / 200, nyquist, n_grid))
    return [f for f in candidates if 0 < f <= nyquist], nyquist


def fit_sinusoid(x, y) -> FitResult:
    """A*cos(2 pi f x + phi) + c with a multi-start frequency grid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def model(t, a, f, phi, c):
        return a * np.cos(2 * np.pi * f * t + phi) + c

    amp0 = (np.max(y) - np.min(y)) / 2 or 1.0
    best = None
    grid, nyquist = _frequency_grid(x, y)
    for f0 in grid:
        res = _fit(model, x, y, [amp0, f0, 0.0, np.mean(y)],
                   ([0, 0, -2 * np.pi, -np.inf], [np.inf, nyquist, 2 * np.pi, np.inf]),
                   ["amplitude", "frequency", "phase", "offset"], "sinusoid")
        if best is None or res.residual_norm < best.residual_norm:
            best = res
    return best


def fit_ramsey(tau, p, alpha_fixed: float | None = None) -> FitResult:
    """Detuned free-induction decay A cos(2 pi f tau + phi)
    exp[-(tau/T2*)^alpha] + c. alpha_fixed pins the stretching exponent
    (e.g. 2 for a pure Gaussian envelope)."""
    tau = np.asarray(tau, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(tau) < 8:
        raise ValueError("need at least 8 points to fit a Ramsey decay")
    span = np.max(tau) - np.min(tau)
    amp0 = (np.max(p) - np.min(p)) / 2 or 0.5
    grid, nyquist = _frequency_grid(tau, p)

    if alpha_fixed is None:
        names = ["amplitude", "frequency", "phase", "t2star", "alpha", "offset"]

        def model(t, a, f, phi, t2, alpha, c):
            return a * np.cos(2 * np.pi * f * t + phi) * np.exp(-((t / t2) ** alpha)) + c

        lo = [0, 0, -2 * np.pi, span * 1e-3, 0.5, -np.inf]
        hi = [np.inf, nyquist, 2 * np.pi, span * 1e3, 4.0, np.inf]

        def p0(f0):
            return [amp0, f0, 0.0, span / 2, 2.0, np.mean(p)]
    else:
        names = ["amplitude", "frequency", "phase", "t2star", "offset"]

        def model(t, a, f, phi, t2, c):
            return (a * np.cos(2 * np.pi * f * t + phi)
                    * np.exp(-((t / t2) ** alpha_fixed)) + c)

        lo = [0, 0, -2 * np.pi, span * 1e-3, -np.inf]
        hi = [np.inf, nyquist, 2 * np.pi, span * 1e3, np.inf]

        def p0(f0):
            return [amp0, f0, 0.0, span / 2, np.mean(p)]

    best = None
    noise_floor = 1.2 * np.sqrt(len(p)) * max(np.std(np.diff(p)) / np.sqrt(2), 1e-12)
    for f0 in grid:
        res = _fit(model, tau, p, p0(f0), (lo, hi), names, "ramsey")
        if best is None or res.residual_norm < best.residual_norm:
            best = res
        if best.residual_norm < noise_floor:
            break
    if alpha_fixed is not None:
        best.parameters["alpha"] = alpha_fixed
        best.uncertainties["alpha"] = 0.0
    if not best.converged:
        best.flags["non_convergence"] = True
    return best


def fit_hahn(tau, p) -> FitResult:
    """Echo decay A exp(-2 tau / T2) + c, tau the half-interval. Fitted via
    the decay rate so that flat data yields a clean infinite-T2 flag."""
    tau = np.asarray(tau, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(tau) < 4:
        raise ValueError("need at least 4 points to fit an echo decay")

    def model(t, a, rate, c):
        return a * np.exp(-2.0 * t * rate) + c

    amp0 = p[np.argmin(tau)] - p[np.argmax(tau)]
    span = np.max(tau) - np.min(tau)
    res = _fit(model, tau, p, [amp0 or 0.5, 1.0 / span, np.min(p)],
               ([-np.inf, 0.0, -np.inf], [np.inf, np.inf, np.inf]),
               ["amplitude", "rate", "offset"], "hahn")
    rate = res.parameters.pop("rate")
    sigma_rate = res.uncertainties.pop("rate")
    # with a negligible fitted amplitude the rate is undetermined
    amp_scale = max(float(np.ptp(p)), abs(res.parameters["offset"]), 1e-12)
    degenerate = abs(res.parameters["amplitude"]) < 1e-6 * amp_scale
    if rate <= 0 or degenerate or (rate < 2.0 * sigma_rate and rate * span < 1e-3):
        res.parameters["t2"] = np.inf
        res.uncertainties["t2"] = np.inf
        res.flags["infinite_t2"] = True
    else:
        res.parameters["t2"] = 1.0 / rate
        res.uncertainties["t2"] = sigma_rate / rate**2
    return res


def fit_flip_intervals(intervals, bins=None) -> FitResult:
    """Characteristic lifetime from waiting intervals between flips: an
    exponential fit to the interval histogram, cross-checked by the
    maximum-likelihood mean (reported in flags)."""
    from scipy.optimize import curve_fit

    intervals = np.asarray(intervals, dtype=float)
    if len(intervals) < 10:
        raise ValueError("need at least 10 intervals to fit a lifetime")
    if bins is None:
        # Freedman-Diaconis, floor of 5 bins
        iqr = np.subtract(*np.percentile(intervals, [75, 25]))
        width = 2 * iqr / len(intervals) ** (1 / 3)
        bins = max(int(np.ceil(np.ptp(intervals) / width)) if width > 0 else 5, 5)
    counts, edges = np.histogram(intervals, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2

    def model(t, a, t1):
        return a * np.exp(-t / t1)

    mean = float(np.mean(intervals))
    # Poisson-weighted histogram fit; second pass weights by the model
    # prediction (observed-count weights bias the parameters low)
    weights = np.sqrt(np.clip(counts, 1, None)).astype(float)
    bounds = ([0, mean * 1e-3], [np.inf, mean * 1e3])
    try:
        popt, _ = curve_fit(
            model, centers, counts.astype(float),
            p0=[float(counts[0]) or 1.0, mean], sigma=weights,
            bounds=bounds, maxfev=20000,
        )
        weights = np.sqrt(np.clip(model(centers, *popt), 1, None))
        popt, pcov = curve_fit(
            model, centers, counts.astype(float), p0=popt, sigma=weights,
            absolute_sigma=True, bounds=bounds, maxfev=20000,
        )
        sigmas = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
        res = FitResult(
            "flip_intervals",
            {"amplitude": popt[0], "t1": popt[1]},
            {"amplitude": sigmas[0], "t1": sigmas[1]},
            float(np.linalg.norm(model(centers, *popt) - counts)),
            converged=True,
        )
    except RuntimeError:
        res = FitResult("flip_intervals", {"amplitude": np.nan, "t1": mean},
                        {"amplitude": np.inf, "t1": np.inf}, np.inf, False)
    res.flags["ml_mean"] = mean
    res.flags["ml_sigma"] = mean / np.sqrt(len(intervals))
    return res


def fit_esr_histogram(frequencies, bin_width: float = 8.0) -> FitResult:
    """Four-Gaussian spectrum with centres f0 +- a1 +- a2 and shared width.

    frequencies and bin_width share units (the archival preset is 8 kHz
    bins). Returns f0, a1, a2, sigma and the four peak amplitudes.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if len(frequencies) < MIN_SPECTRUM_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SPECTRUM_SAMPLES} samples to fit the spectrum"
        )
    edges = np.arange(
        np.min(frequencies) - bin_width, np.max(frequencies) + 2 * bin_width,
        bin_width,
    )
    counts, edges = np.histogram(frequencies, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2

    def model(f, f0, a1, a2, sigma, h1, h2, h3, h4):
        total = np.zeros_like(f)
        for h, s1, s2 in zip((h1, h2, h3, h4), (1, 1, -1, -1), (1, -1, 1, -1)):
            mu = f0 + s1 * a1 + s2 * a2
            total = total + h * np.exp(-((f - mu) ** 2) / (2 * sigma**2))
        return total

    # The midrange of the 2nd-98th percentiles sits between the outer peaks
    # whatever their weights; the mean is pulled towards the heavier pair and,
    # started there, the fit can settle on a local minimum that mislabels
    # the peaks.
    lo, hi = np.percentile(frequencies, [2, 98])
    f0_guess = float(lo + hi) / 2
    spread = float(np.std(frequencies))
    a1_guess = spread  # the outer splitting dominates the variance
    # initial a2 from the residual structure within each outer peak pair
    hi_half = frequencies[frequencies > f0_guess]
    a2_guess = float(np.std(hi_half)) if len(hi_half) > 10 else spread / 4
    h0 = float(np.max(counts))
    best = None
    # Poisson uncertainty per bin; absolute so the parameter errors reflect
    # the counting statistics rather than a rescaled residual variance
    weights = np.sqrt(np.clip(counts, 1, None)).astype(float)
    for a2_0 in (a2_guess, spread / 8, spread / 3):
        res = _fit(
            model, centers, counts.astype(float),
            [f0_guess, a1_guess, a2_0, bin_width * 2, h0, h0, h0, h0],
            ([-np.inf, 0, 0, bin_width / 4, 0, 0, 0, 0],
             [np.inf, np.inf, np.inf, np.inf, np.inf, np.inf, np.inf, np.inf]),
            ["f0", "a1", "a2", "sigma", "h1", "h2", "h3", "h4"],
            "esr_histogram", sigma=weights, absolute_sigma=True,
        )
        if best is None or res.residual_norm < best.residual_norm:
            best = res
    # refinement pass weighted by the model prediction: observed-count
    # weights overweight downward fluctuations and bias the width low
    names = ["f0", "a1", "a2", "sigma", "h1", "h2", "h3", "h4"]
    p_best = [best.parameters[n] for n in names]
    weights = np.sqrt(np.clip(model(centers, *p_best), 1, None))
    refined = _fit(
        model, centers, counts.astype(float), p_best,
        ([-np.inf, 0, 0, bin_width / 4, 0, 0, 0, 0], [np.inf] * 8),
        names, "esr_histogram", sigma=weights, absolute_sigma=True,
    )
    if refined.converged:
        best = refined
    if best.parameters["a2"] < best.parameters["sigma"] / 10:
        best.flags["a2_at_boundary"] = True
    return best


def classify_shifts(frequency_series, a1, a2, sigma, times=None) -> dict:
    """Label each step of a centre-frequency series as an a1-related flip
    (|shift| within a1 +- 2 sigma), an a2-related flip (within a2 +- sigma)
    or none; also collect the waiting intervals between same-label events."""
    f = np.asarray(frequency_series, dtype=float)
    t = np.arange(len(f), dtype=float) if times is None else np.asarray(times, float)
    shifts = np.abs(np.diff(f))
    labels = []
    for df in shifts:
        if abs(a1) - 2 * sigma <= df <= abs(a1) + 2 * sigma:
            labels.append("A1")
        elif abs(a2) - sigma <= df <= abs(a2) + sigma:
            labels.append("A2")
        else:
            labels.append("none")
    intervals = {}
    for label in ("A1", "A2"):
        events = t[1:][np.array(labels) == label]
        intervals[label] = np.diff(events) if len(events) > 1 else np.array([])
    return {"labels": labels, "intervals": intervals}


def coherence_metric(p_x, p_mx, p_y, p_my) -> float:
    """C = sqrt((p_X - p_-X)^2 + (p_Y - p_-Y)^2); bounded by sqrt(2) for
    arbitrary probabilities, by 1 for physical states."""
    probs = np.array([p_x, p_mx, p_y, p_my], dtype=float)
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    c = float(np.hypot(p_x - p_mx, p_y - p_my))
    if c > 1.0 + 1e-9:
        warnings.warn("coherence exceeds 1: unphysical input probabilities")
    return c


def fit_coherence_decay(k, c) -> FitResult:
    """Exponential coherence decay C(k) = C0 exp(-k p_err) vs the number of
    dephasing-channel applications k."""
    k = np.asarray(k, dtype=float)
    c = np.asarray(c, dtype=float)
    if len(k) < 3:
        raise ValueError("need at least 3 points to fit the decay")

    def model(n, c0, p_err):
        return c0 * np.exp(-n * p_err)

    res = _fit(model, k, c, [max(c[np.argmin(k)], 1e-3), 1.0 / max(np.max(k), 1.0)],
               ([0, 0], [np.sqrt(2), 1.0]), ["c0", "p_err"], "coherence_decay")
    return res
