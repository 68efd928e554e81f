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


#: The solver stops when an accepted step lowers the sum of squares by less
#: than _FTOL of it, when the step is shorter than _XTOL * |p|, or when each
#: free column of the Jacobian is within _GTOL (cosine) of orthogonal to the
#: residual. At curve_fit's ftol of 1e-11 the Ramsey and spectrum fits stop up
#: to 1e-6 short of their optimum; with these values, within 1e-7 of it.
#: _GTOL also ends, after about 1,000 evaluations, the fits whose optimum lies
#: at infinity (a sinusoid started at too low a frequency).
_FTOL, _XTOL, _GTOL = 1e-15, 1e-11, 1e-8
#: Floor of the solver's damping, relative to the unit diagonal of the scaled
#: normal equations. It leaves the optimum where it is and keeps the system
#: solvable when two columns of the Jacobian coincide in floating point.
_MIN_DAMPING = 1e-12


def _fit(fn, jac, x, y, p0, bounds, names, model, sigma=None,
         absolute_sigma=False, max_nfev=5000) -> FitResult:
    """Fit fn(x, *p) to y from p0 within bounds (lower, upper), weighting
    each residual by 1/sigma. jac(x, *p) is fn's (len(x), len(p))
    Jacobian. The covariance follows scipy's curve_fit: the pseudo-inverse
    of J^T J, singular values below eps * max(J.shape) * s_max dropped, and
    unless absolute_sigma, scaled by the residual variance (inf when there
    are no more points than parameters). A fit that spends max_nfev
    evaluations of fn without converging returns p0, infinite
    uncertainties and converged=False."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("fit data must be finite")
    weight = np.ones_like(y) if sigma is None else 1.0 / np.asarray(sigma, dtype=float)
    p, r, jacobian, converged = _levenberg_marquardt(
        lambda p: weight * (fn(x, *p) - y),
        lambda p: weight[:, None] * jac(x, *p),
        p0, bounds, max_nfev,
    )
    if not converged:
        return FitResult(model, dict(zip(names, p0)),
                         {n: np.inf for n in names}, np.inf, converged=False)
    cov = _covariance(jacobian, float(r @ r), absolute_sigma)
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        model,
        dict(zip(names, p)),
        dict(zip(names, sigmas)),
        float(np.linalg.norm(fn(x, *p) - y)),
        converged=bool(np.all(np.isfinite(p))),
    )


def _levenberg_marquardt(residual, jacobian, p0, bounds, max_nfev):
    """Minimise |residual(p)|^2 over the box bounds = (lower, upper).

    Levenberg-Marquardt on the parameters scaled by Marquardt's running
    maximum of sqrt(diag(J^T J)), with Nielsen's damping update, the damping
    kept at or above _MIN_DAMPING. A parameter at a bound whose gradient
    points out of the box is held there for the step; the other parameters'
    step is clipped to the box. The stopping rules are those of _FTOL (the
    fall counting only with at least a quarter of the predicted fall),
    _XTOL and _GTOL. Returns (p, r, J, converged), J the Jacobian of
    residual at p; converged is False when max_nfev evaluations of residual
    pass first.
    """
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), len(p0)) for b in bounds)
    p = np.asarray(p0, dtype=float)
    if not np.all((lower <= p) & (p <= upper)):
        raise ValueError("initial parameters lie outside the bounds")
    r = residual(p)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the initial parameters")
    cost = r @ r
    jac = jacobian(p)
    norms = np.zeros(len(p))
    damping, growth = 1e-3, 2.0
    for _ in range(max_nfev - 1):
        grad = jac.T @ r
        curvature = jac.T @ jac
        columns = np.sqrt(np.diag(curvature))
        free = ~(((p <= lower) & (grad > 0)) | ((p >= upper) & (grad < 0)))
        if np.all(np.abs(grad[free]) <= _GTOL * columns[free] * np.sqrt(cost)):
            return p, r, jac, True
        norms = np.maximum(norms, columns)
        unit = np.where(norms > 0, norms, 1.0)[free]
        system = curvature[np.ix_(free, free)] / np.outer(unit, unit)
        system.flat[::len(unit) + 1] += damping
        step = np.zeros(len(p))
        step[free] = np.linalg.solve(system, -grad[free] / unit) / unit
        if not np.all(np.isfinite(step)):
            break
        trial = np.clip(p + step, lower, upper)
        step = trial - p
        short = np.linalg.norm(step) <= _XTOL * (_XTOL + np.linalg.norm(p))
        r_trial = residual(trial)
        cost_trial = r_trial @ r_trial
        if not cost_trial < cost:  # also when the residual is not finite
            if short:
                return p, r, jac, True
            damping *= growth
            growth *= 2.0
            continue
        fall = cost - cost_trial
        ratio = fall / -(2.0 * grad @ step + np.sum((jac @ step) ** 2))
        p, r, cost = trial, r_trial, cost_trial
        jac = jacobian(p)
        if short or (fall <= _FTOL * (cost + fall) and ratio > 0.25):
            return p, r, jac, True
        damping = max(damping * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3),
                      _MIN_DAMPING)
        growth = 2.0
    return p, r, jac, False


def _covariance(jac, cost: float, absolute_sigma: bool):
    """curve_fit's parameter covariance from the weighted Jacobian at the
    optimum and the weighted sum of squares there."""
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    cov = (vt[keep].T / s[keep] ** 2) @ vt[keep]
    m, n = jac.shape
    if np.isnan(cov).any() or (not absolute_sigma and m <= n):
        return np.full((n, n), np.inf)
    return cov if absolute_sigma else cov * (cost / (m - n))


def _frequency_grid(x, y):
    """Candidate frequencies: FFT peak plus a log-spaced sweep up to Nyquist."""
    x = np.asarray(x, dtype=float)
    dx = np.median(np.diff(np.sort(x)))
    nyquist = 0.5 / dx
    yc = y - np.mean(y)
    spectrum = np.abs(np.fft.rfft(yc))
    freqs = np.fft.rfftfreq(len(x), d=dx)
    candidates = [freqs[np.argmax(spectrum[1:]) + 1]] if len(freqs) > 1 else []
    candidates += list(np.geomspace(nyquist / 200, nyquist, 10))
    return [f for f in candidates if 0 < f <= nyquist], nyquist


def fit_sinusoid(x, y) -> FitResult:
    """A*cos(2 pi f x + phi) + c with a multi-start frequency grid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def model(t, a, f, phi, c):
        return a * np.cos(2 * np.pi * f * t + phi) + c

    def jac(t, a, f, phi, c):
        angle = 2 * np.pi * f * t + phi
        slope = -a * np.sin(angle)
        return np.column_stack([np.cos(angle), 2 * np.pi * t * slope, slope,
                                np.ones_like(t)])

    amp0 = (np.max(y) - np.min(y)) / 2 or 1.0
    grid, nyquist = _frequency_grid(x, y)
    return _best_start(grid, y, lambda f0: _fit(
        model, jac, x, y, [amp0, f0, 0.0, np.mean(y)],
        ([0, 0, -2 * np.pi, -np.inf], [np.inf, nyquist, 2 * np.pi, np.inf]),
        ["amplitude", "frequency", "phase", "offset"], "sinusoid"))


def _best_start(grid, y, fit_from) -> FitResult:
    """The best fit_from(f0) over the frequency starts, stopping once one is
    below the noise floor that y's point-to-point scatter sets."""
    noise_floor = 1.2 * np.sqrt(len(y)) * max(np.std(np.diff(y)) / np.sqrt(2), 1e-12)
    best = None
    for f0 in grid:
        res = fit_from(f0)
        if best is None or res.residual_norm < best.residual_norm:
            best = res
        if best.residual_norm < noise_floor:
            break
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

    def model(t, a, f, phi, t2, alpha, c):
        return a * np.cos(2 * np.pi * f * t + phi) * np.exp(-((t / t2) ** alpha)) + c

    def jac(t, a, f, phi, t2, alpha, c):
        angle = 2 * np.pi * f * t + phi
        stretch = (t / t2) ** alpha
        envelope = np.exp(-stretch)
        decay = a * np.cos(angle) * envelope
        slope = -a * np.sin(angle) * envelope
        return np.column_stack([
            np.cos(angle) * envelope, 2 * np.pi * t * slope, slope,
            decay * stretch * alpha / t2,
            # stretch log(t/t2) -> 0 as t -> 0
            -decay * stretch * np.log(np.where(t > 0, t / t2, 1.0)),
            np.ones_like(t),
        ])

    names = ["amplitude", "frequency", "phase", "t2star", "alpha", "offset"]
    lo = [0, 0, -2 * np.pi, span * 1e-3, 0.5, -np.inf]
    hi = [np.inf, nyquist, 2 * np.pi, span * 1e3, 4.0, np.inf]

    def p0(f0):
        return [amp0, f0, 0.0, span / 2, 2.0, np.mean(p)]

    if alpha_fixed is not None:
        # the same model with alpha pinned: its entries dropped throughout
        full_model, full_jac, full_p0 = model, jac, p0

        def model(t, a, f, phi, t2, c):
            return full_model(t, a, f, phi, t2, alpha_fixed, c)

        def jac(t, a, f, phi, t2, c):
            return np.delete(full_jac(t, a, f, phi, t2, alpha_fixed, c), 4, axis=1)

        def p0(f0):
            return np.delete(full_p0(f0), 4)

        names, lo, hi = (v[:4] + v[5:] for v in (names, lo, hi))

    best = _best_start(grid, p, lambda f0: _fit(
        model, jac, tau, p, p0(f0), (lo, hi), names, "ramsey"))
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

    def jac(t, a, rate, c):
        decay = np.exp(-2.0 * t * rate)
        return np.column_stack([decay, -2.0 * t * a * decay, np.ones_like(t)])

    amp0 = p[np.argmin(tau)] - p[np.argmax(tau)]
    span = np.max(tau) - np.min(tau)
    res = _fit(model, jac, tau, p, [amp0 or 0.5, 1.0 / span, np.min(p)],
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


def _percentiles(x, qs) -> list:
    """np.percentile(x, qs) by numpy's linear rule, to the bit, without the
    numpy.ma import that np.percentile's index dedup pays on first use: the
    sorted values a = x[floor(v)] and b = x[floor(v) + 1] at the virtual
    index v = (n - 1) q/100, interpolated from the nearer end."""
    x = np.sort(x)
    out = []
    for q in qs:
        v = (len(x) - 1) * (q / 100)
        i = min(int(v), len(x) - 1)
        t = v - i
        a, b = x[i], x[min(i + 1, len(x) - 1)]
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out


def fit_flip_intervals(intervals) -> FitResult:
    """Characteristic lifetime from waiting intervals between flips: an
    exponential fit to the interval histogram, cross-checked by the
    maximum-likelihood mean (reported in flags)."""
    intervals = np.asarray(intervals, dtype=float)
    if len(intervals) < 10:
        raise ValueError("need at least 10 intervals to fit a lifetime")
    # Freedman-Diaconis, floor of 5 bins
    iqr = np.subtract(*_percentiles(intervals, (75, 25)))
    width = 2 * iqr / len(intervals) ** (1 / 3)
    bins = max(int(np.ceil(np.ptp(intervals) / width)) if width > 0 else 5, 5)
    counts, edges = np.histogram(intervals, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2

    def model(t, a, t1):
        return a * np.exp(-t / t1)

    def jac(t, a, t1):
        decay = np.exp(-t / t1)
        return np.column_stack([decay, a * decay * t / t1**2])

    mean = float(np.mean(intervals))
    names = ["amplitude", "t1"]
    bounds = ([0, mean * 1e-3], [np.inf, mean * 1e3])
    counts = counts.astype(float)
    # Poisson-weighted histogram fit; second pass weights by the model
    # prediction (observed-count weights bias the parameters low)
    res = _fit(model, jac, centers, counts, [counts[0] or 1.0, mean], bounds,
               names, "flip_intervals", sigma=np.sqrt(np.clip(counts, 1, None)),
               max_nfev=20000)
    if res.converged:
        popt = [res.parameters[n] for n in names]
        res = _fit(model, jac, centers, counts, popt, bounds, names,
                   "flip_intervals",
                   sigma=np.sqrt(np.clip(model(centers, *popt), 1, None)),
                   absolute_sigma=True, max_nfev=20000)
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

    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def model(f, f0, a1, a2, sigma, h1, h2, h3, h4):
        total = np.zeros_like(f)
        for h, (s1, s2) in zip((h1, h2, h3, h4), signs):
            mu = f0 + s1 * a1 + s2 * a2
            total = total + h * np.exp(-((f - mu) ** 2) / (2 * sigma**2))
        return total

    def jac(f, f0, a1, a2, sigma, *heights):
        out = np.zeros((len(f), 8))
        for k, (h, (s1, s2)) in enumerate(zip(heights, signs)):
            offset = f - (f0 + s1 * a1 + s2 * a2)
            peak = np.exp(-(offset**2) / (2 * sigma**2))
            pull = h * peak * offset / sigma**2  # d/d(mu) of the peak
            out[:, 0] += pull
            out[:, 1] += s1 * pull
            out[:, 2] += s2 * pull
            out[:, 3] += pull * offset / sigma
            out[:, 4 + k] = peak
        return out

    # The midrange of the 2nd-98th percentiles sits between the outer peaks
    # whatever their weights; the mean is pulled towards the heavier pair and,
    # started there, the fit can settle on a local minimum that mislabels
    # the peaks.
    lo, hi = _percentiles(frequencies, (2, 98))
    f0_guess = float(lo + hi) / 2
    spread = float(np.std(frequencies))
    a1_guess = spread  # the outer splitting dominates the variance
    # initial a2 from the residual structure within each outer peak pair
    hi_half = frequencies[frequencies > f0_guess]
    a2_guess = float(np.std(hi_half)) if len(hi_half) > 10 else spread / 4
    h0 = float(np.max(counts))
    names = ["f0", "a1", "a2", "sigma", "h1", "h2", "h3", "h4"]
    bounds = ([-np.inf, 0, 0, bin_width / 4, 0, 0, 0, 0], [np.inf] * 8)
    best = None
    # Poisson uncertainty per bin; absolute so the parameter errors reflect
    # the counting statistics rather than a rescaled residual variance
    weights = np.sqrt(np.clip(counts, 1, None)).astype(float)
    for a2_0 in (a2_guess, spread / 8, spread / 3):
        res = _fit(
            model, jac, centers, counts.astype(float),
            [f0_guess, a1_guess, a2_0, bin_width * 2, h0, h0, h0, h0], bounds,
            names, "esr_histogram", sigma=weights, absolute_sigma=True,
        )
        if best is None or res.residual_norm < best.residual_norm:
            best = res
    # refinement pass weighted by the model prediction: observed-count
    # weights overweight downward fluctuations and bias the width low
    p_best = [best.parameters[n] for n in names]
    weights = np.sqrt(np.clip(model(centers, *p_best), 1, None))
    refined = _fit(
        model, jac, centers, counts.astype(float), p_best, bounds,
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
    arbitrary probabilities, by 1 for physical states. A C above 1 by at
    most 1e-9, the hypot's round-off on a state on the equator, reads 1."""
    probs = np.array([p_x, p_mx, p_y, p_my], dtype=float)
    # the engine clips what it records to [0, 1], but a caller outside it
    # (a table read back, a hand-made input) may be off by round-off
    if np.any(probs < -1e-9) or np.any(probs > 1 + 1e-9):
        raise ValueError("probabilities must lie in [0, 1]")
    c = float(np.hypot(p_x - p_mx, p_y - p_my))
    if c > 1.0 + 1e-9:
        warnings.warn("coherence exceeds 1: unphysical input probabilities")
        return c
    return min(c, 1.0)


def fit_coherence_decay(k, c) -> FitResult:
    """Coherence decay C(k) = C0 (1 - p_err)^k vs the number of
    dephasing-channel applications k: each application keeps a fraction
    1 - p_err of the coherence, as the engine's channel does."""
    k = np.asarray(k, dtype=float)
    c = np.asarray(c, dtype=float)
    if len(k) < 3:
        raise ValueError("need at least 3 points to fit the decay")

    def model(n, c0, p_err):
        return c0 * (1.0 - p_err) ** n

    def jac(n, c0, p_err):
        keep = 1.0 - p_err  # no 0 ** -1 at k = 0 when p_err reaches its bound 1
        return np.column_stack([keep ** n, -n * c0 * keep ** np.where(n > 0, n - 1, 0.0)])

    res = _fit(model, jac, k, c, [max(c[np.argmin(k)], 1e-3), 1.0 / max(np.max(k), 1.0)],
               ([0, 0], [np.sqrt(2), 1.0]), ["c0", "p_err"], "coherence_decay")
    return res
