"""Curve-fit round trips on synthetic data with known ground truth."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dotspin import fitting
from dotspin.cli import main
from dotspin.fitting import (
    classify_shifts,
    coherence_metric,
    fit_coherence_decay,
    fit_esr_histogram,
    fit_flip_intervals,
    fit_hahn,
    fit_ramsey,
    fit_sinusoid,
)


class TestSinusoid:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0.0, 20.0, 120)
        y = 0.4 * np.cos(2 * np.pi * 0.22425 * x + 0.7) + 0.5
        y += rng.normal(0.0, 0.01, len(x))
        fit = fit_sinusoid(x, y)
        assert fit.converged
        assert fit.parameters["frequency"] == pytest.approx(0.22425, rel=1e-3)
        assert fit.parameters["amplitude"] == pytest.approx(0.4, rel=0.02)
        assert fit.parameters["offset"] == pytest.approx(0.5, abs=0.01)

    def test_frequency_bounded_by_nyquist(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 10.0, 40)
        y = rng.normal(0.5, 0.1, len(x))
        fit = fit_sinusoid(x, y)
        assert fit.parameters["frequency"] <= 0.5 / np.median(np.diff(x)) + 1e-12


class TestRamsey:
    def test_round_trip_with_stretching_exponent(self):
        rng = np.random.default_rng(2)
        tau = np.linspace(1.0, 9000.0, 140)
        truth = dict(a=0.45, f=2e-3, phi=0.0, t2=2900.0, alpha=2.11, c=0.5)
        y = (truth["a"] * np.cos(2 * np.pi * truth["f"] * tau)
             * np.exp(-((tau / truth["t2"]) ** truth["alpha"])) + truth["c"])
        y += rng.normal(0.0, 0.01, len(tau))
        fit = fit_ramsey(tau, y)
        assert fit.converged
        assert fit.parameters["t2star"] == pytest.approx(2900.0, rel=0.05)
        assert fit.parameters["alpha"] == pytest.approx(2.11, rel=0.15)
        assert fit.parameters["frequency"] == pytest.approx(2e-3, rel=0.01)

    def test_alpha_fixed_is_pinned(self):
        tau = np.linspace(1.0, 6000.0, 60)
        y = 0.5 * np.cos(2 * np.pi * 2e-3 * tau) * np.exp(-((tau / 2000.0) ** 2)) + 0.5
        fit = fit_ramsey(tau, y, alpha_fixed=2.0)
        assert fit.parameters["alpha"] == 2.0
        assert fit.uncertainties["alpha"] == 0.0
        assert fit.parameters["t2star"] == pytest.approx(2000.0, rel=0.02)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            fit_ramsey(np.arange(5.0), np.zeros(5))


class TestHahn:
    def test_round_trip(self):
        tau = np.linspace(100.0, 40000.0, 30)
        y = 0.5 * np.exp(-2.0 * tau / 16000.0) + 0.25
        fit = fit_hahn(tau, y)
        assert fit.parameters["t2"] == pytest.approx(16000.0, rel=1e-4)
        assert "infinite_t2" not in fit.flags

    def test_flat_data_flags_infinite_t2(self):
        tau = np.linspace(100.0, 40000.0, 30)
        y = np.full_like(tau, 0.75)
        fit = fit_hahn(tau, y)
        assert fit.flags.get("infinite_t2")
        assert fit.parameters["t2"] == np.inf

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            fit_hahn(np.arange(3.0), np.zeros(3))


class TestFlipIntervals:
    def test_recovers_exponential_mean(self):
        rng = np.random.default_rng(3)
        intervals = rng.exponential(75.0, 400)
        fit = fit_flip_intervals(intervals)
        # the seed-3 sample mean is itself ~8% above the true scale
        assert fit.parameters["t1"] == pytest.approx(75.0, rel=0.2)
        assert fit.flags["ml_mean"] == pytest.approx(np.mean(intervals))

    def test_minimum_events(self):
        with pytest.raises(ValueError):
            fit_flip_intervals(np.ones(9))


@given(x=st.lists(st.floats(-1e6, 1e6) | st.sampled_from((0.0, 1.0, -2.5)),
                  min_size=1, max_size=300),
       qs=st.sampled_from(((2, 98), (75, 25), (0, 100), (50,))))
@settings(max_examples=200, deadline=None)
def test_percentiles_equal_numpy_to_the_bit(x, qs):
    # + 0.0 turns -0.0 into 0.0: the two compare equal, so a sort and
    # np.percentile's partition may put either one first
    x = np.array(x) + 0.0
    assert np.array(fitting._percentiles(x, qs)).tobytes() == \
        np.percentile(x, list(qs)).tobytes()


class TestSpectrumHistogram:
    def _series(self, rng, n, f0=0.0, a1=503.0, a2=119.0, sigma=34.0):
        s1 = rng.integers(0, 2, n)
        s2 = rng.integers(0, 2, n)
        centres = f0 + (2 * s1 - 1) * a1 + (2 * s2 - 1) * a2
        return centres + rng.normal(0.0, sigma, n)

    def test_recovers_four_peak_structure(self):
        rng = np.random.default_rng(4)
        freqs = self._series(rng, 4000)
        fit = fit_esr_histogram(freqs)
        assert fit.parameters["a1"] == pytest.approx(503.0, rel=0.05)
        assert fit.parameters["a2"] == pytest.approx(119.0, rel=0.10)
        assert fit.parameters["sigma"] == pytest.approx(34.0, rel=0.15)
        assert abs(fit.parameters["f0"]) < 10.0

    @pytest.mark.parametrize("seed", [33, 38, 77])
    def test_s1_pipeline_labels_peaks(self, seed, capsys):
        # telegraph records whose slow nucleus sits mostly in one state: the
        # sample mean lies off the peak-pattern centre, and a fit started
        # there used to settle on a local minimum (a1 ~ 383 or a2 ~ 20)
        assert main(["reproduce", "s1", "--seed", str(seed), "--out", "-"]) == 0
        fit = json.loads(capsys.readouterr().out)["result"]["histogram_fit"]
        assert fit["a1"] == pytest.approx(503.0, abs=25.0)
        assert fit["a2"] == pytest.approx(119.0, abs=20.0)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            fit_esr_histogram(np.zeros(99))

    def test_classify_shifts_and_intervals(self):
        # centre frequency jumps by 2*a1 or 2*a2 when a bath spin flips
        series = np.array([0.0, 0.0, 1006.0, 1006.0, 768.0, 768.0, 770.0])
        out = classify_shifts(series, a1=1006.0, a2=238.0, sigma=20.0)
        assert out["labels"] == ["none", "A1", "none", "A2", "none", "none"]
        assert out["intervals"]["A1"].size == 0

    def test_classify_interval_spacing(self):
        series = np.array([0.0, 1006.0, 0.0, 1006.0])
        times = np.array([0.0, 40.0, 80.0, 120.0])
        out = classify_shifts(series, 1006.0, 238.0, 20.0, times=times)
        assert np.array_equal(out["intervals"]["A1"], [40.0, 40.0])


class TestCoherence:
    def test_metric_definition_and_bounds(self):
        assert coherence_metric(1.0, 0.0, 0.5, 0.5) == pytest.approx(1.0)
        assert coherence_metric(0.5, 0.5, 0.5, 0.5) == 0.0
        with pytest.raises(ValueError):
            coherence_metric(1.2, 0.0, 0.5, 0.5)
        with pytest.warns(UserWarning):
            coherence_metric(1.0, 0.0, 1.0, 0.0)

    def test_metric_accepts_round_off_outside_the_unit_interval(self):
        # a repeated-load shuttle run's P(up) reached 1 + 2.2e-16
        assert coherence_metric(1.0000000000000002, 3e-33, 0.5, 0.5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            coherence_metric(0.5, -1e-6, 0.5, 0.5)

    def test_decay_round_trip(self):
        k = np.arange(0.0, 101.0, 10.0)
        c = 0.98 * (1 - 0.0045) ** k
        fit = fit_coherence_decay(k, c)
        assert fit.parameters["p_err"] == pytest.approx(0.0045, rel=1e-3)
        assert fit.parameters["c0"] == pytest.approx(0.98, rel=1e-3)

    def test_decay_minimum_points(self):
        with pytest.raises(ValueError):
            fit_coherence_decay([0.0, 1.0], [1.0, 0.9])


def _record_fits(monkeypatch):
    """Replace fitting._fit by a wrapper that keeps each call's arguments,
    its result and a copy of the result's values (the fitters edit them:
    fit_hahn turns the rate into t2)."""
    calls = []
    real = fitting._fit

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result, dict(result.parameters),
                      dict(result.uncertainties)))
        return result

    monkeypatch.setattr(fitting, "_fit", recording)
    return calls


def _oracle_data():
    """One fixed-seed data set per fitter; every fitted value sits well away
    from zero, where a relative tolerance means something."""
    rng = np.random.default_rng(12)
    x = np.linspace(0.0, 20.0, 120)
    tau = np.linspace(1.0, 9000.0, 140)
    ramsey = (0.45 * np.cos(2 * np.pi * 2e-3 * tau + 0.4)
              * np.exp(-((tau / 2900.0) ** 2.11)) + 0.5)
    echo = np.linspace(100.0, 40000.0, 30)
    n = 4000
    spectrum = (300.0 + (2 * rng.integers(0, 2, n) - 1) * 503.0
                + (2 * rng.integers(0, 2, n) - 1) * 119.0 + rng.normal(0.0, 34.0, n))
    k = np.arange(0.0, 101.0, 10.0)
    return {
        "sinusoid": lambda: fit_sinusoid(
            x, 0.4 * np.cos(2 * np.pi * 0.22425 * x + 0.7) + 0.5
            + rng.normal(0.0, 0.01, len(x))),
        "ramsey": lambda: fit_ramsey(tau, ramsey + rng.normal(0.0, 0.01, len(tau))),
        "ramsey_alpha_fixed": lambda: fit_ramsey(
            tau, ramsey + rng.normal(0.0, 0.01, len(tau)), alpha_fixed=2.0),
        "hahn": lambda: fit_hahn(
            echo, 0.5 * np.exp(-2 * echo / 16000.0) + 0.25
            + rng.normal(0.0, 0.01, len(echo))),
        "flip_intervals": lambda: fit_flip_intervals(rng.exponential(75.0, 400)),
        "esr_histogram": lambda: fit_esr_histogram(spectrum),
        "coherence_decay": lambda: fit_coherence_decay(
            k, 0.98 * np.exp(-k * 0.0045) + rng.normal(0.0, 0.005, len(k))),
    }


def _returned_call(fitter, monkeypatch):
    """The arguments of the _fit call that produced the fit a fitter returns
    on its oracle data, and that call's fitted values and uncertainties."""
    calls = _record_fits(monkeypatch)
    returned = _oracle_data()[fitter]()
    args, kwargs, result, values, sigmas = next(
        call for call in calls if call[2] is returned)
    assert result.converged
    return args, kwargs, values, sigmas


@pytest.mark.parametrize("fitter", list(_oracle_data()))
def test_jacobian_matches_central_differences(fitter, monkeypatch):
    (fn, jac, x, y, p0, bounds, names, _), _, values, _ = _returned_call(
        fitter, monkeypatch)
    p = np.array([values[n] for n in names])
    analytic = jac(x, *p)
    for j in range(len(p)):
        h = 1e-6 * abs(p[j])
        up, down = p.copy(), p.copy()
        up[j] += h
        down[j] -= h
        column = (fn(x, *up) - fn(x, *down)) / (2 * h)
        # central differences are good to about 1e-8 of the column at this step
        scale = np.max(np.abs(column))
        assert np.max(np.abs(analytic[:, j] - column)) <= 1e-6 * scale, names[j]


@pytest.mark.parametrize("fitter", list(_oracle_data()))
def test_solver_matches_curve_fit(fitter, monkeypatch):
    # The call that produced the returned fit is rerun by scipy's curve_fit
    # from the same start, with the same Jacobian and tolerances tight enough
    # to pin the optimum: the parameters must agree within 1e-6 relative and
    # the covariance within 1e-4 relative, for both absolute_sigma settings.
    # (curve_fit's default finite-difference Jacobian is off by up to 0.4% in
    # the Ramsey frequency column, whose derivative grows with tau.)
    from scipy.optimize import curve_fit

    (fn, jac, x, y, p0, bounds, names, _), kwargs, values, sigmas = _returned_call(
        fitter, monkeypatch)
    sigma = kwargs.get("sigma")
    p = np.array([values[n] for n in names])
    weight = np.ones_like(y) if sigma is None else 1.0 / sigma
    for absolute in (False, True):
        popt, pcov = curve_fit(fn, x, y, p0=p0, bounds=bounds, sigma=sigma,
                               absolute_sigma=absolute, jac=jac, ftol=1e-15,
                               xtol=1e-15, gtol=1e-15, maxfev=20000)
        np.testing.assert_allclose(p, popt, rtol=1e-6, atol=0)
        residual = weight * (fn(x, *p) - y)
        cov = fitting._covariance(weight[:, None] * jac(x, *p),
                                  float(residual @ residual), absolute)
        np.testing.assert_allclose(cov, pcov, rtol=1e-4, atol=0)
        # the uncertainties the fit reports come from that covariance
        if absolute == kwargs.get("absolute_sigma", False):
            reported = np.array([sigmas[n] for n in names])
            np.testing.assert_allclose(reported, np.sqrt(np.diag(cov)), rtol=1e-12)


def test_evaluation_cap_returns_unconverged_start():
    x = np.linspace(0.0, 5.0, 40)
    y = 2.0 * np.exp(-x / 1.3)

    def model(t, a, tau):
        return a * np.exp(-t / tau)

    def jac(t, a, tau):
        decay = np.exp(-t / tau)
        return np.column_stack([decay, a * decay * t / tau**2])

    args = (model, jac, x, y, [1.0, 0.5], ([0.0, 0.1], [np.inf, 10.0]),
            ["a", "tau"], "decay")
    capped = fitting._fit(*args, max_nfev=3)
    assert not capped.converged
    assert capped.parameters == {"a": 1.0, "tau": 0.5}
    assert capped.uncertainties == {"a": np.inf, "tau": np.inf}
    assert capped.residual_norm == np.inf
    free = fitting._fit(*args)
    assert free.converged
    assert free.parameters["tau"] == pytest.approx(1.3, rel=1e-9)
