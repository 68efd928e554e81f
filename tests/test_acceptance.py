"""End-to-end acceptance checks, one per headline capability.

Each test prints a single PASS line on success so a full run reads as a
seven-line scorecard (run with `pytest -s tests/test_acceptance.py`).
"""

import math
import time

import numpy as np
import pytest

from dotspin.core import (
    NoiseModel,
    QuantumState,
    SpinSystemParams,
    apply_dephasing_channel,
    sigma_from_t2,
    transition_frequencies,
)
from dotspin.engine import run_sequence
from dotspin.experiments import (
    compute_error_budget,
    run_ramsey,
    run_shuttle_experiments,
)
from dotspin.fitting import (
    fit_coherence_decay,
    fit_esr_histogram,
    fit_flip_intervals,
    fit_hahn,
    fit_ramsey,
    fit_sinusoid,
)
from dotspin.hyperfine import (
    WavefunctionParams,
    probability_curves,
    site_couplings,
)
from dotspin.readout import (
    NuclearReadoutConfig,
    ReadoutFidelities,
    _best_shots,
    confuse_readout,
    correct_readout,
    fidelity_curve,
    nuclear_fidelity_model,
    repetitive_nuclear_readout,
)
from dotspin.sequences import FreeEvolution, Pulse, PulseSequence, hahn_sequence
from dotspin.vanvleck import (
    AL_LATTICE_CONSTANT,
    ElectrodeGeometry,
    second_moment_cylinder_integral,
    second_moment_sum,
    standoff_sweep,
)

PARAMS = SpinSystemParams()


def _report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_acceptance_1_level_structure():
    start = time.perf_counter()
    f = transition_frequencies(PARAMS)
    split = abs(PARAMS.a_hf)  # kHz
    # conditional NMR lines split by the full hyperfine coupling
    assert (f["f_n_elec_down"] - f["f_n_elec_up"]) * 1e3 == pytest.approx(
        split, abs=1e-6
    )
    # conditional ESR lines split by the same amount
    assert (f["f_e_nuc_down"] - f["f_e_nuc_up"]) * 1e3 == pytest.approx(
        split, abs=1e-6
    )
    # the bare nuclear frequency differs from the archival 11.9078 MHz only
    # through the quoted 0.04 T field uncertainty
    assert abs(f["f_n0"] - 11.9078) <= abs(PARAMS.gamma_n) * 0.04
    assert time.perf_counter() - start < 1.0
    _report(1, "level structure")


def test_acceptance_2_readout_model():
    # analytic optimum at the quoted 76% single-shot visibility
    assert _best_shots(fidelity_curve(NuclearReadoutConfig(f_e_avg=0.76), m_max=100)) == 26
    # minimum infidelity ~1e-4 within 20% relative at the working point
    r = nuclear_fidelity_model(NuclearReadoutConfig(m_shots=26, f_e_avg=0.765))
    assert math.isclose(1.0 - r["f_n"], 1e-4, rel_tol=0.2)
    # Monte Carlo repetitive readout at M=20: error rate <= 2e-3
    cfg = NuclearReadoutConfig(m_shots=20)
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    errors = sum(
        repetitive_nuclear_readout(True, cfg, rng)["reported"] is not True
        for _ in range(10_000)
    )
    assert time.perf_counter() - start < 60.0
    assert errors / 10_000 <= 2e-3
    _report(2, "repetitive readout model")


def test_acceptance_3_bell_error_budget():
    budget = compute_error_budget(PARAMS, trials=1000, seed=0)
    assert abs(budget.electron_t2star - 10.0) <= 3.0
    assert abs(budget.spectator_nucleus - 5.0) <= 2.0
    assert abs(budget.pulse_calibration - 2.0) <= 1.0
    assert 0.68 <= budget.total_fidelity <= 0.78
    _report(3, "entanglement error budget")


def test_acceptance_4_shuttle_physics():
    # phase accumulation vs load time oscillates at half the coupling
    t_load = np.linspace(0.0, 20.0, 81)
    res = run_shuttle_experiments("phase", t_load, PARAMS, noise=NoiseModel())
    fit = fit_sinusoid(t_load, res.columns["p_up"])
    assert fit.parameters["frequency"] * 1e3 == pytest.approx(224.25, rel=0.01)
    # repeated-cycle coherence decay recovers the injected per-cycle error
    noise = NoiseModel(sigma_iz=sigma_from_t2(2900.0))
    k = np.arange(0, 101, 20)
    res = run_shuttle_experiments(
        "repeated", k, PARAMS, noise=noise, trials=100, seed=0, p_err=0.0045
    )
    fit = fit_coherence_decay(k, res.columns["coherence"])
    p = fit.parameters["p_err"]
    # the four phases project one state and every k precesses for tau_0, so
    # the quasi-static dephasing folds into C0 and C is exactly C0 (1 - p)^k:
    # the fit recovers p to round-off (its sigma is round-off too)
    assert abs(p - 0.0045) <= 1e-12
    assert abs(p - 0.0045) <= 0.0029  # and sits inside the archival band
    _report(4, "electron shuttle physics")


def test_acceptance_5_hyperfine_monte_carlo():
    start = time.perf_counter()
    params = WavefunctionParams(dot_diameter=8.0)
    _, couplings = site_couplings(params)
    # strongest available site for an 8 nm dot: ~400 kHz +- 25%
    assert 300.0 <= np.max(couplings) <= 500.0
    # mean number of occupied sites above 100 kHz at natural abundance
    rng = np.random.default_rng(0)
    counts = [
        int(np.sum(couplings[rng.random(len(couplings)) < 800e-6] >= 100.0))
        for _ in range(1000)
    ]
    assert 1.5 <= np.mean(counts) <= 3.5
    # P(>=1 usable site) vs diameter: nested across thresholds and
    # non-monotonic in diameter for the loosest threshold
    table = probability_curves(
        [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
        [100.0, 200.0, 500.0],
        ppm=800.0,
        draws=1000,
    )
    p = table["probability"].reshape(7, 3)
    assert np.all(p[:, 0] >= p[:, 1]) and np.all(p[:, 1] >= p[:, 2])
    steps = np.diff(p[:, 0])
    assert np.any(steps > 0) and np.any(steps < 0)
    assert time.perf_counter() - start < 300.0
    _report(5, "hyperfine site statistics")


def test_acceptance_6_fitter_coverage():
    n_sets = 200

    def coverage(check):
        return sum(check(np.random.default_rng(i)) for i in range(n_sets)) / n_sets

    def ramsey(rng):
        tau = np.linspace(50.0, 13000.0, 120)
        y = (0.45 * np.cos(2 * np.pi * 2e-3 * tau)
             * np.exp(-((tau / 6500.0) ** 2.11)) + 0.5)
        y += rng.normal(0.0, 0.02, len(tau))
        fit = fit_ramsey(tau, y)
        return abs(fit.parameters["t2star"] - 6500.0) <= 2 * fit.uncertainties["t2star"]

    def hahn(rng):
        tau = np.linspace(500.0, 40000.0, 40)
        y = 0.5 * np.exp(-2 * tau / 16000.0) + 0.25 + rng.normal(0.0, 0.02, 40)
        fit = fit_hahn(tau, y)
        return abs(fit.parameters["t2"] - 16000.0) <= 2 * fit.uncertainties["t2"]

    def lifetime(mean_s):
        def check(rng):
            fit = fit_flip_intervals(rng.exponential(mean_s, 150))
            return abs(fit.parameters["t1"] - mean_s) <= 2 * fit.uncertainties["t1"]
        return check

    def spectrum(rng):
        n = 4000
        s1, s2 = rng.integers(0, 2, n), rng.integers(0, 2, n)
        freqs = (2 * s1 - 1) * 503.0 + (2 * s2 - 1) * 119.0
        freqs = freqs + rng.normal(0.0, 34.0, n)
        fit = fit_esr_histogram(freqs)
        return {k: abs(fit.parameters[k] - v) <= 2 * fit.uncertainties[k]
                for k, v in (("a1", 503.0), ("a2", 119.0), ("sigma", 34.0))}

    assert coverage(ramsey) >= 0.90
    assert coverage(hahn) >= 0.90
    assert coverage(lifetime(3600.0)) >= 0.90  # one-hour flips
    assert coverage(lifetime(600.0)) >= 0.90  # ten-minute flips
    spectrum_hits = {"a1": 0, "a2": 0, "sigma": 0}
    for i in range(n_sets):
        for k, ok in spectrum(np.random.default_rng(i)).items():
            spectrum_hits[k] += ok
    for k, hits in spectrum_hits.items():
        assert hits / n_sets >= 0.90, k
    _report(6, "fitter coverage")


def test_acceptance_7_property_suite():
    rng = np.random.default_rng(0)

    # propagator unitarity over random quasi-static detunings
    from dotspin.core import drive_operator, rotating_frame_hamiltonian, unitary, NoiseDraw

    for _ in range(50):
        draw = NoiseDraw(
            delta_ix=rng.normal(0, 0.5), delta_iz=rng.normal(0, 0.5),
            delta_sz=rng.normal(0, 30.0),
        )
        drive = (20.0 * 1e-3 / 2) * drive_operator("NMR", 0.0)
        h = rotating_frame_hamiltonian(PARAMS, noise_draw=draw) + drive
        u = unitary(h, float(rng.uniform(0.01, 50.0)))
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10

    # dephasing channel preserves trace and positivity
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = QuantumState(vector=v / np.linalg.norm(v))
        out = apply_dephasing_channel(state.density_matrix(), float(rng.uniform(0, 1)),
                                      "nuclear")
        rho = QuantumState(matrix=out).density_matrix()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    # echo refocuses pure quasi-static detuning noise
    seq = hahn_sequence(PARAMS, 400.0)
    for _ in range(20):
        draw = NoiseDraw(delta_iz=rng.normal(0.0, 1.0))
        p = run_sequence(seq, PARAMS, draw).last("nuclear")
        assert p[0] >= 0.999  # returns to the initial state

    # Ramsey envelope is Gaussian with T2* = 1/(sqrt(2) pi sigma), within 5%
    t2 = 2900.0
    noise = NoiseModel(sigma_iz=sigma_from_t2(t2))
    tau = np.linspace(50.0, 6500.0, 12)
    res = run_ramsey(tau, detuning_khz=2.0, noise=noise, trials=4000, seed=0)
    fit = fit_ramsey(tau, res.columns["p_up"], alpha_fixed=2.0)
    assert fit.parameters["t2star"] == pytest.approx(t2, rel=0.05)

    # confusion-matrix round trip is exact
    fid = ReadoutFidelities(f_down=0.884, f_up=0.733)
    probs = rng.dirichlet(np.ones(4))
    restored = correct_readout(confuse_readout(probs, fid), fid)["probabilities"]
    assert np.allclose(restored, probs, atol=1e-12)

    # Monte Carlo majority vote agrees with the analytic model within 3 sigma
    cfg = NuclearReadoutConfig(m_shots=10, t1_n_hours=1e12, f_e_avg=0.765)
    analytic = nuclear_fidelity_model(cfg)["f_shot"]
    trials = 50_000
    hits = sum(
        repetitive_nuclear_readout(True, cfg, rng)["reported"]
        for _ in range(trials)
    )
    se = np.sqrt(analytic * (1 - analytic) / trials)
    assert abs(hits / trials - analytic) <= 3 * se

    # gate-bath moment: discrete vs continuum within 20% beyond 4 cells,
    # and the implied dephasing time exceeds the measured 6.6 ms
    for d in (4 * AL_LATTICE_CONSTANT, 2.0, 6.0):
        geo = ElectrodeGeometry(standoff=d)
        s = second_moment_sum(geo)
        c = second_moment_cylinder_integral(geo)
        assert abs(s - c) / c < 0.20
    t2_ms = standoff_sweep([2.0])["t2star_sum_ms"][0]
    assert t2_ms > 6.6
    _report(7, "physics property suite")
