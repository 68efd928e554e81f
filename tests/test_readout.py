"""Electron readout fidelities, repetitive nuclear readout and confusion correction."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

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

BELL_VEC = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def exact_fshot(m: int, f: float) -> Fraction:
    """P(at most m of 2m reads err) at per-read error rate 1 - f, exactly."""
    p = Fraction(f)
    return sum(comb(2 * m, k) * (1 - p) ** k * p ** (2 * m - k) for k in range(m + 1))


def check_fshot(m: int, f: float) -> None:
    """f_shot is the exact sum rounded once, and agrees with scipy's binom.cdf
    to 1e-12 relative; the 1e-12 absolute floor is for tiny f_shot, where
    scipy loses relative accuracy (6e-7 at f = 4.4e-11, M = 1)."""
    f_shot = nuclear_fidelity_model(NuclearReadoutConfig(m_shots=m, f_e_avg=f))["f_shot"]
    assert f_shot == float(exact_fshot(m, f))
    assert f_shot == pytest.approx(float(binom.cdf(m, 2 * m, 1.0 - f)), rel=1e-12, abs=1e-12)


class TestSingleShot:
    def test_fidelity_range_guard(self):
        with pytest.raises(ValueError):
            ReadoutFidelities(f_down=0.4, f_up=0.9)


class TestFidelityModel:
    def test_quoted_operating_point(self):
        # M=26, F=0.765, 8 ms shots, 1 h lifetime: infidelity close to 1e-4
        r = nuclear_fidelity_model(NuclearReadoutConfig(
            m_shots=26, t_shot_ms=8.0, t1_n_hours=1.0, f_e_avg=0.765
        ))
        assert 1.0 - r["f_n"] == pytest.approx(1e-4, rel=0.25)
        assert r["f_t1"] == pytest.approx(np.exp(-2 * 26 * 8e-3 / 3600.0))

    def test_perfect_reads_give_fshot_one(self):
        for m in (1, 5, 40):
            r = nuclear_fidelity_model(NuclearReadoutConfig(
                m_shots=m, f_e_avg=1.0
            ))
            assert r["f_shot"] == 1.0

    @pytest.mark.parametrize("f", [1.5, -0.1, float("nan")])
    def test_out_of_domain_f_e_avg_refused(self, f):
        # outside [0, 1] the binomial model returns nan for f_shot and f_n
        with pytest.raises(ValueError, match=r"f_e_avg must be in \[0, 1\]"):
            NuclearReadoutConfig(f_e_avg=f)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["t_shot_ms", "t1_n_hours", "f_e_avg"])
    def test_non_finite_fields_refused_by_name(self, field, value):
        # t_shot_ms=inf gave f_n = 8.4e-6
        with pytest.raises(ValueError, match=field):
            NuclearReadoutConfig(**{field: value})

    @pytest.mark.parametrize("m", [2.5, 26.0, True, "26"])
    def test_non_integral_m_shots_refused_by_name(self, m):
        with pytest.raises(TypeError, match="m_shots: expected int"):
            NuclearReadoutConfig(m_shots=m)

    @pytest.mark.parametrize("f", [0.0, 0.5, 0.765, 0.99, 1.0])
    def test_fshot_is_exact_sum_rounded_once(self, f):
        for m in range(1, 101):
            check_fshot(m, f)

    @given(st.integers(1, 60), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_fshot_is_exact_sum_rounded_once_property(self, m, f):
        check_fshot(m, f)

    def test_fshot_single_shot_enumeration(self):
        # M=1: two reads, majority (ties succeed) fails only when both err
        f = 0.7
        r = nuclear_fidelity_model(NuclearReadoutConfig(m_shots=1, f_e_avg=f))
        assert r["f_shot"] == pytest.approx(1.0 - (1.0 - f) ** 2, abs=1e-12)

    def test_fshot_monotone_ft1_antitone(self):
        rows = fidelity_curve(NuclearReadoutConfig(), m_max=40)
        f_t1 = [r[1] for r in rows]
        f_shot = [r[2] for r in rows]
        assert all(np.diff(f_t1) < 0)
        assert all(np.diff(f_shot) > 0)

    def test_interior_optimum(self):
        m_opt = _best_shots(fidelity_curve(NuclearReadoutConfig(), m_max=100))
        assert 1 < m_opt < 100

    def test_optimum_is_mmax_without_decay(self):
        cfg = NuclearReadoutConfig(t1_n_hours=1e9)
        assert _best_shots(fidelity_curve(cfg, m_max=30)) == 30

    def test_optimum_matches_bruteforce(self):
        for f in (0.6, 0.7, 0.9):
            cfg = NuclearReadoutConfig(f_e_avg=f)
            best = max(
                range(1, 61),
                key=lambda m: nuclear_fidelity_model(
                    NuclearReadoutConfig(
                        m_shots=m, t_shot_ms=cfg.t_shot_ms,
                        t1_n_hours=cfg.t1_n_hours, f_e_avg=f,
                    )
                )["f_n"],
            )
            assert _best_shots(fidelity_curve(cfg, m_max=60)) == best

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NuclearReadoutConfig(m_shots=0)
        with pytest.raises(ValueError):
            NuclearReadoutConfig(t_shot_ms=-1.0)


class TestRepetitiveReadout:
    def test_stable_nucleus_m20(self):
        cfg = NuclearReadoutConfig(m_shots=20, t1_n_hours=1e12, f_e_avg=0.765)
        rng = np.random.default_rng(4)
        errors = sum(
            repetitive_nuclear_readout(True, cfg, rng)["reported"] is not True
            for _ in range(10_000)
        )
        assert errors / 10_000 < 1e-3

    def test_perfect_reads_no_decay_zero_errors(self):
        cfg = NuclearReadoutConfig(m_shots=10, t1_n_hours=1e12, f_e_avg=1.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            assert repetitive_nuclear_readout(False, cfg, rng)["reported"] is False

    @pytest.mark.parametrize("m", [5, 10, 26, 50])
    def test_monte_carlo_matches_analytic_fshot(self, m):
        # stable nucleus isolates the majority-vote branch of the model
        cfg = NuclearReadoutConfig(m_shots=m, t1_n_hours=1e12, f_e_avg=0.765)
        analytic = nuclear_fidelity_model(cfg)["f_shot"]
        trials = 100_000
        rng = np.random.default_rng(6 + m)
        hits = sum(
            repetitive_nuclear_readout(True, cfg, rng)["reported"]
            for _ in range(trials)
        )
        p = hits / trials
        se = np.sqrt(analytic * (1 - analytic) / trials)
        assert abs(p - analytic) < 3 * max(se, 1e-5)

    def test_vote_count_consistency(self):
        cfg = NuclearReadoutConfig(m_shots=7)
        out = repetitive_nuclear_readout(True, cfg, np.random.default_rng(8))
        assert out["votes_up"] + out["votes_down"] == 14


class TestConfusionCorrection:
    def test_ideal_is_identity(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        out = correct_readout(p, ReadoutFidelities(f_down=1.0, f_up=1.0))
        assert np.allclose(out["probabilities"], p)
        assert not out["clamped"]

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_exact(self, raw):
        p = np.array(raw) / sum(raw)
        fid = ReadoutFidelities(f_down=0.884, f_up=0.733)
        restored = correct_readout(confuse_readout(p, fid), fid)["probabilities"]
        assert np.allclose(restored, p, atol=1e-12)

    def test_bell_zz_parity_restored(self):
        p_true = np.abs(BELL_VEC) ** 2
        fid = ReadoutFidelities(f_down=0.884, f_up=0.733)
        corrected = correct_readout(confuse_readout(p_true, fid), fid)[
            "probabilities"
        ]
        assert corrected[0] + corrected[3] == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_clamps_with_flag(self):
        fid = ReadoutFidelities(f_down=0.884, f_up=0.733)
        raw = np.array([1.0, 0.0, 0.0, 0.0])  # impossible under confusion
        out = correct_readout(raw, fid)
        assert out["clamped"]
        assert np.all(out["probabilities"] >= 0.0)
        assert np.sum(out["probabilities"]) == pytest.approx(1.0)
