"""Electron single-shot, repetitive nuclear readout and confusion correction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from dotspin.core import QuantumState, marginal
from dotspin.readout import (
    IDEAL_FIDELITIES,
    NuclearReadoutConfig,
    ReadoutFidelities,
    confuse_readout,
    correct_readout,
    fidelity_curve,
    nuclear_fidelity_model,
    optimize_shots,
    repetitive_nuclear_readout,
    single_shot_electron,
)

BELL_VEC = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


class TestSingleShot:
    def test_pure_down_ideal(self):
        state = QuantumState.basis("down", "down")
        rng = np.random.default_rng(0)
        fid = ReadoutFidelities(f_down=1.0, f_up=0.8)
        for _ in range(50):
            outcome, _ = single_shot_electron(state, fid, rng)
            assert outcome == "down"

    def test_reported_rate_matches_fidelity(self):
        state = QuantumState.basis("up", "down")
        fid = ReadoutFidelities(f_down=0.884, f_up=0.733)
        rng = np.random.default_rng(1)
        hits = sum(
            single_shot_electron(state, fid, rng)[0] == "up"
            for _ in range(10_000)
        )
        assert hits / 10_000 == pytest.approx(0.733, abs=0.013)

    def test_superposition_born_rule(self):
        state = QuantumState(vector=np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2))
        rng = np.random.default_rng(2)
        ups = sum(
            single_shot_electron(state, IDEAL_FIDELITIES, rng)[0] == "up"
            for _ in range(10_000)
        )
        assert ups / 10_000 == pytest.approx(0.5, abs=0.015)

    def test_state_collapses(self):
        state = QuantumState(vector=np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2))
        rng = np.random.default_rng(3)
        _, collapsed = single_shot_electron(state, IDEAL_FIDELITIES, rng)
        p = marginal(collapsed.density_matrix(), "electron")
        assert max(p) == pytest.approx(1.0)

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

    @pytest.mark.parametrize("f", [0.0, 0.5, 0.765, 0.99, 1.0])
    def test_fshot_is_binom_cdf_bit_for_bit(self, f):
        # the model calls the ufunc behind binom.cdf, not binom itself
        for m in range(1, 101):
            r = nuclear_fidelity_model(NuclearReadoutConfig(m_shots=m, f_e_avg=f))
            assert r["f_shot"] == float(binom.cdf(m, 2 * m, 1.0 - f))

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
        m_opt = optimize_shots(NuclearReadoutConfig(), m_max=100)
        assert 1 < m_opt < 100

    def test_optimum_is_mmax_without_decay(self):
        cfg = NuclearReadoutConfig(t1_n_hours=1e9)
        assert optimize_shots(cfg, m_max=30) == 30

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
            assert optimize_shots(cfg, m_max=60) == best

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
        out = correct_readout(p, IDEAL_FIDELITIES)
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
