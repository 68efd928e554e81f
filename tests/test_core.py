"""Level structure, noise-model conversions, propagation and channels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from dotspin.core import (
    ESR_BLOCKS,
    IX,
    IY,
    IZ,
    NMR_BLOCKS,
    NoiseBatch,
    NoiseDraw,
    SX,
    SY,
    SZ,
    NoiseModel,
    QuantumState,
    SpinSystemParams,
    apply_dephasing_channel,
    block_unitary,
    marginal_of_populations,
    partial_trace_electron,
    populations,
    rng_for,
    rotating_frame_hamiltonian,
    sample_noise,
    sigma_from_t2,
    transition_frequencies,
    unitary,
)
from dotspin import experiments
from dotspin.engine import run_sequence
from dotspin.sequences import Pulse, PulseSequence

PARAMS = SpinSystemParams()


class TestLevelStructure:
    def test_esr_and_nmr_splittings_equal_hyperfine(self):
        f = transition_frequencies(PARAMS)
        # exact to float precision (the ESR difference cancels at 40 GHz scale)
        assert abs(f["f_e_nuc_up"] - f["f_e_nuc_down"]) * 1e3 == pytest.approx(
            448.5, abs=1e-6
        )
        assert abs(f["f_n_elec_down"] - f["f_n_elec_up"]) * 1e3 == pytest.approx(
            448.5, abs=1e-9
        )

    def test_conditional_lines_split_symmetrically(self):
        f = transition_frequencies(PARAMS)
        assert (f["f_e_nuc_up"] + f["f_e_nuc_down"]) / 2 == pytest.approx(f["f_e0"])
        assert (f["f_n_elec_up"] + f["f_n_elec_down"]) / 2 == pytest.approx(f["f_n0"])
        # for negative A the nuclear line conditioned on electron-down sits
        # |A|/2 above the bare frequency
        assert f["f_n_elec_down"] == pytest.approx(f["f_n0"] + 448.5e-3 / 2)

    def test_bare_frequencies(self):
        f = transition_frequencies(PARAMS)
        assert f["f_e0"] == pytest.approx(28.0e3 * 1.42)
        assert f["f_n0"] == pytest.approx(8.458 * 1.42)

    def test_secular_eigenvalues_match_exact_diagonalization(self):
        # secular and full hyperfine splittings agree to ~A^2/(2 f_e0)
        h_sec = rotating_frame_hamiltonian(PARAMS, frame=(0, 0))
        h_full = h_sec + PARAMS.a_mhz * (SX @ IX + SY @ IY)
        w_sec = np.sort(np.linalg.eigvalsh(h_sec))
        w_full = np.sort(np.linalg.eigvalsh(h_full))
        bound = (448.5e-3) ** 2 / (2 * PARAMS.f_e0)
        assert np.max(np.abs(w_sec - w_full)) < 2 * bound

    @pytest.mark.parametrize("frame", [None, (39.76e3 + 0.3, 12.01)])
    def test_qd2_evolves_freely_as_unloaded(self, frame):
        # no hyperfine on the neighbouring dot and no g-factor shift there,
        # under I_z and S_z noise and with a spectator-detuned row
        batch = NoiseBatch.stack([
            NoiseDraw(delta_iz=0.4, delta_sz=12.0),
            NoiseDraw(delta_iz=-1.1, delta_sz=-30.0, spectator_detuned=True),
            NoiseDraw(),
        ])
        h_qd2, h_unloaded, h_qd1 = (rotating_frame_hamiltonian(PARAMS, batch, frame, config)
                                    for config in ("qd2", "unloaded", "qd1"))
        assert h_qd2.shape == (3, 4, 4)
        assert np.array_equal(h_qd2, h_unloaded)
        assert not np.array_equal(h_qd2[1], h_qd2[2])  # the rows differ
        assert not np.array_equal(h_qd2, h_qd1)  # the hyperfine term acts in qd1 only

    def test_high_field_guard(self):
        with pytest.raises(ValueError, match="high-field"):
            SpinSystemParams(b_ext=1e-6)

    def test_b_ext_positive(self):
        with pytest.raises(ValueError):
            SpinSystemParams(b_ext=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, value):
        for name in ("b_ext", "gamma_e", "gamma_n", "a_hf", "a_spectator"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SpinSystemParams(**{name: value})


class TestNoise:
    def test_sigma_from_t2_reference_values(self):
        assert sigma_from_t2(15.0) == pytest.approx(15.005, abs=5e-3)
        assert sigma_from_t2(1100.0) == pytest.approx(0.2047, abs=2e-4)
        assert sigma_from_t2(2900.0) == pytest.approx(0.0776, abs=1e-4)

    def test_sigma_rejects_nonpositive_t2(self):
        with pytest.raises(ValueError):
            sigma_from_t2(0.0)

    def test_sample_noise_statistics(self):
        model = NoiseModel(sigma_ix=1.0, sigma_iz=2.0, sigma_sz=3.0,
                           spectator_flip_prob=0.25)
        draws = sample_noise(model, np.random.default_rng(7), 4000)
        assert np.std(draws.delta_iz) == pytest.approx(2.0, rel=0.1)
        assert np.mean(draws.spectator_detuned) == pytest.approx(0.25, abs=0.03)

    def test_rng_for_reproducible_and_order_independent(self):
        a = rng_for(3, 17).standard_normal(4)
        b = rng_for(3, 17).standard_normal(4)
        c = rng_for(3, 18).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(seed=st.integers(0, 2**64), k=st.integers(0, 2**40))
    @settings(max_examples=50, deadline=None)
    def test_rng_for_keeps_the_default_rng_streams(self, seed, k):
        # the streams of the Monte Carlo oracle of the hyperfine curves
        # (seed, int(d * 1e6)) and of the CLI's s1 statistics (seed,)
        assert experiments.rng_for is rng_for
        assert np.array_equal(
            rng_for(seed).random(8), np.random.default_rng(seed).random(8)
        )
        assert np.array_equal(
            rng_for(seed, k).random(8),
            np.random.default_rng(np.random.SeedSequence((seed, k))).random(8),
        )

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_iz=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(spectator_flip_prob=1.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, value):
        for name in ("sigma_ix", "sigma_iz", "sigma_sz", "spectator_flip_prob"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                NoiseModel(**{name: value})


class TestPropagation:
    @given(
        dt=st.floats(1e-3, 1e3),
        a=st.floats(-500.0, 500.0),
        dz=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_propagator_unitarity(self, dt, a, dz):
        params = SpinSystemParams(a_hf=a)
        h = rotating_frame_hamiltonian(
            params, noise_draw=ref.draw_row(sample_noise(
                NoiseModel(sigma_sz=abs(dz) + 1e-6), np.random.default_rng(0), 1
            ), 0),
        )
        u = unitary(h, dt)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10

    @pytest.mark.parametrize("pairs", (NMR_BLOCKS, ESR_BLOCKS))
    @pytest.mark.parametrize("scale, durations", (
        (0.3, (0.0, 0.37, 20.0)),  # MHz-scale detunings over pulse lengths
        (1e-3, (0.37, 2000.0, 25000.0)),  # kHz-scale blocks over the longest waits
    ))
    def test_block_unitary_matches_eigh(self, pairs, scale, durations):
        # the closed form agrees with the eigendecomposition up to the
        # rounding of the phases 2 pi h dt, which both evaluate in float64
        rng = np.random.default_rng(7)
        h = np.zeros((5, 4, 4), dtype=complex)
        for i, j in pairs:
            h[:, i, i], h[:, j, j] = scale * rng.normal(size=(2, 5))
            h[:, i, j] = scale * (rng.normal(size=5) + 1j * rng.normal(size=5))
            h[:, j, i] = h[:, i, j].conj()
        (i, j), (k, l) = pairs
        h[0] = 0.0
        h[1, i, j] = h[1, j, i] = 0.0  # a zero-norm block: a multiple of 1
        h[1, j, j] = h[1, i, i]
        h[2, i, j] = h[2, j, i] = h[2, k, l] = h[2, l, k] = 0.0  # diagonal
        for dt in durations:
            assert np.max(np.abs(block_unitary(h, dt, pairs) - unitary(h, dt))) < 1e-12
        column = np.array(durations)[:, None, None]  # a (P, 1) column, lifted
        u = block_unitary(h, column, pairs)
        assert u.shape == (len(durations), 5, 4, 4)
        assert np.max(np.abs(u - unitary(h, column))) < 1e-12
        assert np.array_equal(block_unitary(h, 0.0, pairs), np.broadcast_to(np.eye(4), h.shape))

    @staticmethod
    def _one_pulse(pulse, initial_state, config="qd1"):
        f = transition_frequencies(PARAMS)
        seq = PulseSequence(elements=(pulse,), f_e_ref=f["f_e_nuc_down"],
                            f_n_ref=f["f_n0"], initial_config=config)
        return run_sequence(seq, PARAMS, initial_state=initial_state).rho

    def test_resonant_rabi_inversion(self):
        # resonant ESR pi pulse on the nuclear-down line inverts the electron
        f = transition_frequencies(PARAMS)
        rabi = 60.0  # kHz
        t_pi = 1e3 / (2 * rabi)
        rho = self._one_pulse(Pulse("ESR", f["f_e_nuc_down"], rabi, t_pi),
                              QuantumState.basis("down", "down"))
        assert marginal_of_populations(populations(rho), "electron")[1] > 0.99

    def test_detuned_line_barely_driven(self):
        # the same pulse leaves the opposite nuclear manifold nearly untouched
        f = transition_frequencies(PARAMS)
        rabi = 60.0
        t_pi = 1e3 / (2 * rabi)
        rho = self._one_pulse(Pulse("ESR", f["f_e_nuc_down"], rabi, t_pi),
                              QuantumState.basis("down", "up"))
        # Rabi formula bound: max transfer = Omega^2 / (Omega^2 + Delta^2)
        bound = rabi**2 / (rabi**2 + 448.5**2)
        assert marginal_of_populations(populations(rho), "electron")[1] < 1.5 * bound

    def test_rwa_guard_on_excessive_rabi(self):
        # the engine builds its own drive term, so the guard must sit on its path
        with pytest.raises(ValueError, match="rotating wave"):
            self._one_pulse(Pulse("NMR", 12.0, 0.2 * 12.0 * 1e3, 0.1),
                            QuantumState.basis("down", "down"), "unloaded")


class TestStatesAndChannels:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            QuantumState(vector=[1.0, 1.0, 0.0, 0.0])  # unnormalised
        with pytest.raises(ValueError):
            QuantumState(matrix=np.diag([0.5, 0.5, 0.5, -0.5]))

    def test_basis_populations(self):
        p = populations(QuantumState.basis("up", "down").density_matrix())
        assert p[2] == 1.0
        assert marginal_of_populations(p, "electron")[1] == 1.0
        assert marginal_of_populations(p, "nuclear")[0] == 1.0

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_dephasing_preserves_trace_and_positivity(self, p):
        vec = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        state = QuantumState(vector=vec)
        out = apply_dephasing_channel(state.density_matrix(), p, "nuclear")
        rho = QuantumState(matrix=out).density_matrix()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_full_dephasing_kills_nuclear_coherence(self):
        vec = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        out = apply_dephasing_channel(QuantumState(vector=vec).density_matrix(), 1.0, "nuclear")
        rho_n = partial_trace_electron(out)
        assert abs(rho_n[0, 1]) < 1e-12

    def test_partial_traces_consistent(self):
        vec = np.array([0.5, 0.5, 0.5, 0.5])
        rho = QuantumState(vector=vec).density_matrix()
        assert np.trace(partial_trace_electron(rho)).real == pytest.approx(1.0)
