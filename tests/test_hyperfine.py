"""Lattice Monte Carlo of contact couplings in a gate-defined dot."""

import numpy as np
import pytest

from dotspin.experiments import write_csv
from dotspin.hyperfine import (
    AIRY_A1,
    CALIBRATION_DIAMETER,
    CALIBRATION_MAX_A,
    SI_LATTICE_CONSTANT,
    WavefunctionParams,
    airy_length,
    calibrate_k_hf,
    default_region,
    enclosed_probability,
    generate_lattice,
    max_coupling_surface,
    probability_curves,
    sample_hyperfine,
    site_couplings,
    wavefunction_density,
)


class TestWavefunction:
    def test_airy_length_decreases_with_field(self):
        assert airy_length(50.0) < airy_length(10.0)

    def test_airy_zero_literal_is_scipys(self):
        from scipy.special import ai_zeros

        assert AIRY_A1 == float(ai_zeros(1)[0][0])

    def test_airy_length_positive_field_required(self):
        with pytest.raises(ValueError):
            airy_length(0.0)

    def test_density_normalises_over_region(self):
        params = WavefunctionParams(dot_diameter=8.0, f_z=25.0)
        assert enclosed_probability(params) >= 0.999

    def test_density_peaks_near_interface_centre(self):
        params = WavefunctionParams(dot_diameter=8.0, f_z=25.0)
        centre = wavefunction_density(np.array([[0.0, 0.0, 0.5]]), params)[0]
        edge = wavefunction_density(np.array([[8.0, 0.0, 0.5]]), params)[0]
        deep = wavefunction_density(np.array([[0.0, 0.0, 15.0]]), params)[0]
        assert centre > 10 * edge
        assert centre > 10 * deep

    def test_region_too_small_rejected(self):
        with pytest.raises(ValueError):
            WavefunctionParams(dot_diameter=8.0, f_z=25.0, region=(2.0, 2.0, 1.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WavefunctionParams(dot_diameter=-1.0)
        with pytest.raises(ValueError):
            WavefunctionParams(dot_diameter=8.0, f_z=0.0)


class TestLattice:
    def test_eight_sites_per_conventional_cell(self):
        a = SI_LATTICE_CONSTANT
        sites = generate_lattice((3 * a, 2 * a, 4 * a), a)
        assert len(sites) == 8 * 3 * 2 * 4

    def test_empty_region_yields_no_sites(self):
        assert generate_lattice((0.0, 1.0, 1.0)).size == 0

    def test_site_density_matches_silicon(self):
        # 8 atoms / a^3 = 50 atoms/nm^3 in silicon
        region = (10.0, 10.0, 10.0)
        sites = generate_lattice(region)
        n_cells = round(10.0 / SI_LATTICE_CONSTANT) ** 3
        assert len(sites) / (n_cells * SI_LATTICE_CONSTANT**3) == pytest.approx(
            8.0 / SI_LATTICE_CONSTANT**3
        )


class TestCalibration:
    def test_reference_dot_hits_calibrated_maximum(self):
        params = WavefunctionParams(dot_diameter=CALIBRATION_DIAMETER)
        _, couplings = site_couplings(params)
        assert np.max(couplings) == pytest.approx(CALIBRATION_MAX_A, rel=1e-9)

    def test_wider_dot_weakens_peak_coupling(self):
        k = calibrate_k_hf()
        peaks = []
        for d in (7.0, 9.0, 12.0):
            _, c = site_couplings(WavefunctionParams(dot_diameter=d), k_hf=k)
            peaks.append(np.max(c))
        assert peaks[0] > peaks[1] > peaks[2]

    def test_surface_orders_in_both_axes(self):
        table = max_coupling_surface([7.0, 10.0], [15.0, 35.0])
        m = table["max_coupling_khz"].reshape(2, 2)
        assert np.all(m[0] > m[1])  # smaller dot -> stronger coupling
        assert np.all(m[:, 1] > m[:, 0])  # stronger field -> stronger coupling


class TestSampling:
    def test_occupancy_statistics(self):
        params = WavefunctionParams(dot_diameter=8.0)
        n_sites = len(site_couplings(params)[0])
        ppm = 800.0
        rng = np.random.default_rng(0)
        counts = [len(sample_hyperfine(params, ppm, rng).a_values) for _ in range(60)]
        expected = n_sites * ppm * 1e-6
        se = np.sqrt(expected / 60)
        assert abs(np.mean(counts) - expected) < 4 * se

    def test_ppm_bounds(self):
        params = WavefunctionParams(dot_diameter=8.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_hyperfine(params, -1.0, rng)
        with pytest.raises(ValueError):
            sample_hyperfine(params, 2e6, rng)

    def test_count_above_threshold(self):
        params = WavefunctionParams(dot_diameter=8.0)
        s = sample_hyperfine(params, 800.0, np.random.default_rng(1))
        assert s.count_above(0.0) == len(s.a_values)
        assert s.count_above(1e9) == 0


class TestProbabilityCurves:
    def test_curves_nested_and_deterministic(self):
        table = probability_curves(
            [6.0, 8.0, 10.0], [100.0, 300.0], ppm=800.0, draws=150, seed=0
        )
        p = table["probability"].reshape(3, 2)
        # a stricter threshold can never be more likely
        assert np.all(p[:, 0] >= p[:, 1])
        again = probability_curves(
            [6.0, 8.0, 10.0], [100.0, 300.0], ppm=800.0, draws=150, seed=0
        )
        assert np.array_equal(table["probability"], again["probability"])

    def test_draws_floor_enforced(self):
        with pytest.raises(ValueError):
            probability_curves([8.0], [100.0], draws=50)

    @pytest.mark.parametrize("thresholds, ppm, message", [
        ([100.0], -5.0, "ppm must be within"),
        ([100.0], 2e6, "ppm must be within"),
        ([], 800.0, "thresholds must be non-empty"),
    ])
    def test_out_of_range_inputs_refused(self, thresholds, ppm, message):
        # out-of-range ppm gave curves of all 0 or all 1
        with pytest.raises(ValueError, match=message):
            probability_curves([8.0], thresholds, ppm=ppm, draws=100)

    def test_export_csv(self, tmp_path):
        table = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as fh:
            write_csv(table, fh)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_default_region_scales_with_dot(self):
        small = default_region(6.0, 25.0)
        large = default_region(12.0, 25.0)
        assert large[0] > small[0] and large[1] > small[1]
