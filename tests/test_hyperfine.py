"""Lattice Monte Carlo of contact couplings in a gate-defined dot."""

import numpy as np
import pytest

import reference_lattice as ref
from dotspin.cli import write_csv
from dotspin.hyperfine import (
    AIRY_A1,
    CALIBRATION_DIAMETER,
    CALIBRATION_MAX_A,
    SI_LATTICE_CONSTANT,
    VALLEY_WAVEVECTOR,
    WavefunctionParams,
    _airy_ai,
    _vertical_integrals,
    _vertical_profile,
    airy_length,
    check_ppm,
    default_region,
    enclosed_probability,
    generate_lattice,
    probability_curves,
    site_couplings,
)


class TestWavefunction:
    def test_airy_length_decreases_with_field(self):
        assert airy_length(50.0) < airy_length(10.0)

    def test_airy_zero_literal_is_scipys(self):
        from scipy.special import ai_zeros

        assert AIRY_A1 == float(ai_zeros(1)[0][0])

    def test_airy_function_matches_scipy(self):
        # over the arguments the envelope reaches, interface to 4 box heights:
        # within 2e-13 relative, or 1e-15 absolute next to the zero at a1
        from scipy.special import airy

        x = np.linspace(AIRY_A1, 46.0, 20001)
        expected = airy(x)[0]
        error = np.abs(_airy_ai(x) - expected)
        assert np.all((error <= 2e-13 * np.abs(expected)) | (error <= 1e-15))
        # any shape, each value independent of the others
        assert np.array_equal(_airy_ai(x[1:].reshape(8, -1)),
                              _airy_ai(x[1:]).reshape(8, -1))

    @pytest.mark.parametrize("diameter, f_z", [(8.0, 25.0), (2.0, 60.0), (12.0, 8.0)])
    def test_vertical_integrals_match_quad(self, diameter, f_z):
        # quad, with a breakpoint at every valley period and a 1e-13 relative
        # target, on both the box height and the tail above it: within 1e-12
        from scipy.integrate import quad

        z_max = WavefunctionParams(dot_diameter=diameter, f_z=f_z).region[2]
        period = np.pi / VALLEY_WAVEVECTOR

        def profile(z):
            return float(_vertical_profile(z, f_z))

        for (lo, hi), value in zip([(0.0, z_max), (z_max, 4 * z_max)],
                                   _vertical_integrals(f_z)):
            expected = quad(profile, lo, hi, points=np.arange(lo, hi, period)[1:],
                            limit=4000, epsabs=0.0, epsrel=1e-13)[0]
            assert abs(value - expected) <= 1e-12 * expected

    def test_airy_length_positive_field_required(self):
        with pytest.raises(ValueError):
            airy_length(0.0)

    def test_density_normalises_over_region(self):
        params = WavefunctionParams(dot_diameter=8.0, f_z=25.0)
        assert enclosed_probability(params) >= 0.999

    def test_density_peaks_near_interface_centre(self):
        params = WavefunctionParams(dot_diameter=8.0, f_z=25.0)
        centre = ref.wavefunction_density(np.array([[0.0, 0.0, 0.5]]), params)[0]
        edge = ref.wavefunction_density(np.array([[8.0, 0.0, 0.5]]), params)[0]
        deep = ref.wavefunction_density(np.array([[0.0, 0.0, 15.0]]), params)[0]
        assert centre > 10 * edge
        assert centre > 10 * deep

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WavefunctionParams(dot_diameter=-1.0)
        with pytest.raises(ValueError):
            WavefunctionParams(dot_diameter=8.0, f_z=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["dot_diameter", "f_z"])
    def test_non_finite_params_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WavefunctionParams(**{field: value})

    def test_overflowing_region_refused_by_name(self):
        # the box is 3.2 diameters wide, which overflows for a finite diameter
        with pytest.raises(ValueError, match="region must be finite"):
            WavefunctionParams(dot_diameter=1e308)


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
        peaks = []
        for d in (7.0, 9.0, 12.0):
            _, c = site_couplings(WavefunctionParams(dot_diameter=d))
            peaks.append(np.max(c))
        assert peaks[0] > peaks[1] > peaks[2]

    def test_surface_orders_in_both_axes(self):
        m = np.transpose([  # (diameter, F_z)
            probability_curves([7.0, 10.0], [100.0], draws=100, f_z=f_z)["max_coupling_khz"]
            for f_z in (15.0, 35.0)
        ])
        assert np.all(m[0] > m[1])  # smaller dot -> stronger coupling
        assert np.all(m[:, 1] > m[:, 0])  # stronger field -> stronger coupling


class TestSampling:
    def test_ppm_bounds(self):
        # the isotope concentration is a fraction of sites, 0 to 1e6 ppm
        with pytest.raises(ValueError, match="ppm must be within"):
            check_ppm(-1.0)
        with pytest.raises(ValueError, match="ppm must be within"):
            check_ppm(2e6)
        for ppm in (0.0, 800.0, 1e6):
            check_ppm(ppm)


class TestProbabilityCurves:
    def test_curves_nested_and_deterministic(self):
        table = probability_curves(
            [6.0, 8.0, 10.0], [100.0, 300.0], ppm=800.0, draws=150
        )
        p = table["probability"].reshape(3, 2)
        # a stricter threshold can never be more likely
        assert np.all(p[:, 0] >= p[:, 1])
        again = probability_curves(
            [6.0, 8.0, 10.0], [100.0, 300.0], ppm=800.0, draws=150
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["diameter_range", "thresholds"])
    def test_non_finite_inputs_refused_by_name(self, field, value):
        # a NaN threshold gave probability 0
        args = {"diameter_range": [8.0], "thresholds": [100.0]}
        args[field] = args[field] + [value]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            probability_curves(**args, draws=100)

    def test_ppm_edges_are_exact(self):
        # at 1e6 ppm every site is occupied, so a threshold that some site
        # clears is certain and one above the peak impossible; at 0 ppm
        # nothing is occupied
        thresholds = [100.0, 1e6]
        full = probability_curves([6.0, 8.0], thresholds, ppm=1e6, draws=100)
        assert full["probability"].tolist() == [1.0, 0.0, 1.0, 0.0]
        empty = probability_curves([6.0, 8.0], thresholds, ppm=0.0, draws=100)
        assert empty["probability"].tolist() == [0.0] * 4
        for table in (full, empty):
            assert not np.any(np.signbit(table["probability"]))
            assert table["stderr"].tolist() == [0.0] * 4

    def test_export_csv(self, tmp_path):
        table = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        path = tmp_path / "t.csv"
        write_csv(table, str(path))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_default_region_scales_with_dot(self):
        small = default_region(6.0, 25.0)
        large = default_region(12.0, 25.0)
        assert large[0] > small[0] and large[1] > small[1]
