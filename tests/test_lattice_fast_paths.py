"""The lattice layers' fast paths against the per-site forms they replaced:
bit for bit for the hyperfine density and the Van Vleck sum, draw for draw
for the repetitive readout."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_lattice as ref
from dotspin import hyperfine
from dotspin.hyperfine import (
    CALIBRATION_DIAMETER,
    CALIBRATION_MAX_A,
    DEFAULT_F_Z,
    WavefunctionParams,
    _vertical_integrals,
    calibrate_k_hf,
    enclosed_probability,
    generate_lattice,
    probability_curves,
    site_couplings,
)
from dotspin.readout import NuclearReadoutConfig, repetitive_nuclear_readout
from dotspin import vanvleck
from dotspin.vanvleck import AL_LATTICE_CONSTANT, ElectrodeGeometry, second_moment_sum


def _assert_vertical_integrals_match(params):
    assert _vertical_integrals(params.f_z)[0] == ref.vertical_integrals(params)[0]
    assert enclosed_probability(params) == ref.enclosed_probability(params)


@given(
    diameters=st.tuples(st.floats(1.5, 15.0), st.floats(1.5, 15.0)),
    f_z=st.floats(8.0, 60.0),
)
@settings(max_examples=25, deadline=None)
def test_vertical_integrals_shared_across_diameters_and_lateral_boxes(diameters, f_z):
    # each diameter sizes its own lateral box; the box height is f_z's alone
    hyperfine._vertical_integrals.cache_clear()
    for d in diameters:
        _assert_vertical_integrals_match(WavefunctionParams(dot_diameter=d, f_z=f_z))
    assert hyperfine._vertical_integrals.cache_info().misses == 1


@pytest.mark.parametrize("field", ["f_z"])
@given(
    diameter=st.floats(1.5, 9.0),
    f_z=st.floats(8.0, 40.0),
    factor=st.floats(1.01, 1.5),
)
@settings(max_examples=10, deadline=None)
def test_vertical_integrals_keyed_on_every_vertical_field(field, diameter, f_z, factor):
    base = WavefunctionParams(dot_diameter=diameter, f_z=f_z)
    # a stronger field still encloses the norm
    other = replace(base, **{field: factor * getattr(base, field)})
    hyperfine._vertical_integrals.cache_clear()
    for params in (base, other):
        _assert_vertical_integrals_match(params)
    assert hyperfine._vertical_integrals.cache_info().misses == 2


@given(
    diameter=st.floats(1.5, 9.0),
    f_z=st.floats(8.0, 60.0),
    k_hf=st.floats(1.0, 1e5),
    picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([-1, 0, 1])),
                   min_size=1, max_size=12),
)
@settings(max_examples=20, deadline=None)
def test_site_counts_and_peak_match_per_site_reference(diameter, f_z, k_hf, picks):
    # thresholds on site values and one ulp either side, where the rounding
    # of k_hf * (lateral * vertical) decides the count
    params = WavefunctionParams(dot_diameter=diameter, f_z=f_z)
    couplings = np.sort(ref.site_couplings(params, k_hf)[1])
    thresholds = [np.nextafter(value, value + step) if step else value
                  for value, step in ((couplings[int(q * (len(couplings) - 1))], step)
                                      for q, step in picks)]
    counts, peak = hyperfine._lattice_counts(params, k_hf, thresholds)
    assert counts.tolist() == [np.count_nonzero(couplings >= t) for t in thresholds]
    assert peak == couplings[-1]


def test_sweeps_match_the_loop_through_site_couplings():
    # both sweeps against a loop over the per-site reference couplings,
    # which builds every site position
    diameters, f_zs = [3.0, 6.5, 9.0], [15.0, 40.0]
    thresholds = [50.0, 200.0, 500.0]
    ppm = 5e4
    k = calibrate_k_hf()
    fast = probability_curves(diameters, thresholds, ppm=ppm, draws=100)
    slow = {key: [] for key in fast}
    for d in diameters:
        couplings = ref.site_couplings(
            WavefunctionParams(dot_diameter=d, f_z=DEFAULT_F_Z), k)[1]
        for t in thresholds:
            n = np.count_nonzero(couplings >= t)
            p = -math.expm1(n * math.log1p(-ppm * 1e-6))
            slow["diameter_nm"].append(d)
            slow["threshold_khz"].append(t)
            slow["probability"].append(p)
            slow["stderr"].append(np.sqrt(p * (1 - p) / 100))
            slow["max_coupling_khz"].append(couplings.max())
    for key in fast:
        assert np.array_equal(fast[key], np.array(slow[key])), key
    assert 0 < np.mean(fast["probability"]) < 1
    for f_z in f_zs:  # the peak away from the default F_z
        peaks = probability_curves(diameters, [100.0], draws=100, f_z=f_z)
        slow_peaks = [ref.site_couplings(WavefunctionParams(dot_diameter=d, f_z=f_z), k)[1].max()
                      for d in diameters]
        assert np.array_equal(peaks["max_coupling_khz"], np.array(slow_peaks))


@pytest.mark.parametrize("diameters, thresholds, draws", [
    (np.linspace(3.0, 15.0, 13), [100.0, 200.0, 500.0], 200),  # ext1's config
    ([5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0], [100.0, 200.0, 500.0], 1000),
])
def test_exact_curves_match_monte_carlo(diameters, thresholds, draws):
    table = probability_curves(diameters, thresholds, ppm=800.0, draws=draws)
    mc = ref.monte_carlo_curves(diameters, thresholds, ppm=800.0, draws=draws,
                                f_z=DEFAULT_F_Z)
    exact = table["probability"]
    assert exact.tolist() == [-math.expm1(n * math.log1p(-800.0 * 1e-6))
                              for n in mc["count"].ravel()]
    assert np.array_equal(table["max_coupling_khz"], mc["max_coupling_khz"].ravel())
    assert np.array_equal(table["stderr"], np.sqrt(exact * (1 - exact) / draws))
    se = np.maximum(table["stderr"], mc["stderr"].ravel())
    assert np.all(np.abs(exact - mc["probability"].ravel()) <= 5 * se)


def test_sweeps_build_no_site_positions(monkeypatch):
    def refuse(what):
        def call(*args):
            raise AssertionError(f"{what} built")
        return call

    monkeypatch.setattr(hyperfine, "_sites", refuse("site positions"))
    monkeypatch.setattr(hyperfine, "_lattice_density", refuse("per-site density"))
    probability_curves([4.0, 8.0], [100.0, 300.0], draws=100)
    calibrate_k_hf.__wrapped__()
    with pytest.raises(AssertionError, match="site positions built"):
        site_couplings(WavefunctionParams(dot_diameter=4.0))


@given(
    region=st.tuples(*[st.floats(0.0, 4.0)] * 3),
    lattice_constant=st.floats(0.3, 0.6),
)
@settings(max_examples=60, deadline=None)
def test_lattice_matches_meshgrid_reference(region, lattice_constant):
    assert np.array_equal(generate_lattice(region, lattice_constant),
                          ref.generate_lattice(region, lattice_constant))


def _assert_couplings_match(params):
    sites, couplings = site_couplings(params)
    ref_sites, ref_couplings = ref.site_couplings(params, calibrate_k_hf())
    assert np.array_equal(sites, ref_sites)
    assert np.array_equal(couplings, ref_couplings)


@given(diameter=st.floats(1.5, 9.0), f_z=st.floats(8.0, 60.0))
@settings(max_examples=25, deadline=None)
def test_site_couplings_match_per_site_reference(diameter, f_z):
    params = WavefunctionParams(dot_diameter=diameter, f_z=f_z)
    sites, couplings = site_couplings(params)
    ref_sites, ref_couplings = ref.site_couplings(params, calibrate_k_hf())
    assert np.array_equal(sites, ref_sites)
    assert np.array_equal(couplings, ref_couplings)


def test_calibration_matches_per_site_reference():
    assert calibrate_k_hf() == ref.calibrate_k_hf(
        CALIBRATION_DIAMETER, DEFAULT_F_Z, CALIBRATION_MAX_A)


@given(
    standoff=st.floats(0.2, 10.0),
    thickness=st.floats(0.0, 5.0),
    lateral=st.tuples(st.floats(0.3, 20.0), st.floats(0.3, 20.0)),
    al_lattice_constant=st.floats(0.35, 0.45),
)
@settings(max_examples=60, deadline=None)
def test_second_moment_sum_matches_meshgrid_reference(standoff, thickness,
                                                     lateral,
                                                     al_lattice_constant):
    geometry = ElectrodeGeometry(standoff=standoff, thickness=thickness,
                                 lateral=lateral,
                                 al_lattice_constant=al_lattice_constant)
    assert second_moment_sum(geometry) == ref.second_moment_sum(geometry)


@pytest.mark.parametrize("standoff", [4 * AL_LATTICE_CONSTANT, 2.0, 4.0, 6.0, 8.0, 10.0])
def test_near_field_split_matches_whole_electrode_sum(standoff, monkeypatch):
    geometry = ElectrodeGeometry(standoff=standoff)
    split = second_moment_sum(geometry)
    # an unbounded near box sums every site with the kernel pinned above
    monkeypatch.setattr(vanvleck, "NEAR_FIELD_NM", math.inf)
    exact = second_moment_sum(geometry)
    assert split != exact  # the default gate reaches beyond the near box
    assert abs(split - exact) <= 1e-6 * exact


@pytest.mark.parametrize("standoff", [4 * AL_LATTICE_CONSTANT, 2.0, 4.0, 6.0, 8.0, 10.0])
def test_near_field_split_second_order(standoff, monkeypatch):
    # with the a^2 face-flux term the far field's error is O(a^4)
    geometry = ElectrodeGeometry(standoff=standoff)
    split = second_moment_sum(geometry)
    monkeypatch.setattr(vanvleck, "NEAR_FIELD_NM", math.inf)
    exact = second_moment_sum(geometry)
    assert abs(split - exact) <= 1e-7 * exact


@pytest.mark.parametrize("lateral, thickness", [((12.0, 48.0), 24.0),
                                                ((48.0, 12.0), 6.0),
                                                ((40.0, 40.0), 8.0)])
def test_near_field_split_second_order_on_partly_covered_gates(lateral, thickness,
                                                               monkeypatch):
    # the near box spans the gate along some axes, so the far region's faces
    # there are the slab's faces less the near box's share
    geometry = ElectrodeGeometry(standoff=3.0, thickness=thickness, lateral=lateral)
    split = second_moment_sum(geometry)
    monkeypatch.setattr(vanvleck, "NEAR_FIELD_NM", math.inf)
    exact = second_moment_sum(geometry)
    assert split != exact
    assert abs(split - exact) <= 1e-7 * exact


def _far_field_calls(monkeypatch, name, standoff):
    """(positional arguments, result) of each call that second_moment_sum on
    the default gate makes to vanvleck.<name>."""
    calls = []
    inner = getattr(vanvleck, name)

    def record(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(vanvleck, name, record)
    second_moment_sum(ElectrodeGeometry(standoff=standoff))
    return calls


@pytest.mark.parametrize("standoff", [4 * AL_LATTICE_CONSTANT, 2.0, 6.0, 10.0])
def test_far_field_boxes_match_tensor_rule(standoff, monkeypatch):
    # the closed-form axis in place of the 3-D tensor rule's third axis
    calls = _far_field_calls(monkeypatch, "_box_integral", standoff)
    assert len(calls) == 4 * 5  # per FCC sublattice: two x sides, two y sides, the top
    for (box,), integral in calls:
        assert integral == pytest.approx(ref.box_integral(box), rel=1e-10)


@pytest.mark.parametrize("standoff", [4 * AL_LATTICE_CONSTANT, 2.0, 6.0, 10.0])
def test_face_flux_matches_laplacian_integral(standoff, monkeypatch):
    # divergence theorem: the flux of grad f out of the far region is the
    # integral of its Laplacian over the region's boxes
    calls = _far_field_calls(monkeypatch, "_shell_flux", standoff)
    assert len(calls) == 4  # one per FCC sublattice
    for (outer, inner), flux in calls:
        expected = sum(ref.box_integral(box, ref.angular_laplacian)
                       for _, box in vanvleck._shell_boxes(outer, inner))
        assert flux == pytest.approx(expected, rel=1e-10)


def test_angular_laplacian_matches_finite_differences():
    h = 1e-3
    for point in ([3.0, -4.0, 2.0], [10.0, 1.0, 7.0], [-0.5, 0.2, 12.0]):
        p = np.array(point)
        second = 0.0
        for step in np.eye(3) * h:
            f = [ref.angular_term(*(q * q)) for q in (p - step, p, p + step)]
            second += (f[0] - 2.0 * f[1] + f[2]) / (h * h)
        assert ref.angular_laplacian(*(p * p)) == pytest.approx(second, rel=1e-6)


@given(
    m_shots=st.integers(1, 60),
    f_e_avg=st.floats(0.0, 1.0),
    # down to where nearly every shot flips the nucleus
    t1_n_hours=st.floats(-7.0, 1.0).map(lambda e: 10.0**e),
    nuclear_up=st.booleans(),
    previous_reported=st.none() | st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
# no shot flips the nucleus at T1 = 1 h; every shot flips it at T1 = 1e-7 h
@example(m_shots=26, f_e_avg=0.765, t1_n_hours=1.0, nuclear_up=True,
         previous_reported=None, seed=0)
@example(m_shots=26, f_e_avg=0.765, t1_n_hours=1e-7, nuclear_up=False,
         previous_reported=True, seed=0)
# the edges of the flip loop. At T1 = 1e-4 h a shot flips with probability
# 0.0435; searched over seeds 0.., the first call of seed 43 flips in its
# first shot only and that of seed 26 in its last shot only (M = 26), and
# with M = 1 seed 0 flips in its one shot. All reads are wrong at
# f_e_avg = 0 and all are correct at f_e_avg = 1.
@example(m_shots=26, f_e_avg=0.765, t1_n_hours=1e-4, nuclear_up=True,
         previous_reported=None, seed=43)
@example(m_shots=26, f_e_avg=0.765, t1_n_hours=1e-4, nuclear_up=False,
         previous_reported=None, seed=26)
@example(m_shots=1, f_e_avg=0.765, t1_n_hours=1e-4, nuclear_up=True,
         previous_reported=False, seed=0)
@example(m_shots=26, f_e_avg=0.0, t1_n_hours=1.0, nuclear_up=True,
         previous_reported=None, seed=0)
@example(m_shots=26, f_e_avg=1.0, t1_n_hours=1e-4, nuclear_up=False,
         previous_reported=None, seed=43)
def test_readout_matches_scalar_draw_loop(m_shots, f_e_avg, t1_n_hours,
                                          nuclear_up, previous_reported, seed):
    config = NuclearReadoutConfig(m_shots=m_shots, f_e_avg=f_e_avg,
                                  t1_n_hours=t1_n_hours)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):  # consecutive calls share one stream
        out = repetitive_nuclear_readout(nuclear_up, config, rng, previous_reported)
        expected = ref.repetitive_nuclear_readout(
            nuclear_up, config, ref_rng, previous_reported)
        assert out == expected
        assert type(out["votes_up"]) is int
        assert type(out["votes_down"]) is int
        if previous_reported is None:
            assert type(out["reported"]) is bool
        assert rng.bit_generator.state == ref_rng.bit_generator.state
