"""The lattice layers' fast paths against the per-site forms they replaced:
bit for bit for the hyperfine density and the Van Vleck sum, draw for draw
for the repetitive readout."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_lattice as ref
from dotspin import hyperfine
from dotspin.hyperfine import (
    CALIBRATION_DIAMETER,
    CALIBRATION_MAX_A,
    DEFAULT_F_Z,
    WavefunctionParams,
    _vertical_integral,
    calibrate_k_hf,
    default_region,
    enclosed_probability,
    generate_lattice,
    max_coupling_surface,
    probability_curves,
    site_couplings,
)
from dotspin.readout import NuclearReadoutConfig, repetitive_nuclear_readout
from dotspin import vanvleck
from dotspin.vanvleck import AL_LATTICE_CONSTANT, ElectrodeGeometry, second_moment_sum


def _assert_vertical_integrals_match(params):
    assert _vertical_integral(params) == ref.vertical_integrals(params)[0]
    assert enclosed_probability(params) == ref.enclosed_probability(params)


@given(
    diameters=st.tuples(st.floats(1.5, 15.0), st.floats(1.5, 15.0)),
    f_z=st.floats(8.0, 60.0),
    valley_phase=st.floats(0.0, 2 * np.pi),
    stretch=st.tuples(st.floats(1.0, 1.5), st.floats(1.0, 1.5)),
)
@settings(max_examples=25, deadline=None)
def test_vertical_integrals_shared_across_diameters_and_lateral_boxes(
        diameters, f_z, valley_phase, stretch):
    default = WavefunctionParams(dot_diameter=diameters[0], f_z=f_z,
                                 valley_phase=valley_phase)
    lx, ly, lz = default_region(diameters[1], f_z)
    boxed = replace(default, dot_diameter=diameters[1],
                    region=(stretch[0] * lx, stretch[1] * ly, lz))
    assert default.region[2] == boxed.region[2]
    hyperfine._vertical_integrals.cache_clear()
    for params in (default, boxed):
        _assert_vertical_integrals_match(params)
    assert hyperfine._vertical_integrals.cache_info().misses == 1


@pytest.mark.parametrize("field", ["f_z", "valley_phase", "lattice_constant",
                                   "region_z"])
@given(
    diameter=st.floats(1.5, 9.0),
    f_z=st.floats(8.0, 40.0),
    valley_phase=st.floats(0.0, 2 * np.pi),
    lattice_constant=st.floats(0.5, 0.6),
    factor=st.floats(1.01, 1.5),
)
@settings(max_examples=10, deadline=None)
def test_vertical_integrals_keyed_on_every_vertical_field(
        field, diameter, f_z, valley_phase, lattice_constant, factor):
    base = WavefunctionParams(dot_diameter=diameter, f_z=f_z,
                              valley_phase=valley_phase,
                              lattice_constant=lattice_constant)
    lx, ly, lz = base.region
    # a stronger field or a taller box still encloses the norm
    other = replace(base, **(
        {"region": (lx, ly, factor * lz)} if field == "region_z" else
        {field: factor * getattr(base, field) + (field == "valley_phase")}))
    hyperfine._vertical_integrals.cache_clear()
    for params in (base, other):
        _assert_vertical_integrals_match(params)
    assert hyperfine._vertical_integrals.cache_info().misses == 2


def _via_site_couplings(params, k_hf=None):
    """The couplings through the per-site reference, which builds every
    site position."""
    return ref.site_couplings(params, calibrate_k_hf() if k_hf is None else k_hf)[1]


@pytest.mark.parametrize("k_hf", [None, 3e4])
def test_sweeps_match_the_loop_through_site_couplings(k_hf, monkeypatch):
    diameters, f_zs = [3.0, 6.5, 9.0], [15.0, 40.0]
    thresholds = [50.0, 200.0, 500.0]
    fast = probability_curves(diameters, thresholds, ppm=5e4, draws=100,
                              seed=3, k_hf=k_hf)
    surface = max_coupling_surface(diameters, f_zs, k_hf=k_hf)
    monkeypatch.setattr(hyperfine, "_couplings", _via_site_couplings)
    slow = probability_curves(diameters, thresholds, ppm=5e4, draws=100,
                              seed=3, k_hf=k_hf)
    assert fast.keys() == slow.keys()
    for key in fast:
        assert np.array_equal(fast[key], slow[key])
    assert 0 < np.mean(fast["probability"]) < 1
    slow_surface = max_coupling_surface(diameters, f_zs, k_hf=k_hf)
    for key in surface:
        assert np.array_equal(surface[key], slow_surface[key])


def test_sweeps_build_no_site_positions(monkeypatch):
    def refuse(*args):
        raise AssertionError("site positions built")

    monkeypatch.setattr(hyperfine, "_sites", refuse)
    probability_curves([4.0, 8.0], [100.0, 300.0], draws=100)
    max_coupling_surface([4.0], [20.0, 30.0])
    calibrate_k_hf.__wrapped__(5.0, 30.0, 400.0)
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


def _assert_couplings_match(params, k_hf):
    sites, couplings = site_couplings(params, k_hf)
    ref_sites, ref_couplings = ref.site_couplings(params, k_hf)
    assert np.array_equal(sites, ref_sites)
    assert np.array_equal(couplings, ref_couplings)


@given(
    diameter=st.floats(1.5, 9.0),
    f_z=st.floats(8.0, 60.0),
    valley_phase=st.floats(0.0, 2 * np.pi),
    k_hf=st.floats(1.0, 1e4),
)
@settings(max_examples=25, deadline=None)
def test_site_couplings_match_per_site_reference(diameter, f_z, valley_phase, k_hf):
    params = WavefunctionParams(dot_diameter=diameter, f_z=f_z,
                                valley_phase=valley_phase)
    _assert_couplings_match(params, k_hf)


@given(
    diameter=st.floats(1.5, 6.0),
    f_z=st.floats(10.0, 40.0),
    stretch=st.tuples(*[st.floats(1.0, 1.4)] * 3),
    lattice_constant=st.floats(0.5, 0.6),
)
@settings(max_examples=20, deadline=None)
def test_site_couplings_match_over_explicit_regions(diameter, f_z, stretch,
                                                   lattice_constant):
    region = tuple(s * v for s, v in zip(stretch, default_region(diameter, f_z)))
    try:
        params = WavefunctionParams(dot_diameter=diameter, f_z=f_z, region=region,
                                    lattice_constant=lattice_constant)
    except ValueError:  # the box encloses too little of the norm
        assume(False)
    _assert_couplings_match(params, 450.0)


def test_calibration_matches_per_site_reference():
    assert calibrate_k_hf() == ref.calibrate_k_hf(
        CALIBRATION_DIAMETER, DEFAULT_F_Z, CALIBRATION_MAX_A)
    assert calibrate_k_hf(3.0, 40.0, 200.0) == ref.calibrate_k_hf(3.0, 40.0, 200.0)


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
        assert rng.bit_generator.state == ref_rng.bit_generator.state
