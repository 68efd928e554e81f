"""The lattice layers' fast paths against the per-site forms they replaced:
bit for bit for the hyperfine density and the Van Vleck sum, draw for draw
for the repetitive readout."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import reference_lattice as ref
from dotspin.hyperfine import (
    CALIBRATION_DIAMETER,
    CALIBRATION_MAX_A,
    DEFAULT_F_Z,
    WavefunctionParams,
    calibrate_k_hf,
    default_region,
    generate_lattice,
    site_couplings,
)
from dotspin.readout import NuclearReadoutConfig, repetitive_nuclear_readout
from dotspin.vanvleck import ElectrodeGeometry, second_moment_sum


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
