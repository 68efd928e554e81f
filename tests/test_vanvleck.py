"""Second-moment dephasing estimates for a polarised metal-gate spin bath."""

import numpy as np
import pytest

from dotspin.vanvleck import (
    AL_LATTICE_CONSTANT,
    GAMMA_AL,
    GAMMA_SI,
    SPIN_AL,
    ElectrodeGeometry,
    _moment_prefactor,
    second_moment_cylinder_integral,
    second_moment_sum,
    standoff_sweep,
    t2star_from_moment,
)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElectrodeGeometry(standoff=0.0)
        with pytest.raises(ValueError):
            ElectrodeGeometry(standoff=2.0, thickness=-1.0)
        with pytest.raises(ValueError):
            ElectrodeGeometry(standoff=2.0, lateral=(0.0, 100.0))
        with pytest.raises(ValueError, match="exactly two entries"):
            ElectrodeGeometry(standoff=2.0, lateral=(100.0,))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field, build", [
        ("standoff", lambda v: ElectrodeGeometry(standoff=v)),
        ("thickness", lambda v: ElectrodeGeometry(standoff=2.0, thickness=v)),
        ("lateral", lambda v: ElectrodeGeometry(standoff=2.0, lateral=(v, 100.0))),
        ("lateral", lambda v: ElectrodeGeometry(standoff=2.0, lateral=(300.0, v))),
        ("al_lattice_constant",
         lambda v: ElectrodeGeometry(standoff=2.0, al_lattice_constant=v)),
    ])
    def test_non_finite_fields_refused_by_name(self, field, build, value):
        # NaN passed every sign check: standoff=nan ended in an IndexError
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(value)


class TestSecondMoment:
    def test_single_site_oracle(self):
        # One FCC cell's worth of atoms right below the nucleus; compare the
        # full sum against a direct evaluation of the pair formula.
        a = AL_LATTICE_CONSTANT
        geo = ElectrodeGeometry(standoff=5.0, thickness=a, lateral=(a, a))
        from dotspin.vanvleck import GAMMA_AL, GAMMA_SI, HBAR, MU0_4PI, SPIN_AL

        base = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
        )
        pos = (base + [-0.5, -0.5, 0.0]) * a + [0.0, 0.0, 5.0]
        angular = sum(
            (1.0 - 3.0 * z**2 / (x**2 + y**2 + z**2)) ** 2
            / (x**2 + y**2 + z**2) ** 3
            for x, y, z in pos
        ) * 1e54
        expected = (
            (4.0 / 15.0) * MU0_4PI**2 * GAMMA_SI**2 * GAMMA_AL**2 * HBAR**2
            * SPIN_AL * (SPIN_AL + 1.0) * angular
        )
        assert second_moment_sum(geo) == pytest.approx(expected, rel=1e-12)

    def test_moment_falls_with_standoff(self):
        m = [
            second_moment_sum(ElectrodeGeometry(standoff=d, thickness=10.0,
                                                lateral=(40.0, 40.0)))
            for d in (2.0, 4.0, 8.0)
        ]
        assert m[0] > m[1] > m[2]

    def test_discrete_matches_continuum_beyond_four_cells(self):
        # once the nucleus sits >= 4 lattice constants away, granularity
        # should matter at the <=20% level
        for d in (4 * AL_LATTICE_CONSTANT, 3.0, 6.0):
            geo = ElectrodeGeometry(standoff=d, thickness=20.0, lateral=(60.0, 60.0))
            s = second_moment_sum(geo)
            c = second_moment_cylinder_integral(geo)
            assert abs(s - c) / c < 0.20

    @pytest.mark.parametrize("standoff", [4 * AL_LATTICE_CONSTANT, 2.0, 4.0, 6.0,
                                          8.0, 10.0])
    def test_cylinder_closed_form_matches_dblquad(self, standoff):
        # dblquad at its default tolerances is itself good to about 1e-11
        from scipy.integrate import dblquad

        geo = ElectrodeGeometry(standoff=standoff)
        radius = np.sqrt(geo.lateral[0] * geo.lateral[1] / np.pi)
        z_lo = standoff - AL_LATTICE_CONSTANT / 4.0

        def integrand(rho, z):
            r2 = rho * rho + z * z
            return 2.0 * np.pi * rho * (1.0 - 3.0 * z * z / r2) ** 2 / r2**3

        integral = dblquad(integrand, z_lo, z_lo + geo.thickness, 0.0, radius)[0]
        expected = (_moment_prefactor(GAMMA_SI, GAMMA_AL, SPIN_AL)
                    * 4.0 / AL_LATTICE_CONSTANT**3 * integral * 1e54)
        assert second_moment_cylinder_integral(geo) == pytest.approx(expected, rel=1e-10)

    def test_zero_thickness_integral_is_zero(self):
        geo = ElectrodeGeometry(standoff=2.0, thickness=0.4, lateral=(10.0, 10.0))
        # thinner than one atomic layer: the discrete sum has no sites
        assert second_moment_sum(geo) == 0.0


class TestT2Star:
    def test_inverse_sqrt_relation(self):
        assert t2star_from_moment(2.0) == pytest.approx(1e3)
        assert t2star_from_moment(8.0) == pytest.approx(0.5e3)

    def test_positive_moment_required(self):
        with pytest.raises(ValueError):
            t2star_from_moment(0.0)

    def test_sweep_t2_grows_with_standoff_and_exceeds_measured_floor(self):
        table = standoff_sweep([2.0, 6.0, 10.0])
        t2 = table["t2star_sum_ms"]
        assert np.all(np.diff(t2) > 0)
        # even the closest plausible gate leaves this bath sub-dominant
        # compared to the measured ~6.6 ms idle dephasing time
        assert t2[0] > 6.6
