"""Reference per-site forms of the lattice layers, kept only to check the
fast paths in ``dotspin.hyperfine``, ``dotspin.vanvleck`` and
``dotspin.readout`` against.

These are the package's original implementations: the vertical integrals
run the package's quadrature rule afresh for every WavefunctionParams (the
rule itself is checked against scipy's quad), the diamond lattice is built
from meshgrid copies of the cell indices, the hyperfine density evaluates
the envelope at every lattice site, the ext1 probability curves place the
isotope at random draw by draw, the Van Vleck sum builds full meshgrid
copies of each block of layers, the Van Vleck far field integrates each box
by a 3-D tensor rule, and the repetitive readout draws one scalar per
electron read and per flip test. The fast paths must reproduce them bit for
bit and draw for draw, the far field to within its quadrature error, and
the Monte Carlo curves to within their standard error.
"""

from __future__ import annotations

import math

import numpy as np

from dotspin import hyperfine
from dotspin.core import rng_for
from dotspin.hyperfine import (
    SI_LATTICE_CONSTANT,
    WavefunctionParams,
    _profile_integral,
    _vertical_integrals,
    _vertical_profile,
)
from dotspin import vanvleck
from dotspin.readout import NuclearReadoutConfig
from dotspin.vanvleck import (
    GAMMA_AL,
    GAMMA_SI,
    SPIN_AL,
    ElectrodeGeometry,
    _axis_rule,
    _moment_prefactor,
)


def vertical_integrals(params: WavefunctionParams) -> tuple:
    """The vertical profile's integrals over [0, region_z] and over the tail
    [region_z, 4 region_z], by a fresh quadrature for each params."""
    z_max = params.region[2]
    return (_profile_integral(params.f_z, 0.0, z_max),
            _profile_integral(params.f_z, z_max, z_max * 4))


def enclosed_probability(params: WavefunctionParams) -> float:
    """Fraction of the norm inside the box, from fresh vertical integrals."""
    lx, ly, _ = params.region
    d = params.dot_diameter
    i_in, i_tail = vertical_integrals(params)
    return math.erf(lx / d) * math.erf(ly / d) * i_in / (i_in + i_tail)


def generate_lattice(region, lattice_constant: float):
    """Diamond-cubic sites filling the region, from meshgrid cell indices."""
    region = tuple(float(v) for v in region)
    a = lattice_constant
    counts = [max(int(round(v / a)), 0) for v in region]
    if 0 in counts:
        return np.empty((0, 3))
    nx, ny, nz = counts
    base = np.array(
        [
            [0.00, 0.00, 0.00], [0.00, 0.50, 0.50],
            [0.50, 0.00, 0.50], [0.50, 0.50, 0.00],
            [0.25, 0.25, 0.25], [0.25, 0.75, 0.75],
            [0.75, 0.25, 0.75], [0.75, 0.75, 0.25],
        ]
    )
    ix, iy, iz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    cells = np.stack([ix, iy, iz], axis=-1).reshape(-1, 1, 3)
    sites = (cells + base) * a
    sites = sites.reshape(-1, 3)
    sites[:, 0] -= nx * a / 2.0
    sites[:, 1] -= ny * a / 2.0
    return sites


def wavefunction_density(positions, params: WavefunctionParams):
    """|psi|^2 in nm^-3 at (N, 3) positions, the profile evaluated per site."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    r_perp_sq = pos[:, 0] ** 2 + pos[:, 1] ** 2
    d = params.dot_diameter
    norm = 1.0 / (np.pi * d**2 / 4.0 * _vertical_integrals(params.f_z)[0])
    return (
        norm
        * np.exp(-4.0 * r_perp_sq / d**2)
        * _vertical_profile(pos[:, 2], params.f_z)
    )


def site_couplings(params: WavefunctionParams, k_hf: float):
    """Lattice positions and k_hf |psi|^2 at each, site by site."""
    sites = generate_lattice(params.region, SI_LATTICE_CONSTANT)
    return sites, k_hf * wavefunction_density(sites, params)


def calibrate_k_hf(diameter: float, f_z: float, max_a: float) -> float:
    params = WavefunctionParams(dot_diameter=diameter, f_z=f_z)
    sites = generate_lattice(params.region, SI_LATTICE_CONSTANT)
    return max_a / np.max(wavefunction_density(sites, params))


def monte_carlo_curves(diameters, thresholds, ppm: float, draws: int,
                       f_z: float, seed: int = 0) -> dict:
    """P(at least one occupied site with |A| >= threshold) by draws: each draw
    occupies every site independently with probability ppm x 1e-6, on one
    generator per diameter d keyed (seed, int(d * 1e6)). Returns the
    'probability' and 'stderr' estimates, the number of sites at or above
    each threshold as 'count', and the 'max_coupling_khz', each a
    (diameter, threshold) array. The couplings come from the package's
    site_couplings, which the tests hold to this module's per-site form."""
    thresholds = np.asarray(thresholds, dtype=float)
    out = {k: [] for k in ("probability", "stderr", "count", "max_coupling_khz")}
    for d in diameters:
        params = WavefunctionParams(dot_diameter=d, f_z=f_z)
        couplings = hyperfine.site_couplings(params)[1]
        order = np.sort(couplings[couplings >= thresholds.min()])
        rng = rng_for(seed, int(d * 1e6))
        hits = np.zeros(len(thresholds))
        for _ in range(draws):
            occupied = order[rng.random(len(order)) < ppm * 1e-6]
            best = occupied[-1] if occupied.size else -np.inf
            hits += best >= thresholds
        p = hits / draws
        out["probability"].append(p)
        out["stderr"].append(np.sqrt(p * (1 - p) / draws))
        out["count"].append([np.count_nonzero(couplings >= t) for t in thresholds])
        out["max_coupling_khz"].append(np.full(len(thresholds), couplings.max()))
    return {k: np.array(v) for k, v in out.items()}


def _angular_sum_chunk(x, y, z):
    r2 = x * x + y * y + z * z
    cos2 = z * z / r2
    return np.sum((1.0 - 3.0 * cos2) ** 2 / r2**3) * 1e54


def second_moment_sum(
    geometry: ElectrodeGeometry,
    gamma_n: float = GAMMA_SI,
    gamma_bath: float = GAMMA_AL,
    spin_bath: float = SPIN_AL,
    chunk_layers: int = 4,
) -> float:
    """M2 lattice sum over meshgrid copies of each block of layers."""
    a = geometry.al_lattice_constant
    lx, ly = geometry.lateral
    nx = int(np.floor(lx / a))
    ny = int(np.floor(ly / a))
    nz = int(np.floor(geometry.thickness / a))
    if nx == 0 or ny == 0 or nz == 0:
        return 0.0
    base = np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
    )
    xs = (np.arange(nx) - nx / 2.0) * a
    ys = (np.arange(ny) - ny / 2.0) * a
    total = 0.0
    for z0 in range(0, nz, chunk_layers):
        zs = (np.arange(z0, min(z0 + chunk_layers, nz))) * a + geometry.standoff
        for off in base:
            gx, gy, gz = np.meshgrid(
                xs + off[0] * a, ys + off[1] * a, zs + off[2] * a, indexing="ij"
            )
            total += _angular_sum_chunk(gx, gy, gz)
    return _moment_prefactor(gamma_n, gamma_bath, spin_bath) * total


def angular_term(x2, y2, z2):
    """(1 - 3 z^2/r^2)^2 / r^6, the Van Vleck sum's term, from x^2, y^2, z^2."""
    r2 = x2 + y2 + z2
    return (1.0 - 3.0 * z2 / r2) ** 2 / r2**3


def angular_laplacian(x2, y2, z2):
    """Laplacian of angular_term: 18 (5 z^4 - 2 z^2 r^2 + r^4) / r^12. The
    term is (4/r^6) (18/35 P_4 + 2/7 P_2 + 1/5) in the Legendre polynomials
    of cos theta, and the Laplacian of r^-6 P_l is (30 - l(l + 1)) r^-8 P_l."""
    r2 = x2 + y2 + z2
    return 18.0 * (5.0 * z2 * z2 - 2.0 * z2 * r2 + r2 * r2) / r2**6


def box_integral(box, term=angular_term) -> float:
    """Integral of term over an axis-aligned box that keeps clear of the
    nucleus, by the tensor product of the far field's axis rules."""
    (x, wx), (y, wy), (z, wz) = (_axis_rule(lo, hi, vanvleck.NEAR_FIELD_NM)
                                 for lo, hi in box)
    x2, y2, z2 = x[:, None, None] ** 2, y[None, :, None] ** 2, z[None, None, :] ** 2
    return float(np.einsum("ijk,i,j,k->", term(x2, y2, z2), wx, wy, wz))


def repetitive_nuclear_readout(
    nuclear_up: bool,
    config: NuclearReadoutConfig,
    rng: np.random.Generator,
    previous_reported: bool | None = None,
):
    """M-shot majority-vote readout, one scalar draw per read and per shot's
    flip test."""
    if previous_reported is None:
        previous_reported = nuclear_up
    hazard = 2.0 * config.t_shot_ms * 1e-3 / (config.t1_n_hours * 3600.0)
    p_flip = -np.expm1(-hazard)
    state = nuclear_up
    votes_up = 0
    for _ in range(config.m_shots):
        for _ in range(2):
            correct = rng.random() < config.f_e_avg
            votes_up += int(state if correct else not state)
        if rng.random() < p_flip:
            state = not state
    votes_down = 2 * config.m_shots - votes_up
    if votes_up > votes_down:
        reported = True
    elif votes_up < votes_down:
        reported = False
    else:
        reported = previous_reported
    return {"reported": reported, "votes_up": votes_up, "votes_down": votes_down}
