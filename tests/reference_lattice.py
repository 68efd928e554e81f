"""Reference per-site forms of the lattice layers, kept only to check the
fast paths in ``dotspin.hyperfine``, ``dotspin.vanvleck`` and
``dotspin.readout`` against.

These are the package's original implementations: the vertical integrals
run a fresh quad for every WavefunctionParams, the diamond lattice is
built from meshgrid copies of the cell indices, the hyperfine density
evaluates the envelope at every lattice site, the Van Vleck sum
builds full meshgrid copies of each block of layers, and the repetitive
readout draws one scalar per electron read and per flip test. The fast
paths must reproduce them bit for bit and draw for draw.
"""

from __future__ import annotations

import numpy as np

from dotspin.hyperfine import (
    WavefunctionParams,
    _vertical_integral,
    _vertical_profile,
)
from dotspin.readout import NuclearReadoutConfig
from dotspin.vanvleck import (
    GAMMA_AL,
    GAMMA_SI,
    SPIN_AL,
    ElectrodeGeometry,
    _moment_prefactor,
)


def vertical_integrals(params: WavefunctionParams) -> tuple:
    """The vertical profile's integrals over [0, region_z] and over the tail
    [region_z, 4 region_z], by a fresh quad for each params."""
    from scipy.integrate import quad

    def profile(z):
        return float(_vertical_profile(z, params))

    z_max = params.region[2]
    period = np.pi / params.valley_wavevector
    pts = np.arange(0.0, z_max, 10 * period)
    inside = quad(profile, 0.0, z_max,
                  points=pts[1:-1] if len(pts) > 2 else None, limit=400)[0]
    return inside, quad(profile, z_max, z_max * 4, limit=400)[0]


def enclosed_probability(params: WavefunctionParams) -> float:
    """Fraction of the norm inside the box, from fresh vertical integrals."""
    from scipy.special import erf

    lx, ly, _ = params.region
    d = params.dot_diameter
    i_in, i_tail = vertical_integrals(params)
    return erf(lx / d) * erf(ly / d) * i_in / (i_in + i_tail)


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
    norm = 1.0 / (np.pi * d**2 / 4.0 * _vertical_integral(params))
    return (
        norm
        * np.exp(-4.0 * r_perp_sq / d**2)
        * _vertical_profile(pos[:, 2], params)
    )


def site_couplings(params: WavefunctionParams, k_hf: float):
    """Lattice positions and k_hf |psi|^2 at each, site by site."""
    sites = generate_lattice(params.region, params.lattice_constant)
    return sites, k_hf * wavefunction_density(sites, params)


def calibrate_k_hf(diameter: float, f_z: float, max_a: float) -> float:
    params = WavefunctionParams(dot_diameter=diameter, f_z=f_z)
    sites = generate_lattice(params.region, params.lattice_constant)
    return max_a / np.max(wavefunction_density(sites, params))


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
