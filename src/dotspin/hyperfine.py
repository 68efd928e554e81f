"""Monte Carlo distribution of contact hyperfine couplings for randomly
placed spin-carrying isotopes inside a quantum-dot electron wavefunction.

The envelope is an Airy function vertically (triangular well set by the
confining electric field), a Gaussian laterally, modulated by the fast
two-valley oscillation. Couplings follow A_i = K_hf * |psi(r_i)|^2 with the
contact prefactor K_hf calibrated against the device's own maximum observed
coupling (~450 kHz for a 7 nm dot), since the Bloch-function bunching factor
is not independently known.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import rng_for

SI_LATTICE_CONSTANT = 0.543  # nm, unstrained silicon
M_ELECTRON = 9.1093837015e-31  # kg
M_Z = 0.916 * M_ELECTRON  # longitudinal effective mass along the field axis
HBAR = 1.054571817e-34  # J s
E_CHARGE = 1.602176634e-19  # C
VALLEY_K_FRACTION = 0.85  # valley wavevector as a fraction of 2*pi/a

#: First zero of the Airy function; the envelope vanishes at the interface.
AIRY_A1 = -2.3381074104597674  # float(scipy.special.ai_zeros(1)[0][0])

DEFAULT_F_Z = 25.0  # MV/m, mid-range vertical field
CALIBRATION_DIAMETER = 7.0  # nm
CALIBRATION_MAX_A = 450.0  # kHz
MIN_DRAWS = 100  # placement draws per diameter in probability_curves


def airy_length(f_z: float) -> float:
    """Vertical confinement length l = (hbar^2 / (2 m_z e F_z))^(1/3) in nm,
    for f_z in MV/m."""
    if f_z <= 0:
        raise ValueError("electric field must be positive")
    l_m = (HBAR**2 / (2.0 * M_Z * E_CHARGE * f_z * 1e6)) ** (1.0 / 3.0)
    return l_m * 1e9


def default_region(dot_diameter: float, f_z: float) -> tuple:
    """Simulation box (lx, ly, lz) in nm enclosing >= 99.9% probability."""
    lateral = 3.2 * dot_diameter
    vertical = 12.0 * airy_length(f_z)
    return (lateral, lateral, vertical)


@dataclass(frozen=True)
class WavefunctionParams:
    """Envelope model. dot_diameter is the 1/e point of the transverse
    charge distribution; z is measured upward from the interface."""

    dot_diameter: float = 8.0  # nm
    f_z: float = DEFAULT_F_Z  # MV/m
    valley_phase: float = 0.0  # rad
    lattice_constant: float = SI_LATTICE_CONSTANT  # nm
    region: tuple = None  # (lx, ly, lz) nm; None -> auto-sized

    def __post_init__(self):
        if self.dot_diameter <= 0:
            raise ValueError("dot_diameter must be positive")
        if self.f_z <= 0:
            raise ValueError("f_z must be positive")
        if self.region is None:
            object.__setattr__(
                self, "region", default_region(self.dot_diameter, self.f_z)
            )
        if enclosed_probability(self) < 0.999:
            raise ValueError("region too small: enclosed probability < 0.999")

    @property
    def airy_length_nm(self) -> float:
        return airy_length(self.f_z)

    @property
    def valley_wavevector(self) -> float:
        """nm^-1, along z."""
        return _valley_wavevector(self.lattice_constant)


def _valley_wavevector(lattice_constant: float) -> float:
    """Valley wavevector in nm^-1 for a lattice constant in nm."""
    return VALLEY_K_FRACTION * 2.0 * np.pi / lattice_constant


def _vertical_profile(z, params):
    """Unnormalised vertical density Ai^2(z/l + a1) * 2cos^2(k_v z + phi),
    zero below the interface. params is a WavefunctionParams or a _Vertical;
    only f_z, valley_phase and lattice_constant are read."""
    from scipy.special import airy

    z = np.asarray(z, dtype=float)
    ell = airy_length(params.f_z)
    ai = airy(z / ell + AIRY_A1)[0]
    k_v = _valley_wavevector(params.lattice_constant)
    valley = 2.0 * np.cos(k_v * z + params.valley_phase) ** 2
    return np.where(z >= 0, ai**2 * valley, 0.0)


class _Vertical(NamedTuple):
    """The fields of WavefunctionParams that the vertical integrals read:
    every field but the dot diameter and the lateral box."""

    f_z: float
    valley_phase: float
    lattice_constant: float
    z_max: float  # box height, region[2]


def _vertical(params: WavefunctionParams) -> _Vertical:
    return _Vertical(params.f_z, params.valley_phase, params.lattice_constant,
                     params.region[2])


@lru_cache(maxsize=64)
def _vertical_integrals(vertical: _Vertical) -> tuple:
    """Integrals of the vertical profile over the box height [0, z_max] and
    over the tail [z_max, 4 z_max] above it. A sweep over dot diameters
    shares one entry."""
    from scipy.integrate import quad

    def profile(z):
        return float(_vertical_profile(z, vertical))

    z_max = vertical.z_max
    # the valley oscillation is fast; give quad its period as a hint
    period = np.pi / _valley_wavevector(vertical.lattice_constant)
    pts = np.arange(0.0, z_max, 10 * period)
    inside = quad(profile, 0.0, z_max,
                  points=pts[1:-1] if len(pts) > 2 else None, limit=400)[0]
    return inside, quad(profile, z_max, z_max * 4, limit=400)[0]


def _vertical_integral(params: WavefunctionParams) -> float:
    """Integral of the vertical profile over the box height [0, region_z]."""
    return _vertical_integrals(_vertical(params))[0]


def _density_norm(params: WavefunctionParams) -> float:
    """N = 1 / (integral of |psi|^2 over the box), the transverse integral
    of exp(-4 r^2 / d^2) over the plane being pi d^2 / 4."""
    d = params.dot_diameter
    return 1.0 / (np.pi * d**2 / 4.0 * _vertical_integral(params))


def wavefunction_density(positions, params: WavefunctionParams):
    """|psi|^2 in nm^-3 at (..., 3) positions (x, y, z) in nm, the interface
    at z = 0 and the dot centred on the z axis."""
    pos = np.asarray(positions, dtype=float)
    scalar = pos.ndim == 1
    pos = np.atleast_2d(pos)
    r_perp_sq = pos[:, 0] ** 2 + pos[:, 1] ** 2
    density = (
        _density_norm(params)
        * np.exp(-4.0 * r_perp_sq / params.dot_diameter**2)
        * _vertical_profile(pos[:, 2], params)
    )
    return float(density[0]) if scalar else density


def enclosed_probability(params: WavefunctionParams) -> float:
    """Fraction of the norm inside the simulation box."""
    from scipy.special import erf

    lx, ly, _ = params.region
    d = params.dot_diameter
    i_in, i_tail = _vertical_integrals(_vertical(params))
    i_all = i_in + i_tail
    # independent 1D Gaussian marginals exp(-4 x^2 / d^2) over [-l/2, l/2]
    return erf(lx / d) * erf(ly / d) * i_in / i_all


#: Diamond-cubic basis, 8 sites per conventional cell, in cell units.
_DIAMOND_BASIS = np.array(
    [
        [0.00, 0.00, 0.00], [0.00, 0.50, 0.50],
        [0.50, 0.00, 0.50], [0.50, 0.50, 0.00],
        [0.25, 0.25, 0.25], [0.25, 0.75, 0.75],
        [0.75, 0.25, 0.75], [0.75, 0.75, 0.25],
    ]
)


def _lattice_axes(region, lattice_constant: float):
    """Per-axis coordinates (x, y, z) of the diamond lattice filling the
    region, each an (n_cells, 8) array: site (ix, iy, iz, k) sits at
    (x[ix, k], y[iy, k], z[iz, k]). None if no whole cell fits."""
    region = tuple(float(v) for v in region)
    if any(v < 0 for v in region):
        raise ValueError("region dimensions must be non-negative")
    a = lattice_constant
    counts = [max(int(round(v / a)), 0) for v in region]
    if 0 in counts:
        return None
    x, y, z = (
        (np.arange(n)[:, None] + _DIAMOND_BASIS[:, i]) * a
        for i, n in enumerate(counts)
    )
    x -= counts[0] * a / 2.0
    y -= counts[1] * a / 2.0
    return x, y, z


def _sites(x, y, z):
    """(N, 3) positions of every site of the lattice axes, ordered by cell
    (x, y, z index) and then by basis site."""
    sites = np.empty((len(x), len(y), len(z), 8, 3))
    sites[..., 0] = x[:, None, None, :]
    sites[..., 1] = y[None, :, None, :]
    sites[..., 2] = z
    return sites.reshape(-1, 3)


def generate_lattice(region, lattice_constant: float = SI_LATTICE_CONSTANT):
    """Diamond-cubic sites filling the region (lx, ly, lz in nm), 8 per
    conventional cell. The box is snapped to whole cells (the realised site
    count is exactly 8 per cell); x, y are centred on 0, z starts at 0.

    Returns an (N, 3) array of positions in nm, ordered by cell (x, y, z
    index) and then by basis site.
    """
    axes = _lattice_axes(region, lattice_constant)
    return np.empty((0, 3)) if axes is None else _sites(*axes)


def _lattice_density(params: WavefunctionParams):
    """|psi|^2 at each site of params' lattice, in generate_lattice's order
    and bitwise equal to wavefunction_density(sites, params).

    The envelope is separable: the Gaussian is evaluated once per (x, y)
    column of sites and the vertical profile once per atomic layer, and
    their product is broadcast over the lattice. The site positions are
    never built.
    """
    axes = _lattice_axes(params.region, params.lattice_constant)
    if axes is None:
        return np.empty(0)
    x, y, z = axes
    r_perp_sq = x[:, None, :] ** 2 + y[None, :, :] ** 2
    lateral = _density_norm(params) * np.exp(
        -4.0 * r_perp_sq / params.dot_diameter**2
    )
    density = lateral[:, :, None, :] * _vertical_profile(z, params)
    return density.reshape(-1)


@lru_cache(maxsize=16)
def calibrate_k_hf(
    diameter: float = CALIBRATION_DIAMETER,
    f_z: float = DEFAULT_F_Z,
    max_a: float = CALIBRATION_MAX_A,
) -> float:
    """Contact prefactor K_hf (kHz nm^3) fixed so a dot of the given
    diameter supports max_a as the peak coupling attainable at an actual
    lattice site (the best-placed nucleus the device could host)."""
    params = WavefunctionParams(dot_diameter=diameter, f_z=f_z)
    return max_a / np.max(_lattice_density(params))


@dataclass
class HyperfineSample:
    """One isotope-placement draw: positions (nm) and coupling magnitudes
    (kHz) of the occupied sites."""

    positions: np.ndarray
    a_values: np.ndarray
    ppm: float

    def count_above(self, threshold_khz: float) -> int:
        return int(np.sum(self.a_values >= threshold_khz))


def _couplings(params: WavefunctionParams, k_hf: float | None = None):
    """|A| in kHz at every lattice site, occupied or not, in
    generate_lattice's order."""
    if k_hf is None:
        k_hf = calibrate_k_hf()
    return k_hf * _lattice_density(params)


def site_couplings(params: WavefunctionParams, k_hf: float | None = None):
    """Lattice positions and their |A| in kHz (every site, occupied or not)."""
    sites = generate_lattice(params.region, params.lattice_constant)
    return sites, _couplings(params, k_hf)


def check_ppm(ppm: float) -> None:
    """Refuse an isotope concentration outside [0, 1e6] ppm."""
    if not 0 <= ppm <= 1e6:
        raise ValueError("ppm must be within [0, 1e6]")


def sample_hyperfine(
    params: WavefunctionParams,
    ppm: float,
    rng: np.random.Generator,
    k_hf: float | None = None,
) -> HyperfineSample:
    """Place the isotope independently at each lattice site with probability
    ppm x 1e-6, drawn from the caller's rng, and evaluate the contact
    coupling there."""
    check_ppm(ppm)
    sites, couplings = site_couplings(params, k_hf)
    mask = rng.random(len(sites)) < ppm * 1e-6
    return HyperfineSample(
        positions=sites[mask], a_values=couplings[mask], ppm=ppm
    )


def probability_curves(
    diameter_range,
    thresholds,
    ppm: float = 800.0,
    draws: int = 1000,
    f_z: float = DEFAULT_F_Z,
    seed: int = 0,
    k_hf: float | None = None,
) -> dict:
    """P(at least one site with |A| >= threshold) vs dot diameter.

    Returns {'diameter_nm', 'threshold_khz', 'probability', 'stderr',
    'max_coupling_khz'} as flat equal-length arrays (rows = diameter x
    threshold grid).
    """
    if draws < MIN_DRAWS:
        raise ValueError(f"draws must be >= {MIN_DRAWS}")
    check_ppm(ppm)
    diameter_range = np.asarray(diameter_range, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.size == 0:
        raise ValueError("thresholds must be non-empty")
    p_occ = ppm * 1e-6

    rows = {k: [] for k in
            ("diameter_nm", "threshold_khz", "probability", "stderr",
             "max_coupling_khz")}
    for d in diameter_range:
        params = WavefunctionParams(dot_diameter=d, f_z=f_z)
        couplings = _couplings(params, k_hf)
        max_a = float(np.max(couplings)) if couplings.size else 0.0
        # only sites that can clear the smallest threshold matter
        floor = float(np.min(thresholds))
        eligible = couplings[couplings >= floor]
        order = np.sort(eligible)
        rng = rng_for(seed, int(d * 1e6))
        hits = np.zeros(len(thresholds))
        for _ in range(draws):
            occupied = order[rng.random(len(order)) < p_occ]
            best = occupied[-1] if occupied.size else -np.inf
            hits += best >= thresholds
        p = hits / draws
        for t, pi in zip(thresholds, p):
            rows["diameter_nm"].append(d)
            rows["threshold_khz"].append(t)
            rows["probability"].append(pi)
            rows["stderr"].append(np.sqrt(pi * (1 - pi) / draws))
            rows["max_coupling_khz"].append(max_a)
    return {k: np.array(v) for k, v in rows.items()}


def max_coupling_surface(diameter_range, f_z_range, k_hf: float | None = None):
    """Peak attainable |A| (kHz) over the lattice vs (diameter, F_z)."""
    rows = {"diameter_nm": [], "f_z_mv_m": [], "max_coupling_khz": []}
    for d in np.asarray(diameter_range, dtype=float):
        for fz in np.asarray(f_z_range, dtype=float):
            params = WavefunctionParams(dot_diameter=d, f_z=fz)
            couplings = _couplings(params, k_hf)
            rows["diameter_nm"].append(d)
            rows["f_z_mv_m"].append(fz)
            rows["max_coupling_khz"].append(
                float(np.max(couplings)) if couplings.size else 0.0
            )
    return {k: np.array(v) for k, v in rows.items()}
