"""Contact hyperfine couplings of spin-carrying isotopes on the lattice
sites inside a quantum-dot electron wavefunction, and the exact chance that
a randomly placed isotope lands where the coupling clears a threshold.

The envelope is an Airy function vertically (triangular well set by the
confining electric field), a Gaussian laterally, modulated by the fast
two-valley oscillation. Couplings follow A_i = K_hf * |psi(r_i)|^2 with the
contact prefactor K_hf calibrated against the device's own maximum observed
coupling (~450 kHz for a 7 nm dot), since the Bloch-function bunching factor
is not independently known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _require_finite
from .quadrature import panel_rule

SI_LATTICE_CONSTANT = 0.543  # nm, unstrained silicon
M_ELECTRON = 9.1093837015e-31  # kg
M_Z = 0.916 * M_ELECTRON  # longitudinal effective mass along the field axis
HBAR = 1.054571817e-34  # J s
E_CHARGE = 1.602176634e-19  # C
VALLEY_K_FRACTION = 0.85  # valley wavevector as a fraction of 2*pi/a
VALLEY_WAVEVECTOR = VALLEY_K_FRACTION * 2.0 * np.pi / SI_LATTICE_CONSTANT  # nm^-1

#: First zero of the Airy function; the envelope vanishes at the interface.
#: The value of scipy.special.ai_zeros(1), which the tests check it against.
AIRY_A1 = -2.3381074104597674

#: Ai(0) and Ai'(0) (DLMF 9.2.3, 9.2.4), the constants of the Maclaurin series.
_AI_0 = 0.35502805388781723926
_AI_PRIME_0 = -0.25881940379280679840
#: Ai is summed from its Maclaurin series below this argument and taken from
#: the damped integral of DLMF 9.5.6 at and above it.
_AIRY_SERIES_MAX = 2.0
#: Terms of each Maclaurin series; down to AIRY_A1 the last is below 1e-21.
_AIRY_SERIES_TERMS = 12
#: Panels and Gauss-Legendre points per panel of the Airy integral. Half as
#: many panels reach the same 6e-14 relative agreement with scipy.special.airy
#: over [2, 46], a floor set by the rounding of exp(-zeta).
_AIRY_PANELS, _AIRY_POINTS = 8, 16
#: Arguments per block of the (argument, node) matrix of the Airy integral,
#: which bounds its memory at 1 MB.
_AIRY_CHUNK = 1024
#: Gauss-Legendre points per valley period of the vertical integrals. The
#: valley factor completes one oscillation per period: 12 points integrate the
#: profile to 1e-15 of quad at epsrel 1e-13 (10 points 5e-15, 8 only 1e-10).
_VERTICAL_POINTS = 12

DEFAULT_F_Z = 25.0  # MV/m, mid-range vertical field
CALIBRATION_DIAMETER = 7.0  # nm
CALIBRATION_MAX_A = 450.0  # kHz
MIN_DRAWS = 100  # placement draws behind probability_curves' stderr


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
    return (lateral, lateral, _box_height(f_z))


def _box_height(f_z: float) -> float:
    """Height in nm of default_region's box: 12 Airy lengths."""
    return 12.0 * airy_length(f_z)


@dataclass(frozen=True)
class WavefunctionParams:
    """Envelope model on the silicon lattice, boxed by default_region.
    dot_diameter is the 1/e point of the transverse charge distribution; z
    is measured upward from the interface."""

    dot_diameter: float = 8.0  # nm
    f_z: float = DEFAULT_F_Z  # MV/m

    def __post_init__(self):
        _require_finite(self, ("dot_diameter", "f_z"))
        if self.dot_diameter <= 0:
            raise ValueError("dot_diameter must be positive")
        if self.f_z <= 0:
            raise ValueError("f_z must be positive")
        _require_finite(self, ("region",))  # a huge diameter overflows it
        if enclosed_probability(self) < 0.999:
            raise ValueError("region too small: enclosed probability < 0.999")

    @property
    def region(self) -> tuple:
        """Simulation box (lx, ly, lz) in nm."""
        return default_region(self.dot_diameter, self.f_z)


def _vertical_profile(z, f_z: float):
    """Unnormalised vertical density Ai^2(z/l + a1) * 2cos^2(k_v z) at field
    f_z, zero below the interface."""
    z = np.asarray(z, dtype=float)
    ell = airy_length(f_z)
    # below the interface the profile is zero; Ai is taken at a1 there
    ai = _airy_ai(np.maximum(z, 0.0) / ell + AIRY_A1)
    valley = 2.0 * np.cos(VALLEY_WAVEVECTOR * z) ** 2
    return np.where(z >= 0, ai**2 * valley, 0.0)


def _airy_ai(x):
    """The Airy function Ai at x >= AIRY_A1 (any array shape), within
    2e-13 relative or 1e-15 absolute of scipy.special.airy up to x = 46."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    near = flat < _AIRY_SERIES_MAX
    out[near] = _airy_series(flat[near])
    far = np.flatnonzero(~near)
    t2, weights = _airy_rule()
    for start in range(0, far.size, _AIRY_CHUNK):
        index = far[start:start + _AIRY_CHUNK]
        xs = flat[index]
        terms = np.exp(-np.sqrt(xs)[:, None] * t2)
        terms *= weights
        out[index] = np.exp(-2.0 / 3.0 * xs**1.5) / np.pi * terms.sum(axis=1)
    return out.reshape(x.shape)


def _airy_series(x):
    """Ai(x) = Ai(0) f(x) + Ai'(0) g(x) from the Maclaurin series of f and g
    (DLMF 9.4.1), each by Horner's rule in x^3 on its term ratios."""
    x3 = x**3
    f = g = 1.0
    for k in range(_AIRY_SERIES_TERMS - 1, 0, -1):
        f = 1.0 + x3 * f / ((3 * k - 1) * (3 * k))
        g = 1.0 + x3 * g / ((3 * k) * (3 * k + 1))
    return _AI_0 * f + _AI_PRIME_0 * x * g


@lru_cache(maxsize=1)
def _airy_rule() -> tuple:
    """Squared nodes t^2 and weights times cos(t^3/3) of the composite rule
    for Ai(x) = exp(-zeta)/pi * integral over t >= 0 of
    exp(-sqrt(x) t^2) cos(t^3/3) (DLMF 9.5.6, zeta = 2/3 x^(3/2)), on
    [0, t_max] with sqrt(x) t_max^2 >= 40 for every x >= _AIRY_SERIES_MAX."""
    t_max = np.sqrt(40.0 / np.sqrt(_AIRY_SERIES_MAX))
    t, w = panel_rule(np.linspace(0.0, t_max, _AIRY_PANELS + 1), _AIRY_POINTS)
    return t * t, w * np.cos(t**3 / 3.0)


@lru_cache(maxsize=64)
def _vertical_integrals(f_z: float) -> tuple:
    """Integrals of the vertical profile at field f_z over the box height
    [0, z_max] and over the tail [z_max, 4 z_max] above it. A sweep over dot
    diameters shares one entry."""
    z_max = _box_height(f_z)
    return (_profile_integral(f_z, 0.0, z_max),
            _profile_integral(f_z, z_max, 4.0 * z_max))


def _profile_integral(f_z: float, lo: float, hi: float) -> float:
    """Integral of the vertical profile over [lo, hi] by a Gauss-Legendre
    rule on panels one valley period long, starting at lo."""
    period = np.pi / VALLEY_WAVEVECTOR
    z, w = panel_rule(np.append(np.arange(lo, hi, period), hi), _VERTICAL_POINTS)
    return float(np.sum(w * _vertical_profile(z, f_z)))


def _density_norm(params: WavefunctionParams) -> float:
    """N = 1 / (integral of |psi|^2 over the box), the transverse integral
    of exp(-4 r^2 / d^2) over the plane being pi d^2 / 4."""
    d = params.dot_diameter
    return 1.0 / (np.pi * d**2 / 4.0 * _vertical_integrals(params.f_z)[0])


def enclosed_probability(params: WavefunctionParams) -> float:
    """Fraction of the norm inside the simulation box."""
    lx, ly, _ = params.region
    d = params.dot_diameter
    i_in, i_tail = _vertical_integrals(params.f_z)
    i_all = i_in + i_tail
    # independent 1D Gaussian marginals exp(-4 x^2 / d^2) over [-l/2, l/2]
    return math.erf(lx / d) * math.erf(ly / d) * i_in / i_all


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


def _envelope(params: WavefunctionParams):
    """The separable factors of |psi|^2 on params' lattice: the lateral
    factor _density_norm * exp(-4 r^2 / d^2) as an (nx * ny, 8) array, one
    row per (x, y) column of cells, and the vertical profile as an (nz, 8)
    array, one row per layer of cells. Site (ix, iy, iz, k) has the density
    lateral[ix * ny + iy, k] * vertical[iz, k]. None if no whole cell fits.
    """
    axes = _lattice_axes(params.region, SI_LATTICE_CONSTANT)
    if axes is None:
        return None
    x, y, z = axes
    r_perp_sq = x[:, None, :] ** 2 + y[None, :, :] ** 2
    lateral = _density_norm(params) * np.exp(
        -4.0 * r_perp_sq / params.dot_diameter**2
    )
    return lateral.reshape(-1, 8), _vertical_profile(z, params.f_z)


def _lattice_density(params: WavefunctionParams):
    """|psi|^2 at each site of params' lattice, in generate_lattice's order:
    the envelope factors broadcast over the lattice. The site positions are
    never built.
    """
    envelope = _envelope(params)
    if envelope is None:
        return np.empty(0)
    lateral, vertical = envelope
    return (lateral[:, None, :] * vertical).reshape(-1)


def _peak_density(lateral, vertical):
    """The largest lateral * vertical product over the lattice. Both factors
    are >= 0 and rounding is monotone, so it pairs the largest factors of one
    basis site and equals np.max(_lattice_density(params)) bit for bit."""
    return np.max(lateral.max(axis=0) * vertical.max(axis=0))


def _count_at_least(lateral, vertical, k_hf: float, thresholds) -> np.ndarray:
    """Number of sites with k_hf * (lateral * vertical) >= each threshold.

    The product rises with the lateral factor, so on each basis site's
    sorted lateral column the sites that clear a threshold within one layer
    form a suffix. One vectorised bisection per (threshold, layer, basis
    site) lane finds where it starts, testing the coupling exactly as
    site_couplings computes it.
    """
    columns = np.sort(lateral, axis=0)
    n = len(columns)
    basis = np.arange(columns.shape[1])
    theta = np.asarray(thresholds, dtype=float)[:, None, None]
    lo = np.zeros((theta.shape[0],) + vertical.shape, dtype=np.intp)
    hi = np.full_like(lo, n)  # the first clearing index lies in [lo, hi]
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        clears = k_hf * (columns[np.minimum(mid, n - 1), basis] * vertical) >= theta
        clears |= lo >= hi  # a settled lane keeps its bounds
        hi = np.where(clears, mid, hi)
        lo = np.where(clears, lo, mid + 1)
    return (n - lo).sum(axis=(1, 2))


def _lattice_counts(params: WavefunctionParams, k_hf: float, thresholds):
    """(number of sites with |A| >= each threshold, peak |A| in kHz) over
    params' lattice, from the envelope factors without a per-site array."""
    envelope = _envelope(params)
    if envelope is None:
        return np.zeros(len(thresholds), dtype=int), 0.0
    counts = _count_at_least(*envelope, k_hf, thresholds)
    return counts, float(k_hf * _peak_density(*envelope))


@lru_cache(maxsize=1)
def calibrate_k_hf() -> float:
    """Contact prefactor K_hf (kHz nm^3) fixed so a CALIBRATION_DIAMETER dot at
    DEFAULT_F_Z supports CALIBRATION_MAX_A as the peak coupling attainable at
    an actual lattice site (the best-placed nucleus the device could host)."""
    envelope = _envelope(WavefunctionParams(dot_diameter=CALIBRATION_DIAMETER))
    return CALIBRATION_MAX_A / _peak_density(*envelope)


def site_couplings(params: WavefunctionParams):
    """Lattice positions and their |A| in kHz (every site, occupied or not)."""
    sites = generate_lattice(params.region)
    return sites, calibrate_k_hf() * _lattice_density(params)


def check_ppm(ppm: float) -> None:
    """Refuse an isotope concentration outside [0, 1e6] ppm."""
    if not 0 <= ppm <= 1e6:
        raise ValueError("ppm must be within [0, 1e6]")


def _any_occupied(count: int, p_occ: float) -> float:
    """P(at least one of count sites holds the isotope), each independently
    with probability p_occ: 1 - (1 - p_occ)^count."""
    if count == 0 or p_occ == 0.0:  # -expm1(0.0) would be -0.0
        return 0.0
    if p_occ == 1.0:  # math.log1p(-1.0) raises
        return 1.0
    return -math.expm1(count * math.log1p(-p_occ))


def probability_curves(
    diameter_range,
    thresholds,
    ppm: float = 800.0,
    draws: int = 1000,
    f_z: float = DEFAULT_F_Z,
) -> dict:
    """P(at least one occupied site with |A| >= threshold) vs dot diameter.

    Sites hold the isotope independently with probability ppm x 1e-6, so the
    probability is exactly 1 - (1 - ppm x 1e-6)^N, with N the number of
    lattice sites whose coupling clears the threshold. The stderr column is
    the binomial standard error sqrt(p (1 - p) / draws) of an experiment of
    `draws` independent placements.

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
    for name, values in (("diameter_range", diameter_range), ("thresholds", thresholds)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite, got {values.tolist()!r}")
    k_hf = calibrate_k_hf()
    p_occ = ppm * 1e-6

    rows = {k: [] for k in
            ("diameter_nm", "threshold_khz", "probability", "stderr",
             "max_coupling_khz")}
    for d in diameter_range:
        params = WavefunctionParams(dot_diameter=d, f_z=f_z)
        counts, max_a = _lattice_counts(params, k_hf, thresholds)
        for t, n in zip(thresholds, counts):
            p = _any_occupied(int(n), p_occ)
            rows["diameter_nm"].append(d)
            rows["threshold_khz"].append(t)
            rows["probability"].append(p)
            rows["stderr"].append(np.sqrt(p * (1 - p) / draws))
            rows["max_coupling_khz"].append(max_a)
    return {k: np.array(v) for k, v in rows.items()}
