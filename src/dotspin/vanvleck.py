"""Van Vleck second-moment estimate of the nuclear dephasing caused by the
dipolar field of the spin-5/2 aluminium nuclei in a metal gate above the
qubit.

Uses the unlike-spin second moment
    M2 = (4/15) (mu0/4pi)^2 gamma_I^2 gamma_S^2 hbar^2 S(S+1)
         * sum_j (1 - 3 cos^2 theta_j)^2 / r_j^6
summed over the FCC aluminium sites of the electrode volume (site by site
near the nucleus, as a continuum integral beyond), with a continuum
(equal-volume cylinder) integral over the whole gate as a cross-check. The
Gaussian free-induction decay exp(-M2 t^2 / 2) gives T2* = sqrt(2/M2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MU0_4PI = 1e-7  # T m / A
HBAR = 1.054571817e-34  # J s
GAMMA_SI = 2 * np.pi * 8.458e6  # rad/s/T, |gamma| of the qubit nucleus
GAMMA_AL = 2 * np.pi * 11.103e6  # rad/s/T, 27Al
SPIN_AL = 2.5
AL_LATTICE_CONSTANT = 0.405  # nm, FCC


@dataclass(frozen=True)
class ElectrodeGeometry:
    """Gate volume relative to the nucleus at the origin; the gate slab
    spans z in [standoff, standoff + thickness], in nm."""

    standoff: float
    thickness: float = 50.0
    lateral: tuple = (300.0, 100.0)
    al_lattice_constant: float = AL_LATTICE_CONSTANT

    def __post_init__(self):
        if self.standoff <= 0:
            raise ValueError("standoff must be positive")
        if self.thickness < 0:
            raise ValueError(f"thickness must be >= 0, got {self.thickness!r}")
        if len(self.lateral) != 2:
            raise ValueError(
                f"lateral must have exactly two entries, got {self.lateral!r}"
            )
        if any(v <= 0 for v in self.lateral):
            raise ValueError(
                f"lateral dimensions must be positive, got {self.lateral!r}"
            )

    @property
    def volume_nm3(self) -> float:
        return self.thickness * self.lateral[0] * self.lateral[1]

    @property
    def site_density_nm3(self) -> float:
        return 4.0 / self.al_lattice_constant**3


def _moment_prefactor(gamma_n: float, gamma_bath: float, spin_bath: float) -> float:
    return (
        (4.0 / 15.0)
        * MU0_4PI**2
        * gamma_n**2
        * gamma_bath**2
        * HBAR**2
        * spin_bath
        * (spin_bath + 1.0)
    )


#: Half-width (nm) of the near box summed site by site: |x|, |y| <= NEAR_FIELD_NM
#: and z <= standoff + NEAR_FIELD_NM. Beyond it each FCC sublattice is replaced
#: by its continuum integral. At 35 nm the result is within 1e-6 relative of
#: the whole-electrode sum at standoffs 1.62-10 nm under the 300 x 100 x 50 nm
#: gate; at 20 nm it is 8.5e-6 off at 10 nm.
NEAR_FIELD_NM = 35.0

#: Atomic layers per block of the near-field sum. The blocks, each summed as
#: one C-ordered (x, y, layer) array, fix the order of the floating-point
#: summation, and so the bits of the result.
_CHUNK_LAYERS = 4

#: FCC basis, 4 sites per conventional cell, in cell units.
_FCC_BASIS = np.array(
    [[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
)

#: Gauss-Legendre points per axis of each far-field panel.
_GAUSS_POINTS = 8


def second_moment_sum(
    geometry: ElectrodeGeometry,
    gamma_n: float = GAMMA_SI,
    gamma_bath: float = GAMMA_AL,
    spin_bath: float = SPIN_AL,
) -> float:
    """Lattice sum of M2 (rad^2/s^2) over the FCC sites of the electrode:
    exact over the sites of the near box around the nucleus, plus the
    continuum integral over the rest of the slab (the standard near-field /
    far-field split of a lattice sum, Van Vleck, Phys. Rev. 74, 1168 (1948)).
    When the near box covers the electrode, the sum is exact.
    """
    a = geometry.al_lattice_constant
    lx, ly = geometry.lateral
    nx = int(np.floor(lx / a))
    ny = int(np.floor(ly / a))
    nz = int(np.floor(geometry.thickness / a))
    if nx == 0 or ny == 0 or nz == 0:
        return 0.0
    # cell origins; the near box is a contiguous run of them on each axis
    slab = (
        (np.arange(nx) - nx / 2.0) * a,
        (np.arange(ny) - ny / 2.0) * a,
        np.arange(nz) * a + geometry.standoff,
    )
    near = (
        slab[0][np.abs(slab[0]) <= NEAR_FIELD_NM],
        slab[1][np.abs(slab[1]) <= NEAR_FIELD_NM],
        slab[2][slab[2] <= geometry.standoff + NEAR_FIELD_NM],
    )
    total = _near_sum(*near, a) + _far_integral(slab, near, a) * 1e54
    return _moment_prefactor(gamma_n, gamma_bath, spin_bath) * total


def _near_sum(xs, ys, zs, a: float) -> float:
    """Sum of (1 - 3 z^2/r^2)^2 / r^6 (m^-6) over the FCC sites of the cells
    with origins xs x ys x zs, processed a few atomic layers at a time.

    The term depends on x^2, y^2 and z^2 alone, and the grid, centred on the
    nucleus, repeats most x^2 and y^2 values. Each block of layers and basis
    offset evaluates the term once per distinct (x^2, y^2) pair and expands
    it onto the (x, y, layer) block that is summed.
    """
    planes = []
    for off in _FCC_BASIS:
        x = xs + off[0] * a
        y = ys + off[1] * a
        x2, x_index = np.unique(x * x, return_inverse=True)
        y2, y_index = np.unique(y * y, return_inverse=True)
        planes.append((x2[:, None] + y2, x_index, y_index))
    total = 0.0
    for z0 in range(0, len(zs), _CHUNK_LAYERS):
        layers = zs[z0:z0 + _CHUNK_LAYERS]
        for off, (xy2, x_index, y_index) in zip(_FCC_BASIS, planes):
            z = (layers + off[2] * a)[:, None, None]
            z2 = z * z
            r2 = xy2 + z2  # (layer, distinct x^2, distinct y^2)
            term = z2 / r2  # cos^2 theta
            term *= 3.0
            np.subtract(1.0, term, out=term)
            np.square(term, out=term)
            np.power(r2, 3, out=r2)  # r^6
            term /= r2
            # (x, y, layer), the order in which the sum adds the terms up
            block = term.transpose(1, 2, 0)[:, y_index][x_index]
            total += np.sum(block) * 1e54  # nm^-6 -> m^-6
    return total


def _far_integral(slab, near, a: float) -> float:
    """Continuum stand-in (nm^-6) for the sites of the slab outside the near
    box: per FCC sublattice, its site density 1/a^3 times the integral of the
    term over the slab's cell box minus the near box's cell box. Each site
    owns the cube of side a around it, so the faces sit half a step beyond
    the outermost sites and the midpoint error stays O(a^2)."""
    # numpy.polynomial is imported on first use, so not by `import dotspin`
    rule = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    integral = 0.0
    for off in _FCC_BASIS * a:
        outer = [(c[0] + o - a / 2, c[-1] + o + a / 2) for c, o in zip(slab, off)]
        inner = [(c[0] + o - a / 2, c[-1] + o + a / 2) for c, o in zip(near, off)]
        for box in _shell_boxes(outer, inner):
            integral += _box_integral(box, rule)
    return integral / a**3


def _shell_boxes(outer, inner):
    """The boxes that tile `outer` minus `inner` (each a list of three
    (lo, hi) axis ranges, inner inside outer), empty ones left out."""
    boxes = []
    for axis in range(3):
        (lo, hi), (in_lo, in_hi) = outer[axis], inner[axis]
        for side in ((lo, in_lo), (in_hi, hi)):
            if side[1] > side[0]:
                boxes.append(inner[:axis] + [side] + outer[axis + 1:])
    return boxes


def _box_integral(box, rule) -> float:
    """Integral of (1 - 3 z^2/r^2)^2 / r^6 over an axis-aligned box that
    keeps clear of the nucleus, by the tensor product of the Gauss-Legendre
    rule (nodes, weights) on [-1, 1]."""
    (x, wx), (y, wy), (z, wz) = (_axis_rule(lo, hi, rule) for lo, hi in box)
    x2, y2, z2 = x[:, None, None] ** 2, y[None, :, None] ** 2, z[None, None, :] ** 2
    r2 = x2 + y2 + z2
    term = (1.0 - 3.0 * z2 / r2) ** 2 / r2**3
    return float(np.einsum("ijk,i,j,k->", term, wx, wy, wz))


def _axis_rule(lo: float, hi: float, rule) -> tuple:
    """Gauss-Legendre nodes and weights on the axis range [lo, hi], in panels
    of width max(NEAR_FIELD_NM, d) / 2, d being the panel's distance from 0
    (the nucleus) along this axis. Every point outside the near box is about
    NEAR_FIELD_NM or more from the nucleus, and the term varies on the scale
    of that distance."""
    gauss_nodes, gauss_weights = rule
    nodes, weights = [], []
    for start, stop in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
        if stop <= start:
            continue
        # edges at growing distance from the nucleus, mirrored below it
        sign = 1.0 if start >= 0.0 else -1.0
        closest, farthest = sorted((abs(start), abs(stop)))
        edges = [closest]
        while edges[-1] < farthest:
            edges.append(min(farthest, edges[-1] + max(NEAR_FIELD_NM, edges[-1]) / 2))
        left, right = np.array(edges[:-1]), np.array(edges[1:])
        half = (right - left)[:, None] / 2
        nodes.append(sign * ((left + right)[:, None] / 2 + half * gauss_nodes).ravel())
        weights.append((half * gauss_weights).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def second_moment_cylinder_integral(
    geometry: ElectrodeGeometry,
    gamma_n: float = GAMMA_SI,
    gamma_bath: float = GAMMA_AL,
    spin_bath: float = SPIN_AL,
) -> float:
    """Continuum M2: the lattice sum replaced by site-density times the
    integral over a coaxial cylinder of equal cross-sectional area.

    The integration window is midpoint-corrected: the atomic layers are
    spaced a/2 apart starting exactly at the standoff, so each layer
    represents the slab [z - a/4, z + a/4]. Without the a/4 shift the
    integral misweights the dominant first layer and undershoots the
    discrete sum by ~20% at small standoff.
    """
    from scipy.integrate import dblquad

    if geometry.thickness == 0:
        return 0.0
    radius = np.sqrt(geometry.lateral[0] * geometry.lateral[1] / np.pi)
    z_lo = geometry.standoff - geometry.al_lattice_constant / 4.0
    z_hi = geometry.standoff + geometry.thickness - geometry.al_lattice_constant / 4.0

    def integrand(rho, z):
        r2 = rho * rho + z * z
        cos2 = z * z / r2
        return 2.0 * np.pi * rho * (1.0 - 3.0 * cos2) ** 2 / r2**3

    integral, _ = dblquad(integrand, z_lo, z_hi, 0.0, radius)
    density = geometry.site_density_nm3  # nm^-3
    # density (nm^-3) * integral (nm^-3) = nm^-6; convert to m^-6
    return _moment_prefactor(gamma_n, gamma_bath, spin_bath) * density * integral * 1e54


def t2star_from_moment(m2: float) -> float:
    """Gaussian FID 1/e time T2* = sqrt(2/M2), returned in ms."""
    if m2 <= 0:
        raise ValueError("second moment must be positive")
    return float(np.sqrt(2.0 / m2) * 1e3)


def standoff_sweep(
    standoffs,
    thickness: float = 50.0,
    lateral: tuple = (300.0, 100.0),
) -> dict:
    """Both M2 forms and their T2* over a standoff range (the vertical
    placement of the nucleus below the gate is not precisely known)."""
    rows = {k: [] for k in
            ("standoff_nm", "m2_sum", "m2_integral", "t2star_sum_ms",
             "t2star_integral_ms")}
    for d in np.asarray(standoffs, dtype=float):
        geo = ElectrodeGeometry(standoff=d, thickness=thickness, lateral=lateral)
        m_sum = second_moment_sum(geo)
        m_int = second_moment_cylinder_integral(geo)
        rows["standoff_nm"].append(d)
        rows["m2_sum"].append(m_sum)
        rows["m2_integral"].append(m_int)
        rows["t2star_sum_ms"].append(t2star_from_moment(m_sum))
        rows["t2star_integral_ms"].append(t2star_from_moment(m_int))
    return {k: np.array(v) for k, v in rows.items()}
