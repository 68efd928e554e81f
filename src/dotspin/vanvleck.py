"""Van Vleck second-moment estimate of the nuclear dephasing caused by the
dipolar field of the spin-5/2 aluminium nuclei in a metal gate above the
qubit.

Uses the unlike-spin second moment
    M2 = (4/15) (mu0/4pi)^2 gamma_I^2 gamma_S^2 hbar^2 S(S+1)
         * sum_j (1 - 3 cos^2 theta_j)^2 / r_j^6
summed over the FCC aluminium sites of the electrode volume: site by site
within NEAR_FIELD_NM of the nucleus, and beyond it as the continuum integral
plus its a^2 Euler-Maclaurin correction, with one axis of each region in
closed form. A continuum (equal-volume cylinder) integral over the whole gate
is the cross-check. The Gaussian free-induction decay exp(-M2 t^2 / 2) gives
T2* = sqrt(2/M2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _require_finite
from .quadrature import panel_rule

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
        _require_finite(self, ("standoff", "thickness", "lateral",
                               "al_lattice_constant"))
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
#: by its continuum integral and the a^2 correction (_far_integral). At 10 nm
#: the result is within 6.6e-8 relative of the whole-electrode sum at standoffs
#: 1.62-10 nm under the 300 x 100 x 50 nm gate (3.1e-9 at 1.62 nm); at 5 nm it
#: is up to 9.7e-7 off. Gates up to 20 nm wide and 10 nm thick lie inside the
#: box, so their sum is exact.
NEAR_FIELD_NM = 10.0

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


def second_moment_sum(geometry: ElectrodeGeometry) -> float:
    """Lattice sum of M2 (rad^2/s^2) over the FCC sites of the electrode:
    exact over the sites of the near box around the nucleus, plus the
    continuum integral and its a^2 correction over the rest of the slab (the
    standard near-field / far-field split of a lattice sum, Van Vleck, Phys.
    Rev. 74, 1168 (1948)).
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
    return _moment_prefactor(GAMMA_SI, GAMMA_AL, SPIN_AL) * total


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
    box, per FCC sublattice over the slab's cell box minus the near box's.

    A sublattice is a cubic lattice of step a, and each site owns the cube
    around it, so the faces sit half a step beyond the outermost sites. The
    midpoint rule's Euler-Maclaurin form then gives the sum over the region
    as int f / a^3 - (1/24a) int lap f + O(a^4). By the divergence theorem
    the second integral is the outward flux of grad f through the region's
    faces (_shell_flux)."""
    integral = 0.0
    for off in _FCC_BASIS * a:
        outer = [(c[0] + o - a / 2, c[-1] + o + a / 2) for c, o in zip(slab, off)]
        inner = [(c[0] + o - a / 2, c[-1] + o + a / 2) for c, o in zip(near, off)]
        for axis, box in _shell_boxes(outer, inner):
            # beside the near box rho >= R_c; above it y^2 + z^2 >= R_c^2
            integral += _box_integral(box, along=0 if axis == 2 else 2)
        integral -= a * a / 24.0 * _shell_flux(outer, inner)
    return integral / a**3


def _shell_boxes(outer, inner):
    """The (axis, box) pairs that tile `outer` minus `inner` (each box a list
    of (lo, hi) axis ranges, inner inside outer, in any number of axes): the
    two sides of `inner` along each axis in turn, empty ones left out."""
    boxes = []
    for axis in range(len(outer)):
        (lo, hi), (in_lo, in_hi) = outer[axis], inner[axis]
        for side in ((lo, in_lo), (in_hi, hi)):
            if side[1] > side[0]:
                boxes.append((axis, inner[:axis] + [side] + outer[axis + 1:]))
    return boxes


def _box_integral(box, along: int) -> float:
    """Integral of (1 - 3 z^2/r^2)^2 / r^6 over an axis-aligned box that
    keeps clear of the nucleus: exact along axis `along` (z or x), by the
    tensor product of the other two axes' rules.

    The term is q^2 / r^10 with q = x^2 + y^2 - 2 z^2. Along z it is
    4 (z^2 + c)^2 / (z^2 + s^2)^5 with s^2 = rho^2 and c = -rho^2/2; along x
    it is (x^2 + c)^2 / (x^2 + s^2)^5 with s^2 = y^2 + z^2, c = y^2 - 2 z^2."""
    (u, wu), (v, wv) = (_axis_rule(*box[j], NEAR_FIELD_NM) for j in range(3) if j != along)
    u2, v2 = u[:, None] ** 2, v[None, :] ** 2
    s2 = u2 + v2
    if along == 2:
        c, scale = -s2 / 2.0, 4.0
    else:
        c, scale = u2 - 2.0 * v2, 1.0
    return scale * float(wu @ _line_integral(*box[along], s2, c) @ wv)


def _line_integral(lo: float, hi: float, s2, c):
    """Integral over t in [lo, hi] of (t^2 + c)^2 / (t^2 + s^2)^5.

    Writing the numerator as (u + c - s^2)^2 with u = t^2 + s^2, the term
    is I_3' + 2 (c - s^2) I_4' + (c - s^2)^2 I_5', where I_n is an
    antiderivative of u^-n: I_1 = arctan(t/s)/s and
    I_{n+1} = (t / u^n + (2n - 1) I_n) / (2n s^2)."""
    s = np.sqrt(s2)
    d = c - s2
    ends = []
    for t in (lo, hi):
        u = t * t + s2
        u_n = u
        i_n = np.arctan(t / s) / s
        terms = []
        for n in range(1, 5):
            i_n = (t / u_n + (2 * n - 1) * i_n) / (2 * n * s2)
            terms.append(i_n)  # I_{n+1}
            u_n = u_n * u
        ends.append(terms[1] + 2.0 * d * terms[2] + d * d * terms[3])
    return ends[1] - ends[0]


def _shell_flux(outer, inner) -> float:
    """Outward flux of the gradient of (1 - 3 z^2/r^2)^2 / r^6 through the
    faces of `outer` minus `inner`: each face of `outer`, less what `inner`
    shares of it, and each face of `inner` that lies inside `outer`, crossed
    towards the nucleus. Faces shared by two of the boxes that tile the
    region cancel and are not integrated."""
    flux = 0.0
    for axis in range(3):
        outer_face = outer[:axis] + outer[axis + 1:]
        inner_face = inner[:axis] + inner[axis + 1:]
        for side, sign in ((0, -1.0), (1, 1.0)):
            at = outer[axis][side]
            if inner[axis][side] == at:
                faces = [face for _, face in _shell_boxes(outer_face, inner_face)]
            else:
                faces = [outer_face]
                flux -= sign * _face_flux(axis, inner[axis][side], inner_face)
            for face in faces:
                flux += sign * _face_flux(axis, at, face)
    return flux


def _face_flux(axis: int, at: float, face) -> float:
    """Integral of the gradient's `axis` component over the face at
    coordinate `at` on that axis, the other two axes spanning `face`, by the
    tensor product of their rules. With q = x^2 + y^2 - 2 z^2 the gradient
    is (2x q (2r^2 - 5q), 2y q (2r^2 - 5q), -2z q (4r^2 + 5q)) / r^12."""
    # every point of the face is at least |at| from the nucleus
    closest = max(NEAR_FIELD_NM, abs(at))
    (u, wu), (v, wv) = (_axis_rule(lo, hi, closest) for lo, hi in face)
    coords = [u[:, None], v[None, :]]
    coords.insert(axis, at)
    x, y, z = coords
    r2 = x * x + y * y + z * z
    q = r2 - 3.0 * z * z
    if axis == 2:
        normal = -2.0 * z * q * (4.0 * r2 + 5.0 * q)
    else:
        normal = 2.0 * (x, y)[axis] * q * (2.0 * r2 - 5.0 * q)
    return float(wu @ (normal / r2**6) @ wv)


@lru_cache(maxsize=256)
def _axis_rule(lo: float, hi: float, closest: float) -> tuple:
    """Gauss-Legendre nodes and weights on the axis range [lo, hi], in panels
    of width max(closest, d) / 2, d being the panel's distance from 0 (the
    nucleus) along this axis. `closest` is a distance from the nucleus that
    every point the rule serves keeps (NEAR_FIELD_NM outside the near box),
    and the term varies on the scale of the distance. Cached, as the boxes
    and faces of one sum share their ranges; the arrays must not be written
    to."""
    nodes, weights = [], []
    for start, stop in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
        if stop <= start:
            continue
        # edges at growing distance from the nucleus, mirrored below it
        sign = 1.0 if start >= 0.0 else -1.0
        nearest, farthest = sorted((abs(start), abs(stop)))
        edges = [nearest]
        while edges[-1] < farthest:
            edges.append(min(farthest, edges[-1] + max(closest, edges[-1]) / 2))
        panel_nodes, panel_weights = panel_rule(edges, _GAUSS_POINTS)
        nodes.append(sign * panel_nodes)
        weights.append(panel_weights)
    return np.concatenate(nodes), np.concatenate(weights)


def second_moment_cylinder_integral(geometry: ElectrodeGeometry) -> float:
    """Continuum M2: the lattice sum replaced by site-density times the
    integral over a coaxial cylinder of equal cross-sectional area, in
    closed form (_cylinder_antiderivative).

    The integration window is midpoint-corrected: the atomic layers are
    spaced a/2 apart starting exactly at the standoff, so each layer
    represents the slab [z - a/4, z + a/4]. Without the a/4 shift the
    integral misweights the dominant first layer and undershoots the
    discrete sum by ~20% at small standoff.
    """
    if geometry.thickness == 0:
        return 0.0
    radius = np.sqrt(geometry.lateral[0] * geometry.lateral[1] / np.pi)
    z_lo = geometry.standoff - geometry.al_lattice_constant / 4.0
    z_hi = geometry.standoff + geometry.thickness - geometry.al_lattice_constant / 4.0
    integral = np.pi * (_cylinder_antiderivative(z_hi, radius)
                        - _cylinder_antiderivative(z_lo, radius))
    density = 4.0 / geometry.al_lattice_constant**3  # nm^-3, FCC
    # density (nm^-3) * integral (nm^-3) = nm^-6; convert to m^-6
    return _moment_prefactor(GAMMA_SI, GAMMA_AL, SPIN_AL) * density * integral * 1e54


def _cylinder_antiderivative(z: float, radius: float) -> float:
    """An antiderivative in z of the cylinder's disc integral over
    2 pi rho drho of (1 - 3 z^2/r^2)^2 / r^6 (rho <= R), divided by pi.

    With u = r^2 the disc integral is pi [F(z^2 + R^2) - F(z^2)], where
    F(u) = -1/(2u^2) + 2z^2/u^3 - 9z^4/(4u^4). F(z^2) = -3/(4z^4), and with
    s = z^2 + R^2, F(s) = -3/(4s^2) + 5R^2/(2s^3) - 9R^4/(4s^4), whose z
    integral follows from the recursion for the integrals of s^-n.
    """
    s = z * z + radius * radius
    return (5.0 * z / (32.0 * s**2) - 3.0 * radius**2 * z / (8.0 * s**3)
            - 9.0 * z / (64.0 * radius**2 * s)
            - 9.0 * np.arctan(z / radius) / (64.0 * radius**3)
            - 1.0 / (4.0 * z**3))


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
