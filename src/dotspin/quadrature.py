"""Composite Gauss-Legendre rules, shared by the integrals of the lattice
layers (the hyperfine envelope's vertical integrals and Airy function, the
Van Vleck continuum)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_legendre(points: int) -> tuple:
    """Nodes and weights of the points-point Gauss-Legendre rule on [-1, 1].
    The arrays are shared by every caller and must not be written to."""
    # imported on first use, so that `import dotspin.cli` does not load it
    from numpy.polynomial.legendre import leggauss

    return leggauss(points)


def panel_rule(edges, points: int) -> tuple:
    """Nodes and weights of the points-point Gauss-Legendre rule on each
    panel [edges[i], edges[i + 1]], flattened panel by panel."""
    gauss_nodes, gauss_weights = gauss_legendre(points)
    edges = np.asarray(edges, dtype=float)
    left, right = edges[:-1], edges[1:]
    half = (right - left)[:, None] / 2
    return (((left + right)[:, None] / 2 + half * gauss_nodes).ravel(),
            (half * gauss_weights).ravel())
