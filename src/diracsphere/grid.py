"""Quadrature grid on the round 2-sphere.

Tensor grid: Gauss-Legendre nodes in x = cos(theta) (nodes and weights from
one Legendre recurrence) times a uniform longitude grid; weights sum to 4*pi.
A grid of ``degree`` L integrates exactly every integrand that is a polynomial
of degree <= L in cos(theta) times a trigonometric polynomial of degree <= L
in the longitude: all the L^2 pairings of truncated spectral spinors.

Chart conventions (shared package-wide):

* colatitude theta in (0, pi) from the north pole N = (0, 0, 1),
* chart A centered at N:  z = (xi1 + i xi2) / (1 + xi3),  |z| = tan(theta/2),
* chart B centered at S:  w = (xi1 - i xi2) / (1 - xi3) = 1 / z,
* conformal factor to the flat metric in either chart: f = 2 / (1 + |.|^2).

Nodes never sit on a pole, so both chart coordinate arrays are finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre x uniform-longitude quadrature on S^2."""

    degree: int
    n_theta: int = field(init=False)
    n_phi: int = field(init=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("grid degree must be >= 1")
        object.__setattr__(self, "n_theta", (self.degree + 2) // 2)
        object.__setattr__(self, "n_phi", self.degree + 1)
        # six Newton passes x <- x - P_n/P_n' from cos(pi (i + 3/4) / (n + 1/2)),
        # which already descend in x = cos(theta): theta grows north to south
        n = self.n_theta
        x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
        for _ in range(6):
            p_prev, p, dp_prev, dp = 1.0, x, 0.0, np.ones_like(x)
            for l in range(2, n + 1):
                dp_prev, dp = dp, dp_prev + (2 * l - 1) * p
                p_prev, p = p, ((2 * l - 1) * x * p - (l - 1) * p_prev) / l
            x, w = x - p / dp, 2.0 / ((1.0 - x * x) * dp * dp)
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        cos_t = np.repeat(x, self.n_phi)
        wq = np.repeat(w * (2.0 * np.pi / self.n_phi), self.n_phi)
        phi_t = np.tile(phi, self.n_theta)
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t**2))
        xyz = np.stack(
            [sin_t * np.cos(phi_t), sin_t * np.sin(phi_t), cos_t], axis=1
        )
        theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
        # chart coordinates; tan of half-angles stays finite off the poles
        z_a = np.tan(theta / 2.0) * np.exp(1j * phi_t)
        z_b = np.tan((np.pi - theta) / 2.0) * np.exp(-1j * phi_t)
        object.__setattr__(self, "weights", wq)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "chart_a", z_a)
        # preferred chart per node: A on the closed northern hemisphere
        object.__setattr__(self, "use_a", cos_t >= 0.0)
        object.__setattr__(self, "f_pref", np.where(cos_t >= 0.0, 1.0 + cos_t, 1.0 - cos_t))
        object.__setattr__(self, "z_pref", np.where(cos_t >= 0.0, z_a, z_b))

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    def integrate(self, values) -> complex | float:
        """Integral over S^2 of a scalar sampled at the nodes.

        A numpy pairwise sum, not a BLAS dot product, so the result is the
        same at any BLAS thread count."""
        return np.sum(self.weights * np.asarray(values))

    def mean_spacing(self) -> float:
        """Typical node spacing in radians (colatitude step)."""
        return np.pi / self.n_theta


def chart_a_coords(xyz) -> np.ndarray:
    """Chart-A complex coordinate of points on S^2 (singular at the south pole)."""
    xyz = np.asarray(xyz, dtype=float)
    return (xyz[..., 0] + 1j * xyz[..., 1]) / (1.0 + xyz[..., 2])


def chart_b_coords(xyz) -> np.ndarray:
    """Chart-B complex coordinate of points on S^2 (singular at the north pole)."""
    xyz = np.asarray(xyz, dtype=float)
    return (xyz[..., 0] - 1j * xyz[..., 1]) / (1.0 - xyz[..., 2])


def conformal_factor(z) -> np.ndarray:
    """f(z) = 2 / (1 + |z|^2), the conformal factor of either chart."""
    z = np.asarray(z)
    return 2.0 / (1.0 + np.abs(z) ** 2)
