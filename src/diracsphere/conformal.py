"""Stereographic charts, rotations, and the Killing-spinor bubble family.

A chart centered at y is the standard chart A composed with a rotation taking
y to the north pole.  Rotations act on chart-A coordinates as SU(2) Moebius
maps m(z) = (alpha z + beta)/(-conj(beta) z + conj(alpha)); the matching
transition of weighted spinor components between the two trivializations is
the diagonal factor

    phi_rot(m(z)) = diag(g(z), conj(g(z))) phi(z),  g(z) = -conj(beta) z + conj(alpha),

where (alpha, beta) is the closed-form pair of the rotation along the great
circle from y to the north pole (``rotation_pair``); ``chart_at`` returns
m(z) and g(z), the one map into the chart centered at y.  The chart-A/chart-B
transition is the special case (alpha, beta) = (0, i): phi_B = diag(i z,
-i conj(z)) phi_A.

The bubble family: on the flat plane

    phi(x) = f(x) (1 - x.) phi_0,        f(x) = 2/(1+|x|^2),
    phi_rho(x) = rho^{-1/2} phi(x/rho),
    phi_{y,rho} = Q(y)^{-1/2} phi_rho,

solves D phi_{y,rho} = Q(y) |phi_{y,rho}|^2 phi_{y,rho} and has the scale
invariant integral_{R^2} |phi_rho|^4 dx = 4 pi.  Its transport to the sphere
through the chart centered at y gives the model concentration profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chartexpr import ChartExpr
from .grid import QuadratureGrid, chart_a_coords, chart_b_coords
from .spectral import SphereBasis, SpectralSpinor

NORTH = np.array([0.0, 0.0, 1.0])

# standard base spinor: |phi_0| = (1/sqrt2) (m/2)^{(m-1)/2} with m = 2
PHI0_DEFAULT = np.array([1.0 / math.sqrt(2.0), 0.0], dtype=complex)


# -- rotations and their Moebius action -------------------------------------


def _unit(y) -> np.ndarray:
    """y / |y| for any nonzero length: a y with an entry beyond 1e+-150 (its
    squares under- or overflow) is divided by its largest entry first."""
    y = np.asarray(y, dtype=float)
    big = float(np.abs(y).max())
    if not 1e-150 <= big <= 1e150:
        y = y / big
    return y / np.linalg.norm(y)


def rotation_pair(y) -> tuple[complex, complex]:
    """SU(2) pair (alpha, beta) of the rotation R taking y to the north pole
    along their great circle, acting on chart A as
    S_A(R xi) = (alpha z + beta)/(-conj(beta) z + conj(alpha)).

    With a = S_A(y) the map is z -> (z - a)/(1 + conj(a) z), the pair
    (1, -a)/sqrt(1 + |a|^2) (Penrose & Rindler, Spinors and Space-Time 1,
    ch. 1).  Within 1e-14 of a pole in y3 the pole snaps: the identity
    (1, 0) at the north pole, and at the south pole the half turn about
    the x1 axis, z -> 1/z, with pair (0, -i).
    """
    y = _unit(y)
    c = float(y @ NORTH)
    if c > 1.0 - 1e-14:
        return 1.0 + 0.0j, 0.0j
    if c < -1.0 + 1e-14:
        # the half turn about the x1 axis is z -> 1/z
        return 0.0j, -1j
    # a = 1 / chart-B coordinate in the south, where 1 + y3 cancels
    a = complex(chart_a_coords(y) if c >= 0.0 else 1.0 / chart_b_coords(y))
    nrm = math.sqrt(1.0 + abs(a) ** 2)
    return complex(1.0 / nrm), -a / nrm


def chart_at(y, z) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates in the chart centred at y of chart-A points z, with the
    transition factor: (zeta, g), zeta = (alpha z + beta)/g and
    g = -conj(beta) z + conj(alpha) for (alpha, beta) = ``rotation_pair(y)``.
    1 + |zeta|^2 = (1 + |z|^2)/|g|^2; at the antipode of y, g = 0 and zeta
    is not finite."""
    alpha, beta = rotation_pair(y)
    g = -np.conj(beta) * z + np.conj(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (alpha * z + beta) / g, g


# -- bubbles -----------------------------------------------------------------


@dataclass
class Bubble:
    """Closed-form solution of the critical flat Dirac equation, centered at y."""

    center: np.ndarray = field(default_factory=lambda: NORTH.copy())
    rho: float = 1.0
    q_center: float = 1.0

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("bubble scale rho must be positive")
        if self.q_center <= 0:
            raise ValueError("Q(y) must be positive")
        center = np.asarray(self.center, dtype=float)
        # scaled by its largest entry first: the norm of a tiny centre underflows
        center = center / np.abs(center).max()
        self.center = center / np.linalg.norm(center)

    def component_exprs(self) -> tuple[ChartExpr, ChartExpr]:
        """Components as ChartExpr in the scaled coordinate zeta = z/rho.

        phi(zeta) = s * f(zeta) ((A, B) + i (zbar B, z A)) with
        s = Q(y)^{-1/2} rho^{-1/2}; evaluate at zeta and chain-rule
        d/dz = rho^{-1} d/dzeta for derivatives.
        """
        a, b = PHI0_DEFAULT
        s = self.q_center ** -0.5 * self.rho ** -0.5
        e1 = ChartExpr.monomial(2.0 * s * a, 0, 0, 1) + ChartExpr.monomial(2j * s * b, 0, 1, 1)
        e2 = ChartExpr.monomial(2.0 * s * b, 0, 0, 1) + ChartExpr.monomial(2j * s * a, 1, 0, 1)
        return e1, e2

    def eval_plane(self, z, deriv=(0, 0)) -> np.ndarray:
        """Value (or exact Wirtinger derivative) at complex points z of its
        own chart plane."""
        zeta = np.asarray(z, dtype=complex) / self.rho
        e1, e2 = self.component_exprs()
        if deriv != (0, 0):
            e1 = e1.derivative(*deriv)
            e2 = e2.derivative(*deriv)
        scale = self.rho ** -(deriv[0] + deriv[1])
        return np.stack([scale * e1(zeta), scale * e2(zeta)], axis=-1)

    def l2_mass_sphere(self) -> float:
        """Exact L^2(S^2) mass of the transported field psi_{y,rho}."""
        r = self.rho
        scale = 2.0 * float(np.sum(np.abs(PHI0_DEFAULT) ** 2)) / self.q_center
        if abs(r - 1.0) < 1e-8:
            # r |ln r| / |1 - r^2| = 1/2 + O((r - 1)^2): no first-order term
            base = 4.0 * math.pi
        else:
            # log1p and the factored 1 - r^2 avoid cancellation near r = 1
            base = (8.0 * math.pi * r * abs(math.log1p(r - 1.0))
                    / abs((1.0 - r) * (1.0 + r)))
        return scale * base


def bubble_energy_flat(rho: float, q_center: float = 1.0) -> tuple[float, float]:
    """(quadrature, analytic) value of integral_{R^2} |phi_{y,rho}|^4 dx.

    Analytic value: 4 pi / q^2, independent of rho.  The quadrature, the
    independent check, integrates the closed-form radial profile on a
    compactified axis by the 40-node Gauss-Legendre rule of a degree-78 grid.
    """
    analytic = q_center ** -2 * (4.0 * math.pi)
    # |phi_{y,rho}|^4 = q^-2 f(r/rho)^2, surface measure 2 pi r
    g = QuadratureGrid(degree=78)
    t, w = g.xyz[::g.n_phi, 2], g.weights[::g.n_phi] * g.n_phi / (2.0 * math.pi)
    s = 0.5 * (t + 1.0)  # s in (0,1), r = rho s/(1-s)
    r = rho * s / (1.0 - s)
    dr = rho / (1.0 - s) ** 2 * 0.5
    f = 2.0 / (1.0 + (r / rho) ** 2)
    integrand = (q_center * rho) ** -2 * f ** 2 * (2.0 * math.pi) * r
    quad = float(np.sum(w * integrand * dr))
    return quad, analytic


@dataclass
class TransportReport:
    """Book-keeping for a bubble transported into the truncated basis."""

    l2_mass_exact: float
    l2_mass_captured: float
    truncation_loss: float
    analysis_degree: int


def bubble_grid_values(bubble: Bubble, grid: QuadratureGrid) -> np.ndarray:
    """Weighted chart values of psi_{y,rho} at the grid nodes (preferred charts)."""
    z = grid.chart_a
    zy, g = chart_at(bubble.center, z)
    g = np.where(np.abs(g) < 1e-150, 1e-150, g)
    vals_y = bubble.eval_plane(zy)
    vals = np.stack([vals_y[:, 0] / g, vals_y[:, 1] / np.conj(g)], axis=1)
    # chart A -> chart B on the southern nodes: phi_B = diag(i z, -i zbar) phi_A
    south = ~grid.use_a
    gab = 1j * z[south]
    vals[south] *= np.stack([gab, np.conj(gab)], axis=1)
    return vals


# cap on the 1/rho refinement of the analysis grid: a J=16 transport on the
# degree-1000 grid peaks ~150 MB above its start, growing as the degree^2
_MAX_BUBBLE_DEGREE = 1000


def bubble_grid_degree(rho: float, J: int) -> int:
    """Analysis-grid degree max(3J + 2, ceil(16 / rho)) for a bubble of scale
    rho; ValueError, before any allocation, above the cap (rho < 0.016)."""
    if 16.0 / rho > _MAX_BUBBLE_DEGREE:
        raise ValueError(f"rho={rho:g} needs an analysis grid of degree "
                         f"{16.0 / rho:.0f} > {_MAX_BUBBLE_DEGREE} (rho >= 0.016)")
    return max(3 * J + 2, math.ceil(16.0 / rho))


def bubble_to_sphere(bubble: Bubble, basis: SphereBasis,
                     require_capture: bool = False) -> tuple[SpectralSpinor, TransportReport]:
    """Spectral coefficients of psi_{y,rho} and the truncation-loss report.

    The analysis grid (``bubble_grid_degree``) is refined with 1/rho so the
    concentrated profile is resolved independently of the solver grid.  If
    ``require_capture`` and the L^2 loss exceeds 1%, raises ValueError
    (lossy initializations must be explicit, not silent).
    """
    analysis_degree = bubble_grid_degree(bubble.rho, basis.J)
    grid = QuadratureGrid(degree=analysis_degree)
    kept = analysis_degree in basis._matrix_cache
    coeff = basis.analyze(bubble_grid_values(bubble, grid), grid)
    if not kept:                          # a one-off table: the cache stays as found
        del basis._matrix_cache[analysis_degree]
    mass_exact = bubble.l2_mass_sphere()
    mass_captured = float(np.sum(np.abs(coeff) ** 2))
    loss = max(0.0, 1.0 - mass_captured / mass_exact)
    report = TransportReport(mass_exact, mass_captured, loss, analysis_degree)
    if require_capture and loss > 0.01:
        raise ValueError(
            f"bubble transport loses {loss:.2%} of L^2 mass at J={basis.J}; "
            "raise J or the bubble scale"
        )
    return SpectralSpinor(basis, coeff), report
