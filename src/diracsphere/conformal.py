"""Stereographic charts, rotations, and the Killing-spinor bubble family.

A chart centered at y is the standard chart A composed with a rotation taking
y to the north pole.  Rotations act on chart-A coordinates as SU(2) Moebius
maps m(z) = (alpha z + beta)/(-conj(beta) z + conj(alpha)); the matching
transition of weighted spinor components between the two trivializations is
the diagonal factor

    phi_rot(m(z)) = diag(g(z), conj(g(z))) phi(z),  g(z) = -conj(beta) z + conj(alpha),

with a fixed global-phase gauge (the SU(2) pair is determined up to sign by
the rotation; we pin it by a deterministic quaternion extraction).  The
chart-A/chart-B transition is the special case (alpha, beta) = (0, i).

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

from .chartexpr import ChartExpr, PowerCache
from .grid import QuadratureGrid, chart_a_coords, chart_a_point, conformal_factor
from .spectral import SphereBasis, SpectralSpinor

NORTH = np.array([0.0, 0.0, 1.0])

# standard base spinor: |phi_0| = (1/sqrt2) (m/2)^{(m-1)/2} with m = 2
PHI0_DEFAULT = np.array([1.0 / math.sqrt(2.0), 0.0], dtype=complex)


def sphere_volume(m: int) -> float:
    """Volume of the unit m-sphere."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# -- rotations and their Moebius action -------------------------------------


def rotation_to_north(y) -> np.ndarray:
    """Rotation matrix R with R y = north pole, along the connecting great circle."""
    y = np.asarray(y, dtype=float)
    y = y / np.linalg.norm(y)
    c = float(y @ NORTH)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        # south pole: half turn about the x1 axis (fixed deterministic choice)
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross(y, NORTH)
    axis /= np.linalg.norm(axis)
    angle = math.acos(c)
    return rotation_matrix(axis, angle)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def mobius_of_rotation(R) -> tuple[complex, complex]:
    """SU(2) pair (alpha, beta) with S_A(R xi) = (alpha z + beta)/(-conj(beta) z + conj(alpha)).

    Fitted from point correspondences (convention-proof) and verified; the
    sign of the pair is fixed by the first nonzero fitted component.
    """
    R = np.asarray(R, dtype=float)
    pts = np.array(
        [
            [0.6, 0.0, 0.8],
            [0.0, 0.6, 0.8],
            [0.48, -0.6, 0.64],
            [-0.8, 0.0, 0.6],
            [0.36, 0.48, -0.8],
        ]
    )
    z = chart_a_coords(pts)
    zp = chart_a_coords(pts @ R.T)
    # z' (-conj(beta) z + conj(alpha)) = alpha z + beta, linear in
    # (re a, im a, re b, im b) after splitting into real equations
    rows = []
    rhs = []
    for zi, zpi in zip(z, zp):
        # alpha * zi + beta - conj(alpha) * zpi + conj(beta) * zi * zpi = 0
        coeffs = [zi - np.conj(zpi) * 0 - zpi, 1j * (zi + zpi), 1 + zi * zpi, 1j * (1 - zi * zpi)]
        # coefficient of re(a): zi - zpi? derive: a zi - conj(a) zpi =
        # re(a)(zi - zpi) + i im(a)(zi + zpi); b + conj(b) zi zpi =
        # re(b)(1 + zi zpi) + i im(b)(1 - zi zpi)
        rows.append([c.real for c in coeffs])
        rows.append([c.imag for c in coeffs])
        rhs.append(0.0)
        rhs.append(0.0)
    A = np.array(rows)
    # nontrivial null vector of A
    _, s, vt = np.linalg.svd(A)
    v = vt[-1]
    alpha = v[0] + 1j * v[1]
    beta = v[2] + 1j * v[3]
    nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / nrm, beta / nrm
    # deterministic sign gauge
    lead = alpha if abs(alpha) > 1e-8 else beta
    phase = 1.0 if (lead.real > 0 or (lead.real == 0 and lead.imag > 0)) else -1.0
    if lead.real == 0 and abs(lead.imag) < 1e-300:
        phase = 1.0
    alpha, beta = alpha * phase, beta * phase
    # verify on fresh points
    chk = np.array([[0.2, 0.3, math.sqrt(1 - 0.13)], [-0.5, 0.1, math.sqrt(0.74)]])
    zc = chart_a_coords(chk)
    pred = (alpha * zc + beta) / (-np.conj(beta) * zc + np.conj(alpha))
    if not np.allclose(pred, chart_a_coords(chk @ R.T), atol=1e-9):
        raise RuntimeError("Moebius fit failed to reproduce the rotation")
    return complex(alpha), complex(beta)


def mobius_apply(alpha: complex, beta: complex, z):
    return (alpha * z + beta) / (-np.conj(beta) * z + np.conj(alpha))


def transition_g(alpha: complex, beta: complex, z):
    """Spinor transition factor g(z); components map by diag(g, conj(g))."""
    return -np.conj(beta) * z + np.conj(alpha)


CHART_AB = (0.0 + 0.0j, 1j)  # (alpha, beta) of the chart A -> chart B transition


@dataclass(frozen=True)
class StereoChart:
    """Stereographic chart centered at ``center`` (its antipode is the pole)."""

    center: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        c = c / np.linalg.norm(c)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "rotation", rotation_to_north(c))

    def to_plane(self, xyz) -> np.ndarray:
        """Chart coordinate; the center maps to 0."""
        return chart_a_coords(np.asarray(xyz) @ self.rotation.T)

    def from_plane(self, z) -> np.ndarray:
        return chart_a_point(z) @ self.rotation

    @staticmethod
    def factor(z) -> np.ndarray:
        """Conformal factor f(x) = 2/(1+|x|^2) of the chart."""
        return conformal_factor(z)


# -- bubbles -----------------------------------------------------------------


@dataclass
class Bubble:
    """Closed-form solution of the critical flat Dirac equation, centered at y."""

    center: np.ndarray = field(default_factory=lambda: NORTH.copy())
    rho: float = 1.0
    q_center: float = 1.0
    phi0: np.ndarray = field(default_factory=lambda: PHI0_DEFAULT.copy())
    m: int = 2

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("bubble scale rho must be positive")
        if self.q_center <= 0:
            raise ValueError("Q(y) must be positive")
        self.center = np.asarray(self.center, dtype=float)
        self.center /= np.linalg.norm(self.center)
        self.phi0 = np.asarray(self.phi0, dtype=complex)

    def component_exprs(self) -> tuple[ChartExpr, ChartExpr]:
        """Components as ChartExpr in the scaled coordinate zeta = z/rho.

        phi(zeta) = s * f(zeta) ((A, B) + i (zbar B, z A)) with
        s = Q(y)^{-1/2} rho^{-1/2}; evaluate at zeta and chain-rule
        d/dz = rho^{-1} d/dzeta for derivatives.
        """
        a, b = self.phi0
        s = self.q_center ** -0.5 * self.rho ** -0.5
        e1 = ChartExpr.monomial(2.0 * s * a, 0, 0, 1) + ChartExpr.monomial(2j * s * b, 0, 1, 1)
        e2 = ChartExpr.monomial(2.0 * s * b, 0, 0, 1) + ChartExpr.monomial(2j * s * a, 1, 0, 1)
        return e1, e2

    def eval_plane(self, x, deriv=(0, 0)) -> np.ndarray:
        """Value (or exact Wirtinger derivative) at points of its own chart plane.

        ``x`` is complex z = x1 + i x2 or an array of shape (..., 2).
        """
        x = np.asarray(x)
        z = x[..., 0] + 1j * x[..., 1] if x.dtype != complex and x.shape[-1:] == (2,) else x
        zeta = np.asarray(z, dtype=complex) / self.rho
        cache = PowerCache(zeta)
        e1, e2 = self.component_exprs()
        if deriv != (0, 0):
            e1 = e1.derivative(*deriv)
            e2 = e2.derivative(*deriv)
        scale = self.rho ** -(deriv[0] + deriv[1])
        return np.stack([scale * e1(zeta, cache), scale * e2(zeta, cache)], axis=-1)

    def l2_mass_sphere(self) -> float:
        """Exact L^2(S^2) mass of the transported field psi_{y,rho}."""
        r = self.rho
        scale = 2.0 * float(np.sum(np.abs(self.phi0) ** 2)) / self.q_center
        if abs(r - 1.0) < 1e-8:
            # r |ln r| / |1 - r^2| = 1/2 + O((r - 1)^2): no first-order term
            base = 4.0 * math.pi
        else:
            # log1p and the factored 1 - r^2 avoid cancellation near r = 1
            base = (8.0 * math.pi * r * abs(math.log1p(r - 1.0))
                    / abs((1.0 - r) * (1.0 + r)))
        return scale * base


def bubble_energy_flat(m: int = 2, rho: float = 1.0, q_center: float = 1.0,
                       n_quad: int = 200) -> tuple[float, float]:
    """(quadrature, analytic) value of integral_{R^m} |phi_{y,rho}|^{2*} dx.

    Analytic value: q^{-m} (m/2)^m omega_m, independent of rho.  The
    quadrature integrates the closed-form radial profile on a compactified
    axis and is the independent check.  Supports m = 2 and m = 3.
    """
    if m not in (2, 3):
        raise ValueError("radial quadrature implemented for m in {2, 3}")
    analytic = q_center ** -m * (m / 2.0) ** m * sphere_volume(m)
    # |phi_{y,rho}|^{2*} = q^-m (m/2)^m f(r/rho)^m, surface measure omega_{m-1} r^{m-1}
    t, w = np.polynomial.legendre.leggauss(n_quad)
    s = 0.5 * (t + 1.0)  # s in (0,1), r = rho s/(1-s)
    r = rho * s / (1.0 - s)
    dr = rho / (1.0 - s) ** 2 * 0.5
    f = 2.0 / (1.0 + (r / rho) ** 2)
    omega_sm1 = 2.0 * math.pi if m == 2 else 4.0 * math.pi
    integrand = (q_center * rho) ** -m * (m / 2.0) ** m * f ** m * omega_sm1 * r ** (m - 1)
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
    R = rotation_to_north(bubble.center)
    alpha, beta = mobius_of_rotation(R)
    z = grid.chart_a
    zy = mobius_apply(alpha, beta, z)
    g = transition_g(alpha, beta, z)
    g = np.where(np.abs(g) < 1e-150, 1e-150, g)
    vals_y = bubble.eval_plane(zy)
    vals_a = np.stack([vals_y[:, 0] / g, vals_y[:, 1] / np.conj(g)], axis=1)
    # convert chart A -> chart B on the southern nodes
    gab = transition_g(*CHART_AB, z)
    vals = vals_a.copy()
    south = ~grid.use_a
    vals[south, 0] = gab[south] * vals_a[south, 0]
    vals[south, 1] = np.conj(gab[south]) * vals_a[south, 1]
    return vals


def bubble_to_sphere(bubble: Bubble, basis: SphereBasis,
                     analysis_degree: int | None = None,
                     loss_tol: float = 0.01,
                     require_capture: bool = False) -> tuple[SpectralSpinor, TransportReport]:
    """Spectral coefficients of psi_{y,rho} and the truncation-loss report.

    The analysis grid is refined with 1/rho so the concentrated profile is
    resolved independently of the solver grid.  If ``require_capture`` and
    the L^2 loss exceeds ``loss_tol``, raises ValueError (lossy
    initializations must be explicit, not silent).
    """
    if bubble.m != 2:
        raise ValueError("transport to S^2 requires m = 2")
    if analysis_degree is None:
        analysis_degree = max(3 * basis.J + 2, int(math.ceil(16.0 / bubble.rho)))
    grid = QuadratureGrid(degree=analysis_degree)
    vals = bubble_grid_values(bubble, grid)
    coeff = basis.analyze(vals, grid)
    mass_exact = bubble.l2_mass_sphere()
    mass_captured = float(np.sum(np.abs(coeff) ** 2))
    loss = max(0.0, 1.0 - mass_captured / mass_exact)
    report = TransportReport(mass_exact, mass_captured, loss, analysis_degree)
    if require_capture and loss > loss_tol:
        raise ValueError(
            f"bubble transport loses {loss:.2%} of L^2 mass at J={basis.J}; "
            "raise J or the bubble scale"
        )
    return SpectralSpinor(basis, coeff), report
