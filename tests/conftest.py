"""Shared fixtures: small workspaces and the two reference continuation solves,
and the test-only helpers that several modules use.

The constant-curvature solve (J=12) and the perturbed solve Q = 1 + 0.3 x3^2
(J=16) are expensive, so they run once per session and are shared between the
solver, geometry, and acceptance tests.
"""

import numpy as np
import pytest

from diracsphere.conformal import Bubble
from diracsphere.energy import (PolynomialCurvature, Workspace, _check_p,
                                constant_curvature, eval_A, nonlinear_projection)
from diracsphere.grid import QuadratureGrid
from diracsphere.reduction import solve_continuation
from diracsphere.spectral import SphereBasis, SpectralSpinor

SCHEDULE = [3.0, 3.4, 3.7, 3.9, 3.97, 4.0]


def make_workspace(J, Q=None, degree=None):
    basis = SphereBasis(J)
    grid = QuadratureGrid(degree=degree or 3 * J)
    return Workspace(basis, grid, Q or constant_curvature(1.0))


def random_spinor(ws, rng, decay=0.5, plus_only=False):
    basis = ws.basis
    c = (rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis))
    c = c * decay**basis.j_arr
    if plus_only:
        c = np.where(basis.plus_mask, c, 0.0)
    return c


def zero_spinor(basis: SphereBasis) -> SpectralSpinor:
    return SpectralSpinor(basis, np.zeros(basis.n_basis, dtype=complex))


def hessian_quadratic_form(psi_values, p: float, ws: Workspace, w_coeff) -> float:
    """L_p''(psi)[w, w] evaluated directly by quadrature."""
    basis = ws.basis
    w_coeff = np.asarray(w_coeff, dtype=complex)
    w_values = ws.synthesize(w_coeff)
    nsq = ws.fiber_norm_sq(psi_values)
    pw = np.where(nsq > 0, nsq ** ((p - 2.0) / 2.0), 0.0)
    wsq = ws.fiber_norm_sq(w_values)
    dot = ws.fiber_re_inner(psi_values, w_values)
    with np.errstate(divide="ignore", invalid="ignore"):
        quart = np.where(nsq > 0, pw / nsq * dot**2, 0.0)
    quad_part = float(ws.grid.integrate(ws.q_nodes * (pw * wsq + (p - 2.0) * quart)))
    dirac_part = float(np.sum(basis.eigenvalues * np.abs(w_coeff) ** 2))
    return dirac_part - quad_part


def rayleigh_grad(coeff, p: float, ws: Workspace) -> np.ndarray:
    """H^{1/2} Riesz representative of R_p'(psi)."""
    _check_p(p)
    coeff = np.asarray(coeff, dtype=complex)
    basis = ws.basis
    values = ws.synthesize(coeff)
    A = eval_A(coeff, p, ws, values=values)
    if A <= 0:
        raise ValueError("Rayleigh quotient undefined: A(psi) = 0")
    R = float(np.sum(basis.eigenvalues * np.abs(coeff) ** 2)) / A ** (2.0 / p)
    N = nonlinear_projection(values, p, ws)
    # R'(psi)[v] = (2/A^{2/p}) [ real(D psi, v) - (R/p) A^{(2-p)/p} A'(psi)[v] ]
    core = np.sign(basis.eigenvalues) * coeff \
        - (R * A ** ((2.0 - p) / p)) * N / basis.abs_eigenvalues
    return (2.0 / A ** (2.0 / p)) * core


@pytest.fixture(scope="session")
def ws8():
    return make_workspace(8)


@pytest.fixture(scope="session")
def ws12():
    return make_workspace(12)


@pytest.fixture(scope="session")
def perturbed_q():
    return PolynomialCurvature([(0, 0, 0, 1.0), (0, 0, 2, 0.3)])


@pytest.fixture(scope="session")
def const_solution(ws12):
    """Continuation solve for Q = 1 from a bubble at the north pole."""
    result = solve_continuation(
        ws12, SCHEDULE, Bubble(center=[0, 0, 1], rho=0.3, q_center=1.0),
        tol_final=1e-7)
    return ws12, result


@pytest.fixture(scope="session")
def perturbed_solution(perturbed_q):
    """Continuation solve for Q = 1 + 0.3 x3^2 at J = 16."""
    ws = make_workspace(16, perturbed_q)
    result = solve_continuation(
        ws, SCHEDULE, Bubble(center=[0, 0, 1], rho=0.3, q_center=1.3),
        tol_final=1e-7)
    return ws, result
