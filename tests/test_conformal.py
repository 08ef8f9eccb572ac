import math

import numpy as np
import pytest

from diracsphere.conformal import (Bubble, StereoChart, bubble_energy_flat,
                                   bubble_grid_values, bubble_to_sphere,
                                   mobius_apply, mobius_of_rotation,
                                   rotation_to_north, transition_g)
from diracsphere.grid import QuadratureGrid, chart_a_coords
from diracsphere.spectral import SphereBasis, dirac_apply
from conftest import make_workspace


def test_chart_maps_and_conformal_factor():
    y = np.array([0.48, -0.6, 0.64])
    chart = StereoChart(center=y)
    assert abs(chart.to_plane(y[None])[0]) < 1e-14
    rng = np.random.default_rng(0)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    back = chart.to_plane(chart.from_plane(z))
    assert np.abs(back - z).max() < 1e-12
    # (S^-1)* g_sphere = f^2 g_flat: finite-difference the inverse chart map
    h = 1e-6
    for zz in z[:3]:
        p0 = chart.from_plane(np.array([zz]))[0]
        px = chart.from_plane(np.array([zz + h]))[0]
        py = chart.from_plane(np.array([zz + 1j * h]))[0]
        gx = np.linalg.norm(px - p0) / h
        gy = np.linalg.norm(py - p0) / h
        f = chart.factor(zz)
        assert abs(gx - f) < 1e-4 and abs(gy - f) < 1e-4


def test_chart_volume_form():
    # integral over the chart of f^2 dx = area of S^2
    t, w = np.polynomial.legendre.leggauss(400)
    s = 0.5 * (t + 1)
    r = s / (1 - s)
    dr = 0.5 / (1 - s) ** 2
    f = 2.0 / (1 + r**2)
    area = float(np.sum(w * f**2 * 2 * math.pi * r * dr))
    assert abs(area - 4 * math.pi) < 1e-8


def test_mobius_of_rotation_consistency():
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.normal(size=3)
        y /= np.linalg.norm(y)
        R = rotation_to_north(y)
        alpha, beta = mobius_of_rotation(R)
        assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 1e-12
        pts = rng.normal(size=(10, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts = pts[pts[:, 2] > -0.9]
        z = chart_a_coords(pts)
        mapped = mobius_apply(alpha, beta, z)
        target = chart_a_coords(pts @ R.T)
        assert np.abs(mapped - target).max() < 1e-9


def test_bubble_pointwise_laws():
    b = Bubble(center=[0, 0, 1], rho=0.7, q_center=1.3)
    rng = np.random.default_rng(2)
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    v = b.eval_plane(z)
    # |phi| = (m/2)^{1/2} f_rho^{1/2} scaled by Q(y)^{-1/2}
    f_rho = 2.0 / (1 + (np.abs(z) / b.rho) ** 2) / b.rho
    norm = np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))
    assert np.abs(norm - np.sqrt(f_rho / b.q_center)).max() < 1e-13
    # decay |phi(x)| ~ |x|^{-1}
    big = b.eval_plane(np.array([100.0 + 0j, 200.0 + 0j]))
    n1, n2 = np.sqrt(np.sum(np.abs(big) ** 2, axis=-1))
    assert n1 / n2 == pytest.approx(2.0, rel=1e-3)
    # flat Dirac residual through exact derivatives
    dz = b.eval_plane(z, deriv=(1, 0))
    dzb = b.eval_plane(z, deriv=(0, 1))
    D0 = np.stack([-2j * dz[:, 1], -2j * dzb[:, 0]], axis=1)
    nl = b.q_center * np.sum(np.abs(v) ** 2, axis=1)[:, None] * v
    assert np.abs(D0 - nl).max() <= 1e-8


def test_bubble_energy_scale_invariance():
    vals = []
    for rho in (0.5, 1.0, 2.0):
        quad, analytic = bubble_energy_flat(2, rho)
        assert abs(quad - 4 * math.pi) <= 1e-6
        assert abs(analytic - 4 * math.pi) < 1e-14
        vals.append(quad)
    assert max(vals) - min(vals) <= 1e-8
    quad3, analytic3 = bubble_energy_flat(3, 1.0)
    assert analytic3 == pytest.approx((3 / 2) ** 3 * 2 * math.pi**2, rel=1e-14)
    assert quad3 == pytest.approx(analytic3, rel=1e-10)


def test_l2_mass_sphere_continuous_at_rho_one():
    """r |ln r| / |1 - r^2| = 1/2 + O((r - 1)^2): the r = 1 branch and the
    closed form agree across the switch at |r - 1| = 1e-8."""
    for sign in (1.0, -1.0):
        near = Bubble(rho=1.0 + sign * 5e-9).l2_mass_sphere()
        far = Bubble(rho=1.0 + sign * 2e-8).l2_mass_sphere()
        assert far == pytest.approx(near, rel=1e-12)


@pytest.fixture(scope="module")
def basis16():
    return SphereBasis(16)


def test_transport_quartic_integral(basis16):
    y = np.array([0.3, -0.5, 0.81])
    y /= np.linalg.norm(y)
    grid = QuadratureGrid(degree=48)
    for q in (1.0, 1.3):
        psi, rep = bubble_to_sphere(Bubble(center=y, rho=0.5, q_center=q), basis16)
        vals = basis16.synthesize(psi.coeff, grid)
        nsq = np.sum(np.abs(vals) ** 2, axis=1) / grid.f_pref
        integral = float(grid.integrate(nsq**2))
        assert abs(integral - 4 * math.pi / q**2) <= 1e-4


def test_transport_pde_residual(basis16):
    # rho = 0.6 keeps the truncation tail at J=16 below the 1e-6 budget
    y = np.array([-0.2, 0.4, 0.893])
    y /= np.linalg.norm(y)
    q = 1.15
    psi, rep = bubble_to_sphere(Bubble(center=y, rho=0.6, q_center=q), basis16)
    grid = QuadratureGrid(degree=48)
    vals = basis16.synthesize(psi.coeff, grid)
    Dvals = basis16.synthesize(dirac_apply(psi).coeff, grid)
    nsq = np.sum(np.abs(vals) ** 2, axis=1) / grid.f_pref
    resid = Dvals - q * nsq[:, None] * vals
    r = math.sqrt(abs(float(grid.integrate(
        np.sum(np.abs(resid) ** 2, axis=1) / grid.f_pref))))
    assert r <= 1e-6


def test_transport_equivariance(basis16):
    centers = [np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8]),
               np.array([0.0, -0.8, -0.6])]
    norms = []
    block_norms = []
    for y in centers:
        psi, _ = bubble_to_sphere(Bubble(center=y, rho=0.5), basis16)
        norms.append(np.linalg.norm(psi.coeff))
        bn = []
        for j in range(basis16.J + 1):
            for sigma in (1, -1):
                mask = (basis16.j_arr == j) & (basis16.sigma_arr == sigma)
                bn.append(np.linalg.norm(psi.coeff[mask]))
        block_norms.append(np.array(bn))
    assert max(norms) - min(norms) <= 1e-10 * norms[0]
    # rotations only mix coefficients inside each (j, sign) eigenspace
    for bn in block_norms[1:]:
        assert np.abs(bn - block_norms[0]).max() <= 1e-9


def test_transport_energy_approaches_bubble_level(basis16):
    # L(psi_{y,rho}) -> pi for Q = 1 as rho -> 0 (value at rho = 0.1)
    from diracsphere.energy import eval_L
    ws = make_workspace(16)
    psi, rep = bubble_to_sphere(Bubble(rho=0.1), basis16)
    val = eval_L(psi.coeff, 4.0, ws).value
    assert abs(val - math.pi) <= 0.05
    assert rep.truncation_loss < 0.01


def test_truncation_loss_reported_and_enforced():
    basis = SphereBasis(4)
    psi, rep = bubble_to_sphere(Bubble(rho=0.15), basis)
    assert rep.truncation_loss > 0.01
    with pytest.raises(ValueError):
        bubble_to_sphere(Bubble(rho=0.15), basis, require_capture=True)


def conformal_push_values(values, h_nodes) -> np.ndarray:
    """Fiberwise isometry F to the metric h^2 g in weighted chart components.

    Weighted components simply pick up h^{1/2}; fiber norms w.r.t. the new
    metric then agree with the old ones pointwise.
    """
    h = np.asarray(h_nodes, dtype=float)
    if np.any(h <= 0):
        raise ValueError("conformal factor must be positive")
    return np.asarray(values) * np.sqrt(h)[:, None]


def test_conformal_push_values(ws8):
    rng = np.random.default_rng(3)
    from conftest import random_spinor
    values = ws8.synthesize(random_spinor(ws8, rng))
    h = 1.0 + 0.3 * ws8.grid.xyz[:, 2] ** 2
    pushed = conformal_push_values(values, h)
    # fiberwise isometry: |F psi|_g = |psi|_{g0} pointwise
    old = np.sum(np.abs(values) ** 2, axis=1) / ws8.grid.f_pref
    new = np.sum(np.abs(pushed) ** 2, axis=1) / (h * ws8.grid.f_pref)
    assert np.abs(new - old).max() <= 1e-12 * old.max()
    assert np.array_equal(conformal_push_values(values, np.ones_like(h)), values)
    with pytest.raises(ValueError):
        conformal_push_values(values, -h)


def test_transition_factor_magnitude():
    rng = np.random.default_rng(5)
    y = np.array([0.6, 0.64, 0.48])
    R = rotation_to_north(y)
    alpha, beta = mobius_of_rotation(R)
    z = rng.normal(size=10) + 1j * rng.normal(size=10)
    g = transition_g(alpha, beta, z)
    m = mobius_apply(alpha, beta, z)
    # |g|^2 = f(m(z))/f(z), the conformal weight of the transition
    # (equivalently f(m) |m'| = f with m' = g^-2)
    f = 2.0 / (1 + np.abs(z) ** 2)
    fm = 2.0 / (1 + np.abs(m) ** 2)
    assert np.abs(np.abs(g) ** 2 - fm / f).max() < 1e-12


def test_bubble_to_sphere_matches_dense_adjoint():
    """Bubble transport through the separable analysis equals the dense
    adjoint of the basis table on its refined degree-70 grid."""
    basis = SphereBasis(5)
    grid = QuadratureGrid(degree=70)
    bub = Bubble(center=[0.48, -0.6, 0.64], rho=0.3, q_center=1.2)
    psi, rep = bubble_to_sphere(bub, basis, analysis_degree=70)
    assert rep.analysis_degree == 70
    wf = (grid.weights / grid.f_pref)[:, None]
    mat = basis.evaluate_matrix(grid.z_pref, grid.use_a)
    ref = np.tensordot(np.conj(mat), bubble_grid_values(bub, grid) * wf,
                       axes=([0, 1], [0, 1]))
    assert np.abs(psi.coeff - ref).max() <= 1e-12 * np.abs(ref).max()