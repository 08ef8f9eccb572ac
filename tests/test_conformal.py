import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracsphere.conformal import (Bubble, bubble_energy_flat, bubble_grid_values,
                                   bubble_to_sphere, rotation_pair)
from diracsphere.energy import eval_L
from diracsphere.grid import QuadratureGrid, chart_a_coords, conformal_factor
from diracsphere.spectral import SphereBasis, dirac_apply
from conftest import make_workspace


def chart_a_point(z) -> np.ndarray:
    """Inverse of chart A: complex coordinate -> point on S^2."""
    z = np.asarray(z, dtype=complex)
    u = 1.0 + np.abs(z) ** 2
    return np.stack([2.0 * z.real / u, 2.0 * z.imag / u, (2.0 - u) / u], axis=-1)


def mobius(alpha, beta, z):
    return (alpha * z + beta) / (-np.conj(beta) * z + np.conj(alpha))


def fitted_pair(R) -> tuple[complex, complex]:
    """The SU(2) pair of a rotation fitted from five point correspondences
    (the null vector of the linear system for (alpha, beta)), sign fixed by
    the leading component: an oracle independent of the closed form."""
    pts = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, 0.8], [0.48, -0.6, 0.64],
                    [-0.8, 0.0, 0.6], [0.36, 0.48, -0.8]])
    z, zp = chart_a_coords(pts), chart_a_coords(pts @ R.T)
    # alpha z + beta - conj(alpha) z' + conj(beta) z z' = 0, linear in
    # (re alpha, im alpha, re beta, im beta); real and imaginary parts
    coeffs = np.stack([z - zp, 1j * (z + zp), 1 + z * zp, 1j * (1 - z * zp)], axis=1)
    v = np.linalg.svd(np.concatenate([coeffs.real, coeffs.imag]))[2][-1]
    alpha, beta = complex(v[0], v[1]), complex(v[2], v[3])
    lead = alpha if abs(alpha) > 1e-8 else beta
    sign = 1.0 if (lead.real > 0 or (lead.real == 0 and lead.imag > 0)) else -1.0
    nrm = sign * math.hypot(abs(alpha), abs(beta))
    return alpha / nrm, beta / nrm


def great_circle_rotation(y) -> np.ndarray:
    """Rotation taking y to the north pole about y x N, by the angle
    atan2(|y x N|, y3): accurate at every distance from the poles."""
    axis = np.cross(y, [0.0, 0.0, 1.0])
    s = np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]]) / s
    angle = math.atan2(s, y[2])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def snapped_rotation(y) -> np.ndarray:
    """``great_circle_rotation`` with the pole snaps of ``rotation_pair``:
    the identity within 1e-14 of the north pole in y3, and the half turn
    about the x1 axis within 1e-14 of the south pole."""
    y = np.asarray(y, dtype=float) / np.linalg.norm(y)
    if y[2] > 1.0 - 1e-14:
        return np.eye(3)
    if y[2] < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    return great_circle_rotation(y)


def test_chart_maps_and_conformal_factor():
    """The chart centered at y (chart A after the rotation taking y to the
    north pole) sends y to 0, and its inverse pulls the round metric back
    to f^2 g_flat."""
    y = np.array([0.48, -0.6, 0.64])
    R = great_circle_rotation(y)
    assert abs(chart_a_coords(y @ R.T)) < 1e-14
    rng = np.random.default_rng(0)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    back = chart_a_coords(chart_a_point(z) @ R @ R.T)
    assert np.abs(back - z).max() < 1e-12
    # (S^-1)* g_sphere = f^2 g_flat: finite-difference the inverse chart map
    h = 1e-6
    for zz in z[:3]:
        p0 = chart_a_point(zz) @ R
        px = chart_a_point(zz + h) @ R
        py = chart_a_point(zz + 1j * h) @ R
        gx = np.linalg.norm(px - p0) / h
        gy = np.linalg.norm(py - p0) / h
        f = conformal_factor(zz)
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


def _pole_centres():
    """The poles and centres 1e-7, 2e-7 and 1e-6 rad from each pole; 1e-7
    lies inside the pole snap of rotation_pair, 2e-7 just outside."""
    out = []
    for dist in (0.0, 1e-7, 2e-7, 1e-6):
        for theta in (dist, math.pi - dist):
            out.append(np.array([math.sin(theta) * math.cos(0.3),
                                 math.sin(theta) * math.sin(0.3), math.cos(theta)]))
    return out


def _chart_points(rng) -> np.ndarray:
    """Random sphere points off the south cap, where chart A is well
    conditioned."""
    pts = rng.normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts[pts[:, 2] > -0.9]


def test_mobius_of_rotation_consistency():
    """rotation_pair(y) acts on chart A as the rotation taking y to the
    north pole along their great circle does: on random points the mapped
    chart points, read back on the sphere (where the comparison is well
    conditioned), agree to 1e-12."""
    rng = np.random.default_rng(1)
    pts = _chart_points(rng)
    z = chart_a_coords(pts)
    for _ in range(50):
        y = rng.normal(size=3)
        y /= np.linalg.norm(y)
        alpha, beta = rotation_pair(y)
        assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 1e-15
        assert alpha.real > 0 and alpha.imag == 0
        assert abs(mobius(alpha, beta, chart_a_coords(y))) < 1e-15
        err = chart_a_point(mobius(alpha, beta, z)) - pts @ snapped_rotation(y).T
        assert np.abs(err).max() < 1e-12


def test_rotation_pair_at_and_near_the_poles():
    """At the poles rotation_pair is the pair of its snaps, (1, 0) and
    (0, -i); near them the mapped points are checked against the atan2
    rotation, snapped where the pair snaps."""
    assert rotation_pair([0.0, 0.0, 1.0]) == (1.0, 0.0)
    assert rotation_pair([0.0, 0.0, -1.0]) == (0.0, -1j)
    pts = _chart_points(np.random.default_rng(4))
    z = chart_a_coords(pts)
    for y in _pole_centres():
        alpha, beta = rotation_pair(y)
        err = chart_a_point(mobius(alpha, beta, z)) - pts @ snapped_rotation(y).T
        assert np.abs(err).max() < 1e-12, y


def test_rotation_pair_matches_fitted_pair():
    """The closed form agrees with the pair fitted to the great-circle
    rotation away from the poles."""
    rng = np.random.default_rng(6)
    for _ in range(300):
        y = rng.normal(size=3)
        y /= np.linalg.norm(y)
        if abs(y[2]) > 0.999:
            continue
        alpha, beta = rotation_pair(y)
        fa, fb = fitted_pair(snapped_rotation(y))
        assert max(abs(alpha - fa), abs(beta - fb)) <= 1e-13


def test_rotations_of_tiny_and_huge_vectors():
    """rotation_pair of a vector of length 1e-200, 2^-600 or 1e200 gives the
    unit vector's result, with no warning: bit for bit along an axis, to
    1e-15 along a general direction."""
    d = np.array([0.6, -0.64, 0.48])
    with np.errstate(all="raise"):
        for scale in (1e-200, 2.0 ** -600, 1e200):
            for axis in np.eye(3):
                assert rotation_pair(scale * axis) == rotation_pair(axis)
            assert np.abs(np.subtract(rotation_pair(scale * d),
                                      rotation_pair(d))).max() <= 1e-15


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


def _tabled_eval_plane(bubble, z, deriv=(0, 0)):
    """``Bubble.eval_plane`` with the powers of zeta, conj(zeta) and
    1/(1+|zeta|^2) kept in tables shared by both components, each power
    the previous one times the base where that is tabled (else base**n)."""
    zeta = np.asarray(z, dtype=complex) / bubble.rho
    bases = (zeta, np.conj(zeta), 1.0 / (1.0 + np.abs(zeta) ** 2))
    tables = [{0: np.ones_like(zeta), 1: bases[0]}, {0: np.ones_like(zeta), 1: bases[1]},
              {0: np.ones(zeta.shape), 1: bases[2]}]

    def power(i, n):
        if n not in tables[i]:
            tables[i][n] = tables[i][n - 1] * bases[i] if n - 1 in tables[i] else bases[i] ** n
        return tables[i][n]

    scale = bubble.rho ** -(deriv[0] + deriv[1])
    out = []
    for expr in bubble.component_exprs():
        val = np.zeros(zeta.shape, dtype=complex)
        for (a, b, M), c in expr.derivative(*deriv).terms.items():
            val += c * power(0, a) * power(1, b) * power(2, M)
        out.append(scale * val)
    return np.stack(out, axis=-1)


@pytest.mark.parametrize("rho, degree, center, q", [
    (0.3, 54, (0.6, 0.0, 0.8), 1.3),
    (0.35, 95, (0.3, -0.5, -0.8), 1.8),
    (0.05, 320, (-0.4, 0.2, -0.3), 1.0),
])
def test_bubble_values_match_tabled_powers(monkeypatch, rho, degree, center, q):
    """Each power evaluated afresh gives the bytes of shared power tables:
    the grid values of the bubble, and its first Wirtinger derivatives at
    the chart points; the second mixed derivative within 1e-15."""
    bub = Bubble(center=center, rho=rho, q_center=q)
    grid = QuadratureGrid(degree=degree)
    got = bubble_grid_values(bub, grid)
    for deriv in ((1, 0), (0, 1), (1, 1)):
        d_got = bub.eval_plane(grid.chart_a, deriv=deriv)
        d_ref = _tabled_eval_plane(bub, grid.chart_a, deriv)
        if deriv == (1, 1):
            assert np.abs(d_got - d_ref).max() <= 1e-15 * np.abs(d_ref).max()
        else:
            assert d_got.tobytes() == d_ref.tobytes()
    monkeypatch.setattr(Bubble, "eval_plane", _tabled_eval_plane)
    assert got.tobytes() == bubble_grid_values(bub, grid).tobytes()


def test_bubble_energy_scale_invariance():
    vals = []
    for rho in (0.5, 1.0, 2.0):
        quad, analytic = bubble_energy_flat(rho)
        assert abs(quad - 4 * math.pi) <= 1e-6
        assert abs(analytic - 4 * math.pi) < 1e-14
        vals.append(quad)
    assert max(vals) - min(vals) <= 1e-8


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


def test_transport_leaves_the_table_cache_as_found():
    """The ring table of the refined analysis grid (degree 32 for rho 0.5)
    is built for one transport and not kept; one that was already cached
    stays, and the coefficients are the same bytes either way."""
    basis = SphereBasis(4)
    basis.synthesis_matrix(QuadratureGrid(degree=12))
    psi, rep = bubble_to_sphere(Bubble(rho=0.5), basis)
    assert rep.analysis_degree == 32
    assert list(basis._matrix_cache) == [12]
    ring = basis.synthesis_matrix(QuadratureGrid(degree=32))
    again, _ = bubble_to_sphere(Bubble(rho=0.5), basis)
    assert list(basis._matrix_cache) == [12, 32] and basis._matrix_cache[32] is ring
    assert again.coeff.tobytes() == psi.coeff.tobytes()


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
    alpha, beta = rotation_pair([0.6, 0.64, 0.48])
    z = rng.normal(size=10) + 1j * rng.normal(size=10)
    g = -np.conj(beta) * z + np.conj(alpha)
    m = mobius(alpha, beta, z)
    # |g|^2 = f(m(z))/f(z), the conformal weight of the transition
    # (equivalently f(m) |m'| = f with m' = g^-2)
    f = 2.0 / (1 + np.abs(z) ** 2)
    fm = 2.0 / (1 + np.abs(m) ** 2)
    assert np.abs(np.abs(g) ** 2 - fm / f).max() < 1e-12


@pytest.fixture(scope="module")
def north_value(ws12):
    psi, _ = bubble_to_sphere(Bubble(rho=0.5), ws12.basis)
    return eval_L(psi.coeff, 4.0, ws12).value


@settings(max_examples=10, deadline=None, derandomize=True)
@given(x3=st.floats(-1.0, 1.0), lon=st.floats(0.0, 2.0 * math.pi))
@example(x3=1.0, lon=0.0)
@example(x3=-1.0, lon=0.0)
@example(x3=math.cos(2e-7), lon=1.0)
@example(x3=-math.cos(2e-7), lon=1.0)
def test_transported_bubble_value_is_rotation_invariant(ws12, north_value, x3, lon):
    """For constant Q, L_4 of the transported bubble does not depend on its
    centre: the transport is a rotation of one profile."""
    r = math.sqrt(max(0.0, 1.0 - x3 * x3))
    y = np.array([r * math.cos(lon), r * math.sin(lon), x3])
    psi, _ = bubble_to_sphere(Bubble(center=y, rho=0.5), ws12.basis)
    assert abs(eval_L(psi.coeff, 4.0, ws12).value - north_value) <= 1e-13


def test_bubble_to_sphere_matches_dense_adjoint():
    """Bubble transport through the separable analysis equals the dense
    adjoint of the basis table on its refined grid, of degree
    ceil(16 / rho) = 54."""
    basis = SphereBasis(5)
    grid = QuadratureGrid(degree=54)
    bub = Bubble(center=[0.48, -0.6, 0.64], rho=0.3, q_center=1.2)
    psi, rep = bubble_to_sphere(bub, basis)
    assert rep.analysis_degree == 54
    wf = (grid.weights / grid.f_pref)[:, None]
    mat = basis.evaluate_matrix(grid.z_pref, grid.use_a)
    ref = np.tensordot(np.conj(mat), bubble_grid_values(bub, grid) * wf,
                       axes=([0, 1], [0, 1]))
    assert np.abs(psi.coeff - ref).max() <= 1e-12 * np.abs(ref).max()