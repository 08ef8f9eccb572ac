import math

import numpy as np
import pytest

from scipy.special import sph_harm_y

from diracsphere.energy import (PolynomialCurvature, Workspace,
                                check_q_hypothesis, constant_curvature, eval_A,
                                eval_L, eval_rayleigh, hessian_apply,
                                hessian_quadratic_form, intrinsic_gradient,
                                intrinsic_hessian, lp_mean, nonlinear_projection,
                                rayleigh_grad, spherical_harmonic_curvature)
from diracsphere.grid import QuadratureGrid
from diracsphere.spectral import SphereBasis
from conftest import random_spinor


def _h_pair(ws, a, b):
    return float(np.sum(ws.basis.abs_eigenvalues * np.real(a * np.conj(b))))


def test_zero_state(ws8):
    rep = eval_L(np.zeros(ws8.basis.n_basis, complex), 3.1, ws8)
    assert rep.value == 0.0 and rep.nonlinear == 0.0
    assert np.all(rep.grad == 0)


def test_one_dimensional_reduction_closed_form(ws8):
    """L_p(t eta) = t^2/2 - t^p c / p for a first positive eigenspinor; the
    closed-form maximizer location is cross-checked against a t-scan."""
    basis = ws8.basis
    i = next(k for k, ix in enumerate(basis.indices) if ix.j == 0 and ix.sigma == 1)
    e = np.zeros(basis.n_basis, complex)
    e[i] = 1.0
    p = 3.4
    c = eval_A(e, p, ws8)
    ts = np.linspace(0.1, 4.0, 200)
    vals = np.array([eval_L(t * e, p, ws8).value for t in ts])
    closed = ts**2 / 2 - ts**p * c / p
    assert np.abs(vals - closed).max() <= 1e-12
    t_star = c ** (-1.0 / (p - 2.0))
    assert ts[np.argmax(vals)] == pytest.approx(t_star, abs=ts[1] - ts[0])


def test_gradient_finite_differences_50_states(ws8):
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(50):
        p = 2.5 + 1.5 * rng.random()
        a = random_spinor(ws8, rng)
        d = random_spinor(ws8, rng)
        rep = eval_L(a, p, ws8)
        h = 1e-4
        fd = (eval_L(a + h * d, p, ws8).value - eval_L(a - h * d, p, ws8).value) / (2 * h)
        pair = _h_pair(ws8, rep.grad, d)
        worst = max(worst, abs(fd - pair) / max(abs(fd), 1e-12))
    assert worst <= 1e-5


def test_report_identity_from_parts(ws8):
    rng = np.random.default_rng(1)
    a = random_spinor(ws8, rng)
    p = 3.7
    rep = eval_L(a, p, ws8)
    recon = 0.5 * (rep.plus_sq - rep.minus_sq) - rep.nonlinear / p
    assert abs(rep.value - recon) <= 1e-12 * max(1.0, abs(rep.value))


def test_p_range_and_aliasing_errors(ws8):
    a = np.zeros(ws8.basis.n_basis, complex)
    for bad in (2.0, 4.5, 1.0):
        with pytest.raises(ValueError):
            eval_L(a, bad, ws8)
    with pytest.raises(ValueError):
        Workspace(SphereBasis(8), QuadratureGrid(degree=20), constant_curvature())


def test_rayleigh_properties(ws8):
    rng = np.random.default_rng(2)
    a = random_spinor(ws8, rng)
    R = eval_rayleigh(a, 4.0, ws8)
    for t in (0.5, 2.0, 10.0):
        assert abs(eval_rayleigh(t * a, 4.0, ws8) - R) <= 1e-10 * abs(R)
    basis = ws8.basis
    i = next(k for k, ix in enumerate(basis.indices) if ix.j == 0 and ix.sigma == 1)
    e = np.zeros(basis.n_basis, complex)
    e[i] = 1.0
    expected = 1.0 / math.sqrt(eval_A(e, 4.0, ws8))
    assert eval_rayleigh(e, 4.0, ws8) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        eval_rayleigh(np.zeros_like(e), 4.0, ws8)


def test_rayleigh_gradient_fd(ws8):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        p = 3.0 + rng.random()
        a = random_spinor(ws8, rng)
        d = random_spinor(ws8, rng)
        g = rayleigh_grad(a, p, ws8)
        h = 1e-5
        fd = (eval_rayleigh(a + h * d, p, ws8)
              - eval_rayleigh(a - h * d, p, ws8)) / (2 * h)
        worst = max(worst, abs(fd - _h_pair(ws8, g, d)) / max(abs(fd), 1e-12))
    assert worst <= 1e-5


def test_convexity_inequality_tech1(ws8):
    """(G''(z)[z,z] - G'(z)[z]) + 2(G''(z)[z,w] - G'(z)[w]) + G''(z)[w,w]
    >= (p-2)/(p-1) int Q |z|^p on random pairs."""
    rng = np.random.default_rng(4)

    def g_prime(zv, p, w_coeff):
        wv = ws8.synthesize(w_coeff)
        nsq = ws8.fiber_norm_sq(zv)
        pw = np.where(nsq > 0, nsq ** ((p - 2) / 2), 0.0)
        return float(ws8.grid.integrate(ws8.q_nodes * pw * ws8.fiber_re_inner(zv, wv)))

    for trial in range(100):
        p = 2.6 + 1.4 * rng.random()
        z = random_spinor(ws8, rng)
        w = random_spinor(ws8, rng)
        zv = ws8.synthesize(z)
        gzz = hessian_quadratic_form(zv, p, ws8, z)
        gww = hessian_quadratic_form(zv, p, ws8, w)
        # hessian_quadratic_form carries the Dirac part; strip to G'' parts
        dz = float(np.sum(ws8.basis.eigenvalues * np.abs(z) ** 2))
        dw = float(np.sum(ws8.basis.eigenvalues * np.abs(w) ** 2))
        g2_zz = dz - gzz
        g2_ww = dw - gww
        Hw = hessian_apply(zv, p, ws8, w)
        g2_zw = dzw = float(np.sum(ws8.basis.eigenvalues
                                   * np.real(z * np.conj(w)))) - _h_pair(ws8, Hw, z)
        lhs = (g2_zz - g_prime(zv, p, z)) + 2 * (g2_zw - g_prime(zv, p, w)) + g2_ww
        rhs = (p - 2) / (p - 1) * eval_A(z, p, ws8)
        assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def test_monotone_lp_means(ws8):
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = random_spinor(ws8, rng)
        qs = np.array([2.2, 2.8, 3.3, 3.8, 4.0])
        vals = [lp_mean(a, q, ws8) for q in qs]
        assert all(b >= a2 - 1e-12 for a2, b in zip(vals, vals[1:]))


def test_nonlinear_projection_adjointness(ws8):
    # <N(psi), w>_{L^2} = int Q |psi|^{p-2} real(psi, w): two routes agree
    rng = np.random.default_rng(6)
    p = 3.3
    a = random_spinor(ws8, rng)
    w = random_spinor(ws8, rng)
    values = ws8.synthesize(a)
    N = nonlinear_projection(values, p, ws8)
    lhs = float(np.sum(np.real(N * np.conj(w))))
    wv = ws8.synthesize(w)
    nsq = ws8.fiber_norm_sq(values)
    rhs = float(ws8.grid.integrate(
        ws8.q_nodes * nsq ** ((p - 2) / 2) * ws8.fiber_re_inner(values, wv)))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# -- hypothesis (Q) fixtures ------------------------------------------------


def test_hypothesis_constant():
    rep = check_q_hypothesis(constant_curvature(2.0))
    assert rep.constant and rep.admissible_d is None
    assert rep.contractibility == "not checked"


def test_hypothesis_quadratic(perturbed_q):
    rep = check_q_hypothesis(perturbed_q)
    assert rep.q_max == pytest.approx(1.3, abs=1e-9)
    assert rep.q_min == pytest.approx(1.0, abs=1e-9)
    assert rep.half_threshold == pytest.approx(0.65, abs=1e-12)
    # two antipodal nondegenerate maxima at the poles
    assert len(rep.max_points) == 2
    for p in rep.max_points:
        assert p.kind == "max"
        assert max(p.hess_eigs) < -1e-3  # definite (of -Q: positive definite)
        assert abs(abs(p.position[2]) - 1.0) < 1e-8
    # admissible d from the source formula: (max{q_max/2, q_min}, q_max)
    lo, hi = rep.admissible_d
    assert lo == pytest.approx(1.0, abs=1e-6)
    assert hi == pytest.approx(1.3, abs=1e-9)
    # equator critical circle detected as degenerate
    assert any(p.kind == "degenerate" and abs(p.value - 1.0) < 1e-6
               for p in rep.critical_points)


def test_hypothesis_affine_obstruction():
    rep = check_q_hypothesis(PolynomialCurvature([(0, 0, 0, 1.0), (0, 0, 1, 0.25)]))
    assert any("obstruction" in n for n in rep.notes)
    assert rep.q_max == pytest.approx(1.25, abs=1e-9)
    # one max, one min, both nondegenerate
    kinds = sorted(p.kind for p in rep.critical_points)
    assert kinds == ["max", "min"]


def test_hypothesis_positivity_guard():
    with pytest.raises(ValueError):
        check_q_hypothesis(PolynomialCurvature([(0, 0, 1, 1.0)]))  # vanishes


def test_intrinsic_derivatives_polynomial():
    Q = PolynomialCurvature([(0, 0, 0, 1.0), (0, 0, 2, 0.3)])
    north = np.array([0.0, 0.0, 1.0])
    g = intrinsic_gradient(Q, north[None])[0]
    assert np.linalg.norm(g) < 1e-12
    H = intrinsic_hessian(Q, north)
    eigs = np.linalg.eigvalsh(H)
    assert eigs == pytest.approx([-0.6, -0.6], abs=1e-10)


def test_spherical_harmonic_curvature_evaluates():
    Q = spherical_harmonic_curvature([(0, 0, 2.0 * math.sqrt(math.pi)), (2, 0, 0.1)])
    assert isinstance(Q, PolynomialCurvature)
    grid = QuadratureGrid(degree=16)
    vals = Q.evaluate(grid.xyz)
    assert np.all(vals > 0)
    # l=0 coefficient normalization: Y_00 = 1/(2 sqrt(pi))
    mean = float(grid.integrate(vals)) / (4 * math.pi)
    assert mean == pytest.approx(1.0, abs=1e-10)


def _real_sph_harm_oracle(l, m, xyz):
    """Real harmonic from scipy's complex Y_lm: Y_l0, sqrt2 Re Y_lm (m > 0),
    sqrt2 Im Y_l|m| (m < 0)."""
    theta = np.arccos(np.clip(xyz[:, 2], -1, 1))
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    y = sph_harm_y(l, abs(m), theta, phi)
    if m == 0:
        return y.real
    return math.sqrt(2.0) * (y.real if m > 0 else y.imag)


def test_spherical_harmonic_curvature_matches_scipy():
    rng = np.random.default_rng(7)
    xyz = rng.normal(size=(64, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    for l in range(11):
        for m in range(-l, l + 1):
            got = spherical_harmonic_curvature([(l, m, 1.0)]).evaluate(xyz)
            ref = _real_sph_harm_oracle(l, m, xyz)
            assert np.abs(got - ref).max() <= 1e-12, (l, m)


def test_spherical_harmonic_curvature_rejects_bad_indices():
    for bad in ((2, 3, 1.0), (2, -3, 1.0), (-1, 0, 1.0)):
        with pytest.raises(ValueError):
            spherical_harmonic_curvature([bad])


def test_hypothesis_sph_harm_matches_polynomial_twin():
    """1 + 0.1 Y_20 as a harmonic table and as hand-written monomials, with
    Y_20 = sqrt(5/(16 pi)) (3 x3^2 - 1): the hypothesis reports agree."""
    c = math.sqrt(5.0 / (16.0 * math.pi))
    harm = check_q_hypothesis(spherical_harmonic_curvature(
        [(0, 0, 2.0 * math.sqrt(math.pi)), (2, 0, 0.1)]))
    twin = check_q_hypothesis(PolynomialCurvature(
        [(0, 0, 0, 1.0 - 0.1 * c), (0, 0, 2, 0.3 * c)]))
    assert harm.q_max == pytest.approx(twin.q_max, abs=1e-10)
    assert harm.admissible_d == pytest.approx(twin.admissible_d, abs=1e-10)
    assert len(harm.max_points) == len(twin.max_points) == 2
    for a, b in zip(harm.max_points, twin.max_points):
        assert a.hess_eigs == pytest.approx(b.hess_eigs, abs=1e-9)
