import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

from diracsphere import energy
from diracsphere.energy import (CriticalPoint, HessianWeights,
                                PolynomialCurvature, Workspace,
                                check_q_hypothesis, constant_curvature, eval_A,
                                eval_L, eval_rayleigh, find_critical_points,
                                hessian_apply, intrinsic_gradient,
                                intrinsic_hessian, nonlinear_projection,
                                spherical_harmonic_curvature)
from diracsphere.grid import QuadratureGrid
from diracsphere.spectral import SphereBasis
from conftest import (hessian_oracle, hessian_quadratic_form,
                      psi_values_with_zeros, random_spinor, rayleigh_grad)


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
    """L_p = (||a^+||^2 - ||a^-||^2)/2 - A/p, the E^+/E^- parts taken from
    the masked coefficients."""
    rng = np.random.default_rng(1)
    a = random_spinor(ws8, rng)
    p = 3.7
    rep = eval_L(a, p, ws8)
    plus_sq, minus_sq = (_h_pair(ws8, np.where(mask, a, 0), a)
                         for mask in (ws8.basis.plus_mask, ws8.basis.minus_mask))
    recon = 0.5 * (plus_sq - minus_sq) - rep.nonlinear / p
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
        Hw = hessian_apply(HessianWeights(zv, p, ws8), w)
        g2_zw = dzw = float(np.sum(ws8.basis.eigenvalues
                                   * np.real(z * np.conj(w)))) - _h_pair(ws8, Hw, z)
        lhs = (g2_zz - g_prime(zv, p, z)) + 2 * (g2_zw - g_prime(zv, p, w)) + g2_ww
        rhs = (p - 2) / (p - 1) * eval_A(z, p, ws8)
        assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def lp_mean(coeff, q: float, ws: Workspace) -> float:
    """(integral Qhat |psi|^q)^{1/q} with Qhat the normalized copy of Q."""
    values = ws.synthesize(coeff)
    nsq = ws.fiber_norm_sq(values)
    val = float(ws.grid.integrate(ws.q_nodes / ws.q_integral * nsq ** (q / 2.0)))
    return val ** (1.0 / q)


@pytest.mark.parametrize("zeros", [False, True])
def test_hessian_apply_matches_one_shot_oracle(ws8q, zeros):
    """Products through HessianWeights equal the one-shot product exactly,
    at random psi and at psi with exact zero nodes."""
    rng = np.random.default_rng(31 + zeros)
    for p in (2.5, 3.0, 3.7, 4.0):
        values = psi_values_with_zeros(ws8q, rng, zeros)
        weights = HessianWeights(values, p, ws8q)
        assert weights.pos.all() != zeros
        for _ in range(3):
            w = random_spinor(ws8q, rng)
            assert np.array_equal(hessian_apply(weights, w),
                                  hessian_oracle(values, p, ws8q, w))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       p=st.floats(2.0, 4.0, exclude_min=True))
def test_hessian_of_the_phase_direction_is_the_rotated_gradient(ws8q, seed, p):
    """L_p is invariant under psi -> e^{i theta} psi, so its gradient is
    equivariant, and d/dtheta at 0 gives L_p''(psi)[i psi] = i L_p'(psi) at
    every psi, not only at solutions: the Newton operator is exact along
    the phase orbit."""
    coeff = random_spinor(ws8q, np.random.default_rng(seed))
    weights = HessianWeights(ws8q.synthesize(coeff), p, ws8q)
    lhs = hessian_apply(weights, 1j * coeff)
    rhs = 1j * eval_L(coeff, p, ws8q).grad
    assert np.sqrt(_h_pair(ws8q, lhs - rhs, lhs - rhs)) <= 1e-12 * np.sqrt(
        _h_pair(ws8q, rhs, rhs))


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
    H = intrinsic_hessian(Q, north[None])[0]
    eigs = np.linalg.eigvalsh(H)
    assert eigs == pytest.approx([-0.6, -0.6], abs=1e-10)


def test_sextic_curvature_derivatives_match_central_differences():
    """A Q with a degree-6 term: the ambient gradient and Hessian match
    central differences of evaluate and of the gradient, and the sphere
    gradient and Hessian match differences along great circles."""
    Q = PolynomialCurvature([(0, 0, 0, 1.0), (0, 0, 2, 0.3), (3, 3, 0, 0.5),
                             (1, 2, 1, -0.2)])
    rng = np.random.default_rng(61)
    x = rng.normal(size=(20, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    h = 1e-5
    grad, hess = Q.ambient_gradient(x), Q.ambient_hessian(x)
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (Q.evaluate(x + e) - Q.evaluate(x - e)) / (2 * h)
        assert np.allclose(grad[:, a], fd, rtol=1e-7, atol=1e-9)
        fd2 = (Q.ambient_gradient(x + e) - Q.ambient_gradient(x - e)) / (2 * h)
        assert np.allclose(hess[:, :, a], fd2, rtol=1e-7, atol=1e-9)
    frame = np.stack(energy._tangent_frame(x), axis=1)
    g_s, h_s = intrinsic_gradient(Q, x), intrinsic_hessian(Q, x)
    h = 1e-4
    for k in range(2):
        v = frame[:, k]
        # the great circle cos(t) x + sin(t) v is a geodesic with speed v
        q_t = [Q.evaluate(np.cos(t) * x + np.sin(t) * v) for t in (-h, 0.0, h)]
        fd = (q_t[2] - q_t[0]) / (2 * h)
        assert np.allclose(np.sum(g_s * v, axis=1), fd, rtol=1e-7, atol=1e-9)
        fd2 = (q_t[2] - 2 * q_t[1] + q_t[0]) / h**2
        assert np.allclose(h_s[:, k, k], fd2, rtol=1e-5, atol=1e-6)


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


# -- batched critical-point search against the scalar loop ---------------------


def _scalar_tangent_frame(xi):
    a = np.array([1.0, 0.0, 0.0]) if abs(xi[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(xi, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(xi, e1)
    return e1, e2


def _scalar_intrinsic_hessian(Q, xi):
    e1, e2 = _scalar_tangent_frame(xi)
    H = Q.ambient_hessian(xi[None])[0]
    g = Q.ambient_gradient(xi[None])[0]
    radial = float(g @ xi)
    frame = np.stack([e1, e2], axis=0)
    return frame @ H @ frame.T - radial * np.eye(2)


def _scalar_find_critical_points(Q, seed_degree=24, grad_tol=1e-9,
                                 dedupe_dist=0.03, max_iter=80, lapack=False):
    """The one-seed-at-a-time sphere Newton that the batched search replaced,
    with the batched search's closed forms for one seed: Cramer's rule (a
    det == 0 step is -g2) and the eigenvalues mid -+ hypot((a - d)/2, c) of
    the lower triangle.  ``lapack`` takes ``np.linalg.solve`` and
    ``np.linalg.eigvalsh`` instead, as an independent oracle."""
    grid = QuadratureGrid(degree=seed_degree)
    found = []
    all_ok = True
    for xi in grid.xyz:
        xi = xi.copy()
        ok = False
        for _ in range(max_iter):
            g3 = intrinsic_gradient(Q, xi[None])[0]
            gn = np.linalg.norm(g3)
            if gn < grad_tol:
                ok = True
                break
            e1, e2 = _scalar_tangent_frame(xi)
            H2 = _scalar_intrinsic_hessian(Q, xi)
            g2 = np.array([g3 @ e1, g3 @ e2])
            if lapack:
                try:
                    step = np.linalg.solve(H2, -g2)
                except np.linalg.LinAlgError:
                    step = -g2
            else:
                (a, b), (c, d) = H2
                det = a * d - b * c
                step = (np.array([b * g2[1] - d * g2[0], c * g2[0] - a * g2[1]]) / det
                        if det != 0 else -g2)
            if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 0.5:
                step = -0.2 * g2 / max(gn, 1e-30)
            xi = xi + step[0] * e1 + step[1] * e2
            xi /= np.linalg.norm(xi)
        if not ok:
            all_ok = False
            continue
        if all(np.arccos(np.clip(xi @ p.position, -1, 1)) > dedupe_dist for p in found):
            val = float(Q.evaluate(xi[None])[0])
            H = _scalar_intrinsic_hessian(Q, xi)
            if lapack:
                eigs = np.linalg.eigvalsh(H)
            else:
                mid, r = (H[0, 0] + H[1, 1]) / 2, np.hypot((H[0, 0] - H[1, 1]) / 2, H[1, 0])
                eigs = np.array([mid - r, mid + r])
            scale = max(abs(eigs).max(), 1e-12)
            tol = 1e-6 * max(scale, 1.0)
            if eigs[0] > tol and eigs[1] > tol:
                kind = "min"
            elif eigs[0] < -tol and eigs[1] < -tol:
                kind = "max"
            elif eigs[0] < -tol and eigs[1] > tol:
                kind = "saddle"
            else:
                kind = "degenerate"
            found.append(CriticalPoint(xi, val, float(np.linalg.norm(
                intrinsic_gradient(Q, xi[None])[0])), (float(eigs[0]), float(eigs[1])), kind))
    found.sort(key=lambda p: -p.value)
    return found, all_ok


def _rotated_reference_q(index):
    """Q = 1 + 0.3 (R x)_3^2 for rotation ``index`` of the benchmark pool:
    identity at 0, else a rotation from a unit quaternion drawn with
    random.Random(index)."""
    if index == 0:
        r = [0.0, 0.0, 1.0]
    else:
        rng = random.Random(index)
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(c * c for c in q))
        w, x, y, z = (c / n for c in q)
        r = [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]
    terms = [(0, 0, 0, 1.0)]
    for i in range(3):
        for j in range(i, 3):
            c = 0.3 * r[i] * r[j] * (1.0 if i == j else 2.0)
            if c != 0.0:
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                terms.append((*e, c))
    return PolynomialCurvature(terms)


def _report_key(rep):
    points = lambda pts: [(tuple(p.position), p.value, p.grad_norm, p.hess_eigs, p.kind)
                          for p in pts]
    return (rep.q_max, rep.q_min, rep.half_threshold, points(rep.max_points),
            points(rep.critical_points), rep.admissible_d, rep.constant,
            rep.search_converged, rep.notes)


_ORACLE_QS = {
    **{f"rotation{k}": (lambda k=k: _rotated_reference_q(k)) for k in range(8)},
    "sph_harm": lambda: spherical_harmonic_curvature(
        [(0, 0, 2.0 * math.sqrt(math.pi)), (2, 0, 0.1)]),
    "affine": lambda: PolynomialCurvature([(0, 0, 0, 1.0), (0, 0, 1, 0.25)]),
    "constant": lambda: constant_curvature(2.0),
}


@pytest.mark.parametrize("name", list(_ORACLE_QS))
def test_batched_critical_search_matches_scalar_loop(name, monkeypatch):
    """The batched Newton reproduces the scalar loop bit for bit: the same
    positions, values, Hessian eigenvalues, kinds and order, even on the
    roundoff-chaotic degenerate equator of the reference Q."""
    Q = _ORACLE_QS[name]()
    batched = check_q_hypothesis(Q)
    monkeypatch.setattr(energy, "find_critical_points", _scalar_find_critical_points)
    scalar = check_q_hypothesis(Q)
    assert _report_key(batched) == _report_key(scalar)


# a generic Q, with no symmetry: 1 + 0.3 x3^2 + 0.1 x1 + 0.1 x1 x2 + 0.05 x2 x3
_GENERIC_Q = [(0, 0, 0, 1.0), (0, 0, 2, 0.3), (1, 0, 0, 0.1), (1, 1, 0, 0.1),
              (0, 1, 1, 0.05)]


def test_newton_steps_cramer_against_lapack():
    """Cramer's rule on random, diagonal, near-singular and exactly singular
    2x2 rows: a row that LAPACK finds exactly singular steps -g2, and every
    other row solves H s = -g to 1e-13 relative residual, as
    ``np.linalg.solve`` does."""
    rng = np.random.default_rng(37)
    n = 200
    diag = np.zeros((n, 2, 2))
    diag[:, [0, 1], [0, 1]] = rng.normal(size=(n, 2))
    u, v = rng.normal(size=(2, n, 2))
    near = u[:, :, None] * v[:, None, :] + 1e-9 * rng.normal(size=(n, 2, 2))
    H = np.concatenate([rng.normal(size=(n, 2, 2)), diag, near])
    g = rng.normal(size=(len(H), 2))
    singular = np.array([[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]],
                         [[3.0, 0.0], [0.0, 0.0]], [[0.5, 0.25], [2.0, 1.0]]])
    gs = rng.normal(size=(len(singular), 2))
    for S, b in zip(singular, gs):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(S, b)
    steps = energy._newton_steps(np.concatenate([H, singular]), np.concatenate([g, gs]))
    assert np.array_equal(steps[len(H):], -gs)
    for s in (steps[:len(H)], np.linalg.solve(H, -g[:, :, None])[:, :, 0]):
        res = np.linalg.norm((H @ s[:, :, None])[:, :, 0] + g, axis=1)
        scale = np.linalg.norm(H, 2, axis=(1, 2)) * np.linalg.norm(s, axis=1)
        assert np.all(res <= 1e-13 * scale)


def test_hessian_eigenvalues_closed_form_against_eigvalsh(monkeypatch):
    """The classification's eigenvalues mid -+ hypot((a - d)/2, c) match
    ``np.linalg.eigvalsh`` to 1e-14 ||H|| on random Hessians over six
    decades, diagonal ones, repeated eigenvalues and zero, and read the lower
    triangle as eigvalsh does.  A constant Q converges at every seed before
    a Newton step, so ``intrinsic_hessian`` is called once, to classify,
    and may hand the classification any matrices."""
    rng = np.random.default_rng(38)
    n = len(QuadratureGrid(degree=24).xyz)
    H = rng.normal(size=(n, 2, 2)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
    H[: n // 2] = H[: n // 2] + H[: n // 2].transpose(0, 2, 1)   # symmetric half
    H[:40, [0, 1], [1, 0]] = 0.0                                # diagonal
    H[40:60] = rng.normal(size=(20, 1, 1)) * np.eye(2)           # repeated
    H[60:63] = 0.0
    monkeypatch.setattr(energy, "intrinsic_hessian", lambda Q, xyz: H[:len(xyz)])
    found, ok = find_critical_points(constant_curvature(1.5))
    assert ok and len(found) == n
    lapack = np.linalg.eigvalsh(H)
    closed = np.array([p.hess_eigs for p in found])
    assert np.array_equal(closed[40:63], lapack[40:63])
    assert np.all(np.abs(closed - lapack) <= 1e-14 * np.abs(lapack).max(axis=1)[:, None])


@pytest.mark.parametrize("name", [*_ORACLE_QS, "generic"])
def test_closed_form_search_matches_lapack_search(name, monkeypatch):
    """Against the scalar search on ``np.linalg.solve`` and ``eigvalsh``, the
    hypothesis check finds the same non-degenerate critical points (count,
    kinds and order), positions and Hessian eigenvalues within 1e-14, and
    q_max, q_min and the admissible d within 1e-14 relative.  Only the points
    of a degenerate circle, where the search is roundoff-chaotic, may differ."""
    Q = (PolynomialCurvature(_GENERIC_Q) if name == "generic"
         else _ORACLE_QS[name]())
    closed = check_q_hypothesis(Q)
    monkeypatch.setattr(energy, "find_critical_points",
                        lambda Q: _scalar_find_critical_points(Q, lapack=True))
    lapack = check_q_hypothesis(Q)
    points = [[p for p in rep.critical_points if p.kind != "degenerate"]
              for rep in (closed, lapack)]
    assert [p.kind for p in points[0]] == [p.kind for p in points[1]]
    for a, b in zip(*points):
        assert np.allclose(a.position, b.position, rtol=0, atol=1e-14)
        assert a.hess_eigs == pytest.approx(b.hess_eigs, rel=0, abs=1e-14)
    for attr in ("q_max", "q_min"):
        assert getattr(closed, attr) == pytest.approx(getattr(lapack, attr), rel=1e-14)
    assert (closed.admissible_d is None) == (lapack.admissible_d is None)
    if closed.admissible_d is not None:
        assert closed.admissible_d == pytest.approx(lapack.admissible_d, rel=1e-14)


def test_batched_critical_search_hessian_calls(perturbed_q, monkeypatch):
    """One ambient Hessian evaluation per Newton iteration over all seeds,
    plus the classification: the scalar loop makes thousands."""
    calls = []
    hess = PolynomialCurvature.ambient_hessian

    def counting(self, xyz):
        calls.append(len(xyz))
        return hess(self, xyz)

    monkeypatch.setattr(PolynomialCurvature, "ambient_hessian", counting)
    max_iter = energy._CRITICAL_STEPS
    found, ok = find_critical_points(perturbed_q)
    assert ok and found
    assert len(calls) <= max_iter + len(found) + 1
