import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.optimize import brentq

from diracsphere.conformal import Bubble, bubble_to_sphere, chart_at
from diracsphere.energy import HessianWeights, eval_A, eval_L, eval_rayleigh
from diracsphere.grid import chart_a_coords
import diracsphere.reduction as reduction
from diracsphere.reduction import (barycenter, concentration_profile,
                                   estimate_tau, nehari_defect, nehari_project,
                                   reduce_minus)
from diracsphere.spectral import SphereBasis, h_inner, h_norm
from conftest import (bubble_start, hessian_oracle, hessian_quadratic_form,
                      make_workspace, psi_values_with_zeros, random_spinor)


def _plus(ws, coeff):
    return np.where(ws.basis.plus_mask, coeff, 0.0)


@pytest.mark.parametrize("zeros", [False, True])
def test_minus_solve_meets_tol_against_oracle(ws8q, zeros, monkeypatch):
    """The masked solve on E^- returns a full-length vector that is exactly
    0 on E^+ and whose residual against the one-shot Hessian meets ``tol``,
    at random psi and at psi with exact zero nodes; an rhs whose norm is at
    most ``tol`` (a relative tolerance >= 1) makes no Hessian product."""
    rng = np.random.default_rng(41 + zeros)
    neg = ws8q.basis.minus_mask
    products = [0]
    apply = reduction.hessian_apply

    def counted(weights, x):
        products[0] += 1
        return apply(weights, x)

    monkeypatch.setattr(reduction, "hessian_apply", counted)
    for p, tol in ((3.0, 1e-6), (4.0, 1e-12)):
        values = psi_values_with_zeros(ws8q, rng, zeros)
        weights = HessianWeights(values, p, ws8q)
        rhs = np.where(neg, random_spinor(ws8q, rng), 0.0)
        x = reduction._masked_solve(weights, rhs, neg, tol / h_norm(ws8q.basis, rhs))
        assert products[0] > 0
        assert not x[~neg].any()
        residual = rhs - np.where(neg, hessian_oracle(values, p, ws8q, x), 0.0)
        assert h_norm(ws8q.basis, residual) <= tol
        products[0] = 0
        small = rhs * (0.5 * tol / h_norm(ws8q.basis, rhs))
        assert not reduction._masked_solve(weights, small, neg,
                                           tol / h_norm(ws8q.basis, small)).any()
        assert products[0] == 0


def test_reduction_bound_100_states(ws8):
    """||h_p(u)||^2 <= (2/p) int Q |u|^p on seeded random directions."""
    rng = np.random.default_rng(100)
    for trial in range(100):
        p = 2.6 + 1.4 * rng.random()
        u = _plus(ws8, random_spinor(ws8, rng))
        red = reduce_minus(u, p, ws8)
        hn2 = float(np.sum(ws8.basis.abs_eigenvalues * np.abs(red.h) ** 2))
        assert hn2 <= (2.0 / p) * eval_A(u, p, ws8) + 1e-10
        assert red.residual_minus <= 1e-9


def test_reduction_stationarity_hlm(ws8, monkeypatch):
    rng = np.random.default_rng(101)
    p = 3.5
    u = _plus(ws8, random_spinor(ws8, rng))
    monkeypatch.setattr(reduction, "_TOL_INNER", 1e-11)
    red = reduce_minus(u, p, ws8)
    # sup over unit E^- directions of L'(u+h)[v] equals the E^- gradient norm
    gminus = np.where(ws8.basis.minus_mask, red.grad, 0.0)
    assert h_norm(ws8.basis, gminus) <= 1e-10


def test_reduction_maximizer_vs_perturbations(ws8):
    rng = np.random.default_rng(102)
    p = 3.2
    u = _plus(ws8, random_spinor(ws8, rng))
    red = reduce_minus(u, p, ws8)
    base = red.value
    for _ in range(10):
        v = np.where(ws8.basis.minus_mask, random_spinor(ws8, rng), 0.0)
        v *= 0.1 / max(h_norm(ws8.basis, v), 1e-30)
        assert eval_L(u + red.h + v, p, ws8).value <= base + 1e-12


def test_concavity_probe(ws8):
    """L_p''(u+v)[w,w] <= -||w||^2 on E^-, the strict concavity bound; both
    the exact quadratic form and a finite second difference."""
    rng = np.random.default_rng(103)
    p = 3.6
    u = _plus(ws8, random_spinor(ws8, rng))
    v = np.where(ws8.basis.minus_mask, random_spinor(ws8, rng), 0.0)
    psi_values = ws8.synthesize(u + v)
    for _ in range(20):
        w = np.where(ws8.basis.minus_mask, random_spinor(ws8, rng), 0.0)
        qf = hessian_quadratic_form(psi_values, p, ws8, w)
        wn2 = float(np.sum(ws8.basis.abs_eigenvalues * np.abs(w) ** 2))
        assert qf <= -wn2 + 1e-6
        h = 1e-3
        second = (eval_L(u + v + h * w, p, ws8).value
                  - 2 * eval_L(u + v, p, ws8).value
                  + eval_L(u + v - h * w, p, ws8).value) / h**2
        assert second <= -wn2 + 1e-4 * max(1.0, wn2)


def test_reduction_vanishes_for_decoupled_direction(ws8):
    """For Q = 1 and u a Killing eigenspinor, |u+v|-coupling has no E^-
    component at v = 0, so h_p(u) = 0 (checked through the residual)."""
    basis = ws8.basis
    i = next(k for k, ix in enumerate(basis.indices) if ix.j == 0 and ix.sigma == 1)
    u = np.zeros(basis.n_basis, complex)
    u[i] = 1.7
    p = 3.4
    # precondition of the fixture: E^- gradient already vanishes at v = 0
    rep = eval_L(u, p, ws8)
    gm = np.where(basis.minus_mask, rep.grad, 0.0)
    assert h_norm(ws8.basis, gm) < 1e-12
    red = reduce_minus(u, p, ws8)
    assert h_norm(ws8.basis, red.h) < 1e-10


def test_nehari_ray_invariance_and_negativity(ws8):
    rng = np.random.default_rng(104)
    p = 3.5
    u = _plus(ws8, random_spinor(ws8, rng))
    st = nehari_project(u, p, ws8)
    st3 = nehari_project(3.0 * u, p, ws8)
    assert st3.t == pytest.approx(st.t / 3.0, rel=1e-8)
    assert st.ray_second_derivative < 0
    # on the Nehari set the defect vanishes
    red = reduce_minus(st.u, p, ws8, v0=st.reduction.h)
    assert abs(nehari_defect(st.u, p, ws8, red)) <= 1e-8


def _counting(monkeypatch, name, owner=reduction):
    """Replace owner.<name> (default: the reduction module) with a wrapper
    that counts its calls."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_rereduction_reuses_its_transforms(ws8, monkeypatch):
    """Re-reducing a reduced point stops at once: one synthesis for the start
    value, which also gives the tolerance scale, and one analysis for the
    gradient.  The result equals a fresh eval_L at psi, bit for bit."""
    rng = np.random.default_rng(112)
    p = 3.5
    u = _plus(ws8, random_spinor(ws8, rng))
    red = reduce_minus(u, p, ws8)
    rep = eval_L(red.psi, p, ws8)
    assert red.value == rep.value and np.array_equal(red.grad, rep.grad)
    assert np.array_equal(red.values, ws8.synthesize(red.psi))
    synth = _counting(monkeypatch, "synthesize", SphereBasis)
    anal = _counting(monkeypatch, "analyze", SphereBasis)
    again = reduce_minus(u, p, ws8, v0=red.h)
    assert len(synth) <= 1 and len(anal) <= 1
    assert again.iterations == 0
    assert again.value == red.value and np.array_equal(again.grad, red.grad)


def test_nehari_second_derivative_matches_central_difference(ws8):
    """The reduced-Hessian value of d^2/dt^2 I_p(t u0) at the root against a
    central second difference of I_p along the ray."""
    rng = np.random.default_rng(110)
    p = 3.5
    u = _plus(ws8, random_spinor(ws8, rng))
    st = nehari_project(u, p, ws8)
    unorm = h_norm(ws8.basis, u)
    u0 = u / unorm
    t = st.t * unorm
    dt = 1e-4 * t
    vals = [reduce_minus(tt * u0, p, ws8, v0=st.reduction.h).value
            for tt in (t - dt, t, t + dt)]
    fd = (vals[0] - 2 * vals[1] + vals[2]) / dt**2
    assert st.ray_second_derivative == pytest.approx(fd, rel=1e-4)


def test_nehari_newton_warm_start_is_cheap(ws8, monkeypatch):
    """An outer iterate that arrives near the Nehari set is projected in a
    few Newton steps."""
    rng = np.random.default_rng(111)
    p = 3.5
    st = nehari_project(_plus(ws8, random_spinor(ws8, rng)), p, ws8)
    d = _plus(ws8, random_spinor(ws8, rng))
    u1 = st.u + 1e-3 * h_norm(ws8.basis, st.u) * d / h_norm(ws8.basis, d)
    calls = _counting(monkeypatch, "reduce_minus")
    st1 = nehari_project(u1, p, ws8)
    assert len(calls) <= 4
    red = reduce_minus(st1.u, p, ws8, v0=st1.reduction.h)
    assert abs(nehari_defect(st1.u, p, ws8, red)) <= 1e-8


def test_nehari_root_matches_brent_oracle_at_any_scale(ws8, monkeypatch):
    """The projection starts where the ray meets the Nehari set of L_p, which
    does not depend on the scale of u: directions scaled by 1e-3, 1e3,
    1e-100 and 2^+-300 land on the root of the slope (scipy's brentq, as an
    oracle only) within 1e-10 relative, in at most 5 reductions each."""
    rng = np.random.default_rng(112)
    p = 3.0
    u = _plus(ws8, random_spinor(ws8, rng))
    unorm = h_norm(ws8.basis, u)
    u0 = u / unorm

    def slope(t):
        return h_inner(ws8.basis, reduce_minus(t * u0, p, ws8).grad, u0)

    t_star = nehari_project(u, p, ws8).t * unorm
    oracle = brentq(slope, 0.5 * t_star, 2.0 * t_star, xtol=1e-13)
    reductions = _counting(monkeypatch, "reduce_minus")
    for scale in (1e-3, 1e3, 1e-100, 2.0 ** -300, 2.0 ** 300):
        reductions.clear()
        st = nehari_project(scale * u, p, ws8)
        assert len(reductions) <= 5
        assert st.t * scale == pytest.approx(oracle / unorm, rel=1e-10)


def test_nehari_max_matches_saddle_value(ws8):
    """max_t I_p(t u) equals max over W(u) = span{u} + E^- of L_p: the
    projected value against a dense t-scan of the same reduced functional."""
    rng = np.random.default_rng(105)
    p = 3.3
    u = _plus(ws8, random_spinor(ws8, rng))
    st = nehari_project(u, p, ws8)
    unorm = u / h_norm(ws8.basis, u)
    ts = np.linspace(0.2, 3.0, 25) * st.t * h_norm(ws8.basis, u)
    h = None
    best = -np.inf
    for t in ts:
        red = reduce_minus(t * unorm, p, ws8, v0=h)
        h = red.h
        best = max(best, red.value)
    assert st.reduction.value >= best - 1e-6


def test_quotient_max_equals_reduced_energy_relation(ws8):
    rng = np.random.default_rng(106)
    for p in (3.0, 3.7, 4.0):
        u = _plus(ws8, random_spinor(ws8, rng))
        st = nehari_project(u, p, ws8)
        f_energy = ((2.0 * p / (p - 2.0)) * max(st.reduction.value, 0.0)) ** ((p - 2.0) / p)
        f_rayleigh = eval_rayleigh(st.reduction.psi, p, ws8)
        assert f_energy == pytest.approx(f_rayleigh, rel=1e-8)


def test_nehari_defect_derivative_inequality(ws8):
    """H_p'(u)[u] <= 2 H_p(u) - (p-2)/(p-1) int Q |u + h_p(u)|^p, with the
    left side from finite differences of H_p along the ray."""
    rng = np.random.default_rng(107)
    p = 3.4
    for _ in range(10):
        u = _plus(ws8, random_spinor(ws8, rng))
        red = reduce_minus(u, p, ws8)
        H0 = nehari_defect(u, p, ws8, red)
        eps = 1e-5
        red_p = reduce_minus((1 + eps) * u, p, ws8, v0=red.h)
        red_m = reduce_minus((1 - eps) * u, p, ws8, v0=red.h)
        Hp = nehari_defect((1 + eps) * u, p, ws8, red_p)
        Hm = nehari_defect((1 - eps) * u, p, ws8, red_m)
        dH = (Hp - Hm) / (2 * eps)       # = H_p'(u)[u] by homogeneity of the ray
        rhs = 2 * H0 - (p - 2) / (p - 1) * eval_A(red.psi, p, ws8)
        assert dH <= rhs + 1e-4 * max(1.0, abs(rhs))


def test_anti_coercive_on_w_u(ws8):
    rng = np.random.default_rng(108)
    p = 3.1
    u = _plus(ws8, random_spinor(ws8, rng))
    u /= h_norm(ws8.basis, u)
    v = np.where(ws8.basis.minus_mask, random_spinor(ws8, rng), 0.0)
    v /= h_norm(ws8.basis, v)
    vals = [eval_L(t * (u + 0.5 * v), p, ws8).value for t in (1.0, 4.0, 16.0, 64.0)]
    assert vals[-1] < vals[0] and vals[-1] < -1e3


def test_tau_monotone_and_value(ws8):
    rng = np.random.default_rng(109)
    samples = [_plus(ws8, random_spinor(ws8, rng)) for _ in range(3)]
    b, _ = bubble_to_sphere(Bubble(rho=0.6), ws8.basis)
    samples.append(_plus(ws8, b.coeff))
    prev = None
    for p in (3.0, 3.5, 3.9, 4.0):
        est = estimate_tau(p, ws8, samples)
        if prev is not None:
            assert np.all(est.values_normalized <= prev + 1e-8)
        prev = est.values_normalized
    assert est.minimum >= 2 * math.sqrt(math.pi) - 1e-3


def test_concentration_profile_properties():
    # uniform |psi| = 1: Theta(r) = ball-area fraction of the total mass.
    # Ball masses are node-quantized sums, so the 2% comparison needs radii
    # well above the node spacing; a degree-120 grid gives spacing 0.026.
    ws = make_workspace(8, degree=120)
    basis = ws.basis
    i = next(k for k, ix in enumerate(basis.indices) if ix.j == 0 and ix.sigma == 1)
    coeff = np.zeros(basis.n_basis, complex)
    coeff[i] = math.sqrt(4 * math.pi)
    values = ws.synthesize(coeff)
    radii = np.array([0.7, 1.2, 2.0, math.pi])
    theta, centers = concentration_profile(values, 4.0, ws, radii)
    assert np.all(np.diff(theta) >= -1e-12)          # monotone exactly
    total = theta[-1]
    assert total == pytest.approx(4 * math.pi, rel=1e-10)
    for r, t in zip(radii[:-1], theta[:-1]):
        frac = (1 - math.cos(r)) / 2.0
        assert t / total == pytest.approx(frac, rel=0.02)


def test_concentration_profile_bubble_oracle():
    """Bubble mass fraction in a geodesic ball has the closed form
    T^2/(rho^2 + T^2), T = tan(r/2); the profile must reproduce it.  (This
    oracle puts the 90% capture radius near 6 rho: the quartic tail is heavy,
    so capture thresholds sit at several grid spacings.)"""
    ws = make_workspace(16, degree=96)
    rho = 0.1
    b, _ = bubble_to_sphere(Bubble(rho=rho), ws.basis)
    values = ws.synthesize(b.coeff)
    radii = np.array([0.2, 0.4, 0.8, math.pi])
    theta, _ = concentration_profile(values, 4.0, ws, radii)
    # at r = 2 rho the truncated peak is slightly smeared; looser bar there
    for r, t, tol in zip(radii[:-1], theta[:-1], (0.06, 0.03, 0.03)):
        T = math.tan(r / 2.0)
        frac = T**2 / (rho**2 + T**2)
        assert t / theta[-1] == pytest.approx(frac, abs=tol)


def _distance_matrix_profile(values, p, ws, radii):
    """The N^2 geodesic-distance-matrix path the ring correlation replaced,
    kept as the oracle, with concentration_profile's tie rule."""
    grid = ws.grid
    density = grid.weights * ws.fiber_norm_sq(values) ** (p / 2.0)
    dist = np.arccos(np.clip(grid.xyz @ grid.xyz.T, -1.0, 1.0))
    tie = reduction._TIE * density.sum()
    theta, centers = [], []
    for r in radii:
        masses = (dist <= r) @ density
        centers.append(int(np.argmax(masses >= masses.max() - tie)))
        theta.append(masses[centers[-1]])
    return np.array(theta), np.array(centers)


PROFILE_RADII = np.append(np.linspace(0.05, math.pi, 120)[::5], math.pi)


@pytest.mark.parametrize("degree", [30, 48, 49, 72])
@pytest.mark.parametrize("case", ["random", "ring_ties", "bubble", "polar_bubble"])
def test_concentration_profile_matches_distance_matrix(degree, case):
    """Ring correlation against the distance-matrix oracle: theta to 1e-13
    relative and the same centers, on odd and even n_phi.  Ring-constant
    values perturbed at 1e-14, a bubble at the pole and the radius pi make
    whole rings tie up to roundoff."""
    ws = make_workspace(degree // 3, degree=degree)
    rng = np.random.default_rng(degree)
    nt, nphi = ws.grid.n_theta, ws.grid.n_phi
    if case == "random":
        values = rng.normal(size=(ws.grid.n_nodes, 2)) + 1j * rng.normal(
            size=(ws.grid.n_nodes, 2))
    elif case == "ring_ties":
        rings = np.repeat(rng.normal(size=(nt, 1, 2)), nphi, axis=1)
        values = (rings * (1 + 1e-14 * rng.normal(size=(nt, nphi, 1)))).reshape(-1, 2)
    else:
        y = np.array([0.6, -0.3, 0.74] if case == "bubble" else [0.0, 0.0, 1.0])
        b, _ = bubble_to_sphere(Bubble(center=y, rho=0.15), ws.basis)
        values = ws.synthesize(b.coeff)
    theta, centers = concentration_profile(values, 4.0, ws, PROFILE_RADII)
    theta_o, centers_o = _distance_matrix_profile(values, 4.0, ws, PROFILE_RADII)
    assert np.all(np.abs(theta - theta_o) <= 1e-13 * theta_o)
    np.testing.assert_array_equal(centers, centers_o)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(degree=strategies.sampled_from([30, 31, 48, 49]),
       shift=strategies.integers(1, 200), seed=strategies.integers(0, 2**32 - 1))
def test_concentration_profile_longitude_roll_property(degree, shift, seed):
    """Rolling the density by whole longitude steps leaves theta bit-equal
    and moves every center by the same roll."""
    ws = make_workspace(degree // 3, degree=degree)
    nt, nphi = ws.grid.n_theta, ws.grid.n_phi
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(nt, nphi, 2)) + 1j * rng.normal(size=(nt, nphi, 2))
    radii = np.sort(rng.uniform(0.01, 2.0, size=6))
    theta, centers = concentration_profile(values.reshape(-1, 2), 4.0, ws, radii)
    rolled = np.roll(values, shift, axis=1).reshape(-1, 2)
    theta_r, centers_r = concentration_profile(rolled, 4.0, ws, radii)
    assert np.array_equal(theta_r, theta)
    ring, lon = np.divmod(centers, nphi)
    np.testing.assert_array_equal(centers_r, ring * nphi + (lon + shift) % nphi)


def test_barycenter_properties(ws8):
    basis = ws8.basis
    pole = np.array([0.0, 0.0, -1.0])
    # concentrated at the chart center -> barycenter near 0
    b, _ = bubble_to_sphere(Bubble(center=[0, 0, 1], rho=0.2), basis)
    vals = ws8.synthesize(b.coeff)
    bar = barycenter(vals, ws8, pole, clamp_radius=10.0)
    assert np.linalg.norm(bar) < 0.01
    # bubble at y -> zeta(S0(y)), and the clamp bounds the output
    y = np.array([0.6, 0.0, 0.8])
    target = chart_a_coords(y)
    b2, _ = bubble_to_sphere(Bubble(center=y, rho=0.1), basis)
    vals2 = ws8.synthesize(b2.coeff)
    bar2 = barycenter(vals2, ws8, pole, clamp_radius=10.0)
    assert np.hypot(bar2[0] - target.real, bar2[1] - target.imag) <= 0.05
    bar3 = barycenter(vals2, ws8, pole, clamp_radius=0.1)
    assert np.linalg.norm(bar3) <= 0.1 + 1e-12
    with pytest.raises(ValueError):
        barycenter(np.zeros_like(vals2), ws8, pole, clamp_radius=1.0)


def test_barycenter_sends_the_projection_pole_node_to_zero(ws8):
    """All the mass on a node at the projection pole: that node has no chart
    image, so it sits at zeta = 0, the mean of the clamp circle."""
    i = 5 * ws8.grid.xyz.shape[0] // 7
    vals = np.zeros((ws8.grid.xyz.shape[0], 2), complex)
    vals[i] = 1.0
    bar = barycenter(vals, ws8, ws8.grid.xyz[i], clamp_radius=1.0)
    assert bar[0] == 0.0 and bar[1] == 0.0


def _rotation_matrix_barycenter(values, ws, pole, clamp_radius):
    """The barycenter read through a 3x3 rotation matrix: the rotation
    taking -pole to the north pole along their great circle (the identity,
    or the half turn about the x1 axis, within 1e-14 of a pole in x3), then
    the chart-A coordinate of the rotated nodes."""
    y = -np.asarray(pole, dtype=float) / np.linalg.norm(pole)
    north = np.array([0.0, 0.0, 1.0])
    c = float(y @ north)
    if c > 1.0 - 1e-14:
        rotation = np.eye(3)
    elif c < -1.0 + 1e-14:
        rotation = np.diag([1.0, -1.0, -1.0])
    else:
        axis = np.cross(y, north)
        angle = math.atan2(float(np.linalg.norm(axis)), c)
        axis = axis / np.linalg.norm(axis)
        K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        rotation = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)
    xyz = ws.grid.xyz
    rotated = np.stack([xyz[:, 0] * row[0] + xyz[:, 1] * row[1] + xyz[:, 2] * row[2]
                        for row in rotation], axis=1)
    at_pole = rotated[:, 2] <= -1.0 + 1e-12
    z = np.where(at_pole, 0.0, rotated[:, 0] + 1j * rotated[:, 1]) / np.where(
        at_pole, 1.0, 1.0 + rotated[:, 2])
    pts = np.stack([z.real, z.imag], axis=1)
    r = np.linalg.norm(pts, axis=1)
    pts = pts * np.where(r > clamp_radius, clamp_radius / np.maximum(r, 1e-300),
                         1.0)[:, None]
    density = ws.grid.weights * ws.fiber_norm_sq(values) ** 2
    return np.array([np.sum(density * pts[:, k]) for k in range(2)]) / density.sum()


def test_barycenter_matches_rotation_matrix_chart(ws8):
    """The barycenter read through the SU(2) chart of ``chart_at`` agrees
    with the one read through a rotation matrix at 20 random poles, at the
    grid nodes nearest either pole, and at poles within 1e-7 of the north
    and south poles (inside and just outside the pole snap): to 1e-15 where
    the mass lies in the chart's unit disc.

    Both readings round their input, and the chart magnifies that by |zeta|
    in the direction of a point; clamped at c, a node's error is
    ~eps |zeta| min(|zeta|, c).  So the bound is 1e-15 max(1, kappa), with
    kappa the |psi|^4-mean of |zeta| min(|zeta|, c) over the nodes off the
    projection pole.  A pole 0.2 rad from the mass gives kappa ~ 33 and a
    difference of 1.05e-15; the readings are 5.6e-16 and 1.0e-15 off a
    40-digit reference there."""
    rng = np.random.default_rng(31)
    b, _ = bubble_to_sphere(Bubble(center=[0.6, 0.0, 0.8], rho=0.3), ws8.basis)
    vals = ws8.synthesize(b.coeff)
    density = ws8.grid.weights * ws8.fiber_norm_sq(vals) ** 2
    poles = list(rng.normal(size=(20, 3))) + [ws8.grid.xyz[0], ws8.grid.xyz[-1]]
    for dist in (0.0, 1e-8, 1e-7):
        for theta in (dist, math.pi - dist):
            poles.append(np.array([math.sin(theta) * math.cos(0.7),
                                   math.sin(theta) * math.sin(0.7), math.cos(theta)]))
    for pole in poles:
        zeta = np.abs(chart_at(-pole, ws8.grid.chart_a)[0])
        zeta = np.where(zeta ** 2 < 2e12, zeta, 0.0)   # the pole node sits at 0
        for clamp in (10.0, 0.5):
            kappa = np.sum(density * zeta * np.minimum(zeta, clamp)) / density.sum()
            got = barycenter(vals, ws8, pole, clamp)
            ref = _rotation_matrix_barycenter(vals, ws8, pole, clamp)
            assert np.abs(got - ref).max() <= 1e-15 * max(1.0, kappa), (pole, clamp)


def test_sup_norm_scale_reads_the_bubble_scale():
    """A bubble of scale rho has |psi|^2max = 1/(Q rho), so the monitor's
    rho_hat reads rho back from the peak node (criterion 8's bubbles: J=16,
    degree 72, constant Q); a node misses the peak, so below a few grid
    spacings rho_hat reads high, never low.  The node is the one nearest
    the centre."""
    ws = make_workspace(16, degree=72)
    y = np.array([0.6, 0.0, 0.8])
    nearest = ws.grid.xyz[int(np.argmax(ws.grid.xyz @ y))]
    scales = []
    for rho, expected in ((0.4, 0.4000), (0.25, 0.2503), (0.15, 0.1549),
                          (0.1, 0.1175)):
        b, _ = bubble_to_sphere(Bubble(center=y, rho=rho), ws.basis)
        rho_hat, node, _, _ = reduction._stage_diagnostics(
            ws.synthesize(b.coeff), ws, np.array([0.0, 0.0, -1.0]))
        assert rho_hat == pytest.approx(expected, abs=5e-4)
        assert rho_hat >= rho * (1 - 1e-4)
        assert np.array_equal(node, nearest)
        scales.append(rho_hat)
    assert all(b < a for a, b in zip(scales, scales[1:]))


def test_profile_distance_is_finite_below_the_transport_floor(ws8):
    """A fitted scale below the transport cap's rho = 0.016 is clamped to
    it, so the blow-up report holds a finite distance, not NaN."""
    y = np.array([0.6, 0.0, 0.8])
    psi, _ = bubble_to_sphere(Bubble(center=y, rho=0.2), ws8.basis)
    dist = reduction._bubble_profile_distance(psi.coeff, y, 0.01, 1.0, ws8)
    assert math.isfinite(dist) and 0.0 <= dist <= 2.0


def test_solve_never_rereduces_the_previous_point(ws8, monkeypatch):
    """A reduction is never repeated: no call starts at the previous call's u
    from the h that call returned (the projections hand their reductions to
    the outer loop, the stage row and the final result)."""
    calls = []
    inner = reduction.reduce_minus

    def recording(u, p, ws, v0=None, **kwargs):
        red = inner(u, p, ws, v0=v0, **kwargs)
        calls.append((np.array(u), None if v0 is None else np.array(v0), red.h))
        return red

    monkeypatch.setattr(reduction, "reduce_minus", recording)
    result = reduction.solve_continuation(
        ws8, [3.0, 3.5, 4.0], bubble_start(ws8, center=[0, 0, 1], rho=0.3, q_center=1.0))
    assert result.final_residual <= 1e-7
    for (u0, _, h0), (u1, v1, _) in zip(calls, calls[1:]):
        assert not (np.array_equal(u1, u0) and v1 is not None
                    and np.array_equal(v1, h0))


_THREAD_PROBE = """
import numpy as np
from diracsphere.energy import Workspace, constant_curvature
from diracsphere.geometry import _immersion, icosphere, nodal_analysis
from diracsphere.grid import QuadratureGrid
from diracsphere.reduction import barycenter
from diracsphere.spectral import SphereBasis, SpectralSpinor

grid = QuadratureGrid(degree=144)
ws = Workspace(SphereBasis(48), grid, constant_curvature())
rng = np.random.default_rng(5)
f = rng.random(grid.n_nodes)
values = rng.normal(size=(grid.n_nodes, 2)) + 1j * rng.normal(size=(grid.n_nodes, 2))
print(repr(complex(grid.integrate(f))), repr(complex(grid.integrate(values[:, 0]))))
print([repr(float(x)) for x in barycenter(values, ws, [0.3, -0.2, -1.0], 10.0)])

# the nodal polish: a state with zeros at both poles and a random J=8 state
ws8 = Workspace(SphereBasis(8), QuadratureGrid(degree=24), constant_curvature())
j1 = next(n for n, ix in enumerate(ws8.basis.indices) if ix.j == 1 and ix.sigma == 1 and ix.k == 1)
rng = np.random.default_rng(0)
n = ws8.basis.n_basis
for coeff in (np.where(np.arange(n) == j1, 2.0, 0j),
              (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.5 ** ws8.basis.j_arr):
    for c in nodal_analysis(SpectralSpinor(ws8.basis, coeff), ws8).candidates:
        print([repr(float(x)) for x in c.position], repr(c.value))

# the immersion vertices of a random J=8 state at 2 subdivisions
rng = np.random.default_rng(8)
psi = SpectralSpinor(ws8.basis, (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.5 ** ws8.basis.j_arr)
print(_immersion(psi, icosphere(2)[0])[0].tobytes().hex())
"""


def test_grid_sums_bit_equal_at_one_and_two_blas_threads():
    """On the degree-144 grid (the J=48 reference), integrals and the
    monitor's barycenter give the same bits at 1 and at 2 BLAS threads; so
    do the polished nodal candidates (positions and |psi|) of a J=8 state
    with zeros at both poles and of a random J=8 state, and the immersion
    vertices of another random J=8 state at 2 subdivisions."""
    src = str(Path(reduction.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    # two grid lines, the 2 + 3 polished candidates, then the immersion
    assert len(outputs[0].splitlines()) == 8
