"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The two continuation solves (constant Q at J=12, perturbed
Q = 1 + 0.3 x3^2 at J=16) are session fixtures shared with the unit tests.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from diracsphere.conformal import Bubble, StereoChart, bubble_energy_flat, bubble_to_sphere
from diracsphere.energy import check_q_hypothesis, eval_A, eval_L, eval_rayleigh
from diracsphere.geometry import (gauss_bonnet_defect, nodal_analysis,
                                  reconstruct_immersion, scal_identity_check,
                                  willmore)
from diracsphere.grid import QuadratureGrid
from diracsphere.reduction import (barycenter, concentration_profile,
                                   estimate_tau, nehari_project, reduce_minus)
from diracsphere.spectral import SphereBasis, dirac_apply, dirac_multiplicity
from conftest import (hessian_quadratic_form, make_workspace, random_spinor,
                      rayleigh_grad)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def _h_pair(ws, a, b):
    return float(np.sum(ws.basis.abs_eigenvalues * np.real(a * np.conj(b))))


def test_criterion_1_spectral_correctness():
    with criterion(1, "eigenpairs, multiplicities and Gram matrix at j <= 5"):
        basis = SphereBasis(5)
        grid = QuadratureGrid(degree=18)
        for j in range(6):
            for sigma in (1, -1):
                members = [ix for ix in basis.indices
                           if ix.j == j and ix.sigma == sigma]
                assert len(members) == 2 * (j + 1) == dirac_multiplicity(2, j)
        S = basis.evaluate_matrix(grid.z_pref, grid.use_a)
        wf = (grid.weights / grid.f_pref)[:, None, None]
        G = np.tensordot(np.conj(S) * wf, S, axes=([0, 1], [0, 1]))
        assert np.abs(G - np.eye(basis.n_basis)).max() <= 1e-10
        Dz = basis.evaluate_matrix(grid.z_pref, grid.use_a, deriv=(1, 0))
        Dzb = basis.evaluate_matrix(grid.z_pref, grid.use_a, deriv=(0, 1))
        Dphi = np.empty_like(S)
        Dphi[:, 0, :] = -2j * Dz[:, 1, :]
        Dphi[:, 1, :] = -2j * Dzb[:, 0, :]
        resid = Dphi / grid.f_pref[:, None, None] - S * basis.eigenvalues
        r = np.sqrt(np.einsum("n,nci->i", grid.weights / grid.f_pref,
                              np.abs(resid) ** 2).real)
        assert r.max() <= 1e-8


def test_criterion_2_bubble_laws():
    with criterion(2, "flat bubble energy 4pi and transported PDE residual at J=16"):
        for rho in (0.5, 1.0, 2.0):
            quad, _ = bubble_energy_flat(2, rho)
            assert abs(quad - 4 * math.pi) <= 1e-6
        basis = SphereBasis(16)
        y = np.array([0.3, -0.5, 0.81])
        y /= np.linalg.norm(y)
        q = 1.2
        # rho = 0.6: the truncation tail at J = 16 sits below the budget
        psi, _ = bubble_to_sphere(Bubble(center=y, rho=0.6, q_center=q), basis)
        grid = QuadratureGrid(degree=48)
        vals = basis.synthesize(psi.coeff, grid)
        Dvals = basis.synthesize(dirac_apply(psi).coeff, grid)
        nsq = np.sum(np.abs(vals) ** 2, axis=1) / grid.f_pref
        resid = Dvals - q * nsq[:, None] * vals
        r = math.sqrt(abs(float(grid.integrate(
            np.sum(np.abs(resid) ** 2, axis=1) / grid.f_pref))))
        assert r <= 1e-6


def test_criterion_3_variational_structure(ws8):
    with criterion(3, "gradients, reduction bound, concavity, Nehari root, "
                      "convexity inequality"):
        rng = np.random.default_rng(1234)
        # (a) finite-difference agreement for L_p and R_p
        worst = 0.0
        for _ in range(20):
            p = 2.6 + 1.4 * rng.random()
            a = random_spinor(ws8, rng)
            d = random_spinor(ws8, rng)
            rep = eval_L(a, p, ws8)
            h = 1e-4
            fd = (eval_L(a + h * d, p, ws8).value
                  - eval_L(a - h * d, p, ws8).value) / (2 * h)
            worst = max(worst, abs(fd - _h_pair(ws8, rep.grad, d))
                        / max(abs(fd), 1e-12))
            g = rayleigh_grad(a, p, ws8)
            fr = (eval_rayleigh(a + h * d, p, ws8)
                  - eval_rayleigh(a - h * d, p, ws8)) / (2 * h)
            worst = max(worst, abs(fr - _h_pair(ws8, g, d)) / max(abs(fr), 1e-12))
        assert worst <= 1e-5
        # (b) reduction bound on 100 seeded random directions
        for _ in range(100):
            p = 2.6 + 1.4 * rng.random()
            u = np.where(ws8.basis.plus_mask, random_spinor(ws8, rng), 0.0)
            red = reduce_minus(u, p, ws8)
            hn2 = float(np.sum(ws8.basis.abs_eigenvalues * np.abs(red.h) ** 2))
            assert hn2 <= (2.0 / p) * eval_A(u, p, ws8) + 1e-10
        # (c) concavity probe on E^-
        p = 3.5
        u = np.where(ws8.basis.plus_mask, random_spinor(ws8, rng), 0.0)
        v = np.where(ws8.basis.minus_mask, random_spinor(ws8, rng), 0.0)
        psi_values = ws8.synthesize(u + v)
        for _ in range(20):
            w = np.where(ws8.basis.minus_mask, random_spinor(ws8, rng), 0.0)
            wn2 = float(np.sum(ws8.basis.abs_eigenvalues * np.abs(w) ** 2))
            assert hessian_quadratic_form(psi_values, p, ws8, w) <= -wn2 + 1e-6
        # (d) unique Nehari root with negative second derivative
        st = nehari_project(u, p, ws8)
        assert st.ray_second_derivative < 0
        unorm = u / math.sqrt(float(np.sum(
            ws8.basis.abs_eigenvalues * np.abs(u) ** 2)))
        ts = np.linspace(0.25, 4.0, 40) * st.t * math.sqrt(float(np.sum(
            ws8.basis.abs_eigenvalues * np.abs(u) ** 2)))
        h = None
        slopes = []
        for t in ts:
            red = reduce_minus(t * unorm, p, ws8, v0=h)
            h = red.h
            slopes.append(_h_pair(ws8, red.grad, unorm))
        signs = np.sign(slopes)
        assert np.count_nonzero(np.diff(signs) != 0) == 1   # single crossing
        # (e) convexity inequality on 100 random pairs (shared routine)
        from test_energy import test_convexity_inequality_tech1
        test_convexity_inequality_tech1(ws8)


def test_criterion_4_tau_monotone_and_value(ws12):
    with criterion(4, "sampled F_p non-increasing in p; p=4 infimum at 2 sqrt(pi); "
                      "bubble samples within 2% at rho = 0.1"):
        rng = np.random.default_rng(2024)
        samples = [np.where(ws12.basis.plus_mask, random_spinor(ws12, rng), 0.0)
                   for _ in range(3)]
        b, _ = bubble_to_sphere(Bubble(rho=0.5), ws12.basis)
        samples.append(np.where(ws12.basis.plus_mask, b.coeff, 0.0))
        prev = None
        est4 = None
        for p in (3.0, 3.5, 3.9, 4.0):
            est = estimate_tau(p, ws12, samples)
            if prev is not None:
                assert np.all(est.values_normalized <= prev + 1e-8)
            prev = est.values_normalized
            est4 = est
        target = 2 * math.sqrt(math.pi)
        assert est4.minimum >= target - 1e-3
        basis20 = SphereBasis(20)
        ws20 = make_workspace(20, degree=60)
        for rho, tol in ((0.25, 0.02), (0.1, 0.02)):
            bb, _ = bubble_to_sphere(Bubble(rho=rho), basis20)
            u = np.where(basis20.plus_mask, bb.coeff, 0.0)
            est = estimate_tau(4.0, ws20, [u])
            assert abs(est.minimum - target) <= tol * target


def test_criterion_5_exact_solve_constant_q(const_solution):
    with criterion(5, "constant-Q continuation reaches the Killing solution and "
                      "the unit round sphere"):
        ws, result = const_solution
        assert result.final_residual <= 1e-6
        psi = result.psi
        values = ws.synthesize(psi.coeff)
        nsq = ws.fiber_norm_sq(values)
        assert abs(float(ws.grid.integrate(nsq**2)) - 4 * math.pi) <= 1e-3
        assert np.abs(np.sqrt(nsq) - 1.0).max() <= 1e-4
        W, embedded = willmore(psi, ws)
        assert abs(W - 4 * math.pi) <= 1e-3 and W < 8 * math.pi and embedded
        nodal = nodal_analysis(psi, ws)
        assert nodal.verdict == "zero-free"
        mesh = reconstruct_immersion(psi, ws, subdivisions=4, nodal=nodal)
        assert mesh.vertices.shape[0] >= 2500
        center = mesh.vertices.mean(axis=0)
        radial = np.linalg.norm(mesh.vertices - center, axis=1)
        assert np.abs(radial - 1.0).max() <= 1e-2
        rel = mesh.mean_curvature - 1.0
        assert math.sqrt(float(np.mean(rel**2))) <= 0.02
        assert abs(gauss_bonnet_defect(mesh.vertices, mesh.faces)) \
            <= 0.01 * 4 * math.pi


def test_criterion_6_perturbed_q(perturbed_solution, perturbed_q):
    with criterion(6, "Q = 1 + 0.3 x3^2: hypothesis report, energy window, "
                      "embeddedness, mesh curvature within 5%"):
        hyp = check_q_hypothesis(perturbed_q)
        assert hyp.q_max == pytest.approx(1.3, abs=1e-9)
        assert len(hyp.max_points) == 2
        for p in hyp.max_points:
            # nondegenerate maxima: the Hessian of -Q is positive definite
            assert p.kind == "max" and max(p.hess_eigs) < -1e-3
        ws, result = perturbed_solution
        assert result.final_residual <= 1e-6
        psi = result.psi
        values = ws.synthesize(psi.coeff)
        nsq = ws.fiber_norm_sq(values)
        e4 = float(ws.grid.integrate(ws.q_nodes * nsq**2))
        assert 4 * math.pi / 1.3 < e4 < 8 * math.pi / 1.3
        W, embedded = willmore(psi, ws)
        assert W < 8 * math.pi and embedded
        nodal = nodal_analysis(psi, ws)
        assert nodal.verdict == "zero-free"
        mesh = reconstruct_immersion(psi, ws, subdivisions=4, nodal=nodal)
        rel = (mesh.mean_curvature - mesh.target_q) / mesh.target_q
        assert math.sqrt(float(np.mean(rel**2))) <= 0.05


def test_criterion_7_scal_identity(const_solution, perturbed_solution):
    with criterion(7, "scalar-curvature identity: exact case <= 1e-6, "
                      "perturbed case <= 1e-3 in L1"):
        ws_c, res_c = const_solution
        rep_c = scal_identity_check(res_c.psi, ws_c, require_solution=False)
        assert rep_c.l1_residual <= 1e-6
        ws_p, res_p = perturbed_solution
        rep_p = scal_identity_check(res_p.psi, ws_p, require_solution=False)
        assert rep_p.l1_residual <= 1e-3


def test_criterion_8_blowup_monitor():
    with criterion(8, "synthetic bubbles: 90% capture radius shrinks and the "
                      "barycenter converges to the chart image of the center"):
        ws = make_workspace(16, degree=72)
        y = np.array([0.6, 0.0, 0.8])
        y /= np.linalg.norm(y)
        pole = np.array([0.0, 0.0, -1.0])
        chart0 = StereoChart(center=-pole)
        target = chart0.to_plane(y[None])[0]
        radii = np.linspace(0.05, math.pi, 120)
        capture = []
        bary_err = []
        for rho in (0.4, 0.25, 0.15, 0.1):
            b, rep = bubble_to_sphere(Bubble(center=y, rho=rho), ws.basis)
            assert rep.truncation_loss < 0.01
            vals = ws.synthesize(b.coeff)
            theta, _ = concentration_profile(vals, 4.0, ws, radii)
            total = theta[-1]
            rstar = radii[np.nonzero(theta >= 0.9 * total)[0][0]]
            capture.append(float(rstar))
            bar = barycenter(vals, ws, pole, clamp_radius=10.0)
            bary_err.append(float(np.hypot(bar[0] - target.real,
                                           bar[1] - target.imag)))
        assert all(b < a for a, b in zip(capture, capture[1:]))
        assert bary_err[-1] <= 0.05


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "fixed seeds give bit-identical trace and state files"):
        from diracsphere.cli import main

        cfg = {
            "schema_version": 1, "J": 8,
            "Q": {"family": "polynomial",
                  "terms": [[0, 0, 0, 1.0], [0, 0, 2, 0.3]]},
            "schedule": [3.0, 3.5, 4.0],
            "init": {"type": "bubble", "rho": 0.35, "center": [0.0, 0.0, 1.0]},
            "tolerances": {"final": 1e-6}, "seed": 7,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path), "--output", str(tmp_path / "a")]) == 0
        assert main(["solve", str(path), "--output", str(tmp_path / "b")]) == 0
        for name in ("trace.csv", "state.txt"):
            ba = (tmp_path / "a" / name).read_bytes()
            bb = (tmp_path / "b" / name).read_bytes()
            assert ba == bb
