import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracsphere.geometry import (ImmersionMesh, _chart_coords, _curvature_sums,
                                  _fiber_norm_at, _harmonic_analysis,
                                  _harmonic_synthesis, _immersion, _legendre,
                                  _refine_minimum, _weierstrass_dzbar,
                                  discrete_curvature, export_obj, export_ply,
                                  icosphere, mesh_edges, nodal_analysis,
                                  reconstruct_immersion, scal_identity_check)
from diracsphere import spectral
from diracsphere.grid import QuadratureGrid
from diracsphere.spectral import SpectralSpinor, SphereBasis
from conftest import random_spinor


@pytest.fixture(scope="module")
def killing_state(ws8):
    """Exact solution of D psi = |psi|^2 psi: a Killing spinor of unit length."""
    basis = ws8.basis
    coeff = np.zeros(basis.n_basis, complex)
    i = next(k for k, ix in enumerate(basis.indices) if ix.j == 0 and ix.sigma == 1)
    coeff[i] = math.sqrt(4 * math.pi)
    return SpectralSpinor(basis, coeff)


def test_nodal_killing(ws8, killing_state):
    rep = nodal_analysis(killing_state, ws8)
    assert rep.verdict == "zero-free"
    assert rep.min_psi_grid == pytest.approx(1.0, abs=1e-4)
    # bound = -1 + (4 pi)/(4 pi) = 0 < 1
    assert rep.zero_count_bound == pytest.approx(0.0, abs=1e-10)
    assert rep.window_chain


@pytest.mark.parametrize("k", [1, -2])
def test_nodal_engineered_zero(ws8, k):
    """A level-1 eigenspinor with angular index 1 or -2 vanishes linearly at
    both poles; the candidate search must localize the zeros within a grid
    cell, and the polish, from nodes read in chart A (north) and chart B
    (south), must land on each pole within 1e-12 with |psi| <= 1e-18."""
    basis = ws8.basis
    coeff = np.zeros(basis.n_basis, complex)
    i = next(n for n, ix in enumerate(basis.indices)
             if ix.j == 1 and ix.sigma == 1 and ix.k == k)
    coeff[i] = 2.0
    psi = SpectralSpinor(basis, coeff)
    rep = nodal_analysis(psi, ws8)
    assert rep.verdict in ("zeros", "inconclusive")
    assert rep.candidates
    best = min(rep.candidates, key=lambda c: c.value)
    north = np.array([0.0, 0.0, 1.0])
    assert math.acos(np.clip(best.position @ north, -1, 1)) <= ws8.grid.mean_spacing()
    assert best.vanishing_order == pytest.approx(1.0, abs=0.2)
    for pole in (north, -north):
        # the chord, not the arccos of a dot product that rounds to 1
        assert any(np.linalg.norm(c.position - pole) <= 1e-12 and c.value <= 1e-18
                   for c in rep.candidates), pole


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), ring=st.integers(0, 5), lon=st.integers(0, 24))
def test_polish_never_climbs(ws8, seed, ring, lon):
    """From a node in each hemisphere of the degree-24 grid (13 rings of 25
    nodes), the polish of a random J=8 state returns a unit vector, at which
    |psi| is the value it reports and no larger than at the node."""
    psi = SpectralSpinor(ws8.basis, random_spinor(ws8, np.random.default_rng(seed)))
    for r in (ring, 12 - ring):
        node = ws8.grid.xyz[25 * r + lon]
        xi, value = _refine_minimum(psi, node)
        assert abs(np.linalg.norm(xi) - 1.0) <= 1e-15
        assert value == pytest.approx(_fiber_norm_at(psi, xi)[0], rel=1e-12)
        assert value <= _fiber_norm_at(psi, node)[0] * (1.0 + 1e-15)


def test_polish_reads_psi_once_per_residual(ws8, monkeypatch):
    """Each Levenberg-Marquardt residual of the zero polish reads the value
    and both first Wirtinger derivatives in one ``evaluate`` call, on one
    radial pass: on a random J=8 state with polish candidates, every
    one-point call asks for the three orders, and there are as many
    one-point radial passes as calls."""
    calls, passes = [], []
    evaluate, radial = SphereBasis.evaluate, SphereBasis._radial_stage

    def counting_evaluate(self, coeff, z, *args):
        if np.size(z) == 1:
            calls.append(tuple(args[-1]))
        return evaluate(self, coeff, z, *args)

    def counting_radial(self, v, order):
        if v.size == 1:
            passes.append(order)
        return radial(self, v, order)

    monkeypatch.setattr(SphereBasis, "evaluate", counting_evaluate)
    monkeypatch.setattr(SphereBasis, "_radial_stage", counting_radial)
    psi = ws8.spinor(random_spinor(ws8, np.random.default_rng(0), decay=0.5))
    assert nodal_analysis(psi, ws8).candidates
    assert calls and len(passes) == len(calls)
    assert set(calls) == {((0, 0), (1, 0), (0, 1))}


def test_nodal_bound_monotone(ws8, killing_state):
    rep1 = nodal_analysis(killing_state, ws8)
    rep2 = nodal_analysis(SpectralSpinor(ws8.basis, 1.3 * killing_state.coeff), ws8)
    # bound increases with int Q^2 |psi|^4
    assert rep2.zero_count_bound > rep1.zero_count_bound


def test_scal_identity_killing(ws8, killing_state):
    rep = scal_identity_check(killing_state, ws8)
    assert rep.l1_residual <= 1e-6
    assert rep.pde_residual <= 1e-10


def test_scal_negative_control(ws8):
    rng = np.random.default_rng(20)
    psi = ws8.spinor(random_spinor(ws8, rng))
    with pytest.raises(ValueError):
        scal_identity_check(psi, ws8)          # not a solution
    rep = scal_identity_check(psi, ws8, require_solution=False)
    assert rep.l1_residual > 1e-2              # the identity is not an accident


def test_killing_spinor_connection_identity(ws8, killing_state):
    """nabla_X psi* = -1/2 X . psi* for the unit-spinor chart components;
    pins the spin connection sign used by the scal check.  The trivialized
    components are c = phi/f^{1/2}, the weighted ones divided by the
    conformal weight."""
    basis = ws8.basis
    grid = ws8.grid
    phi = basis.synthesize(killing_state.coeff, grid)
    d10 = np.tensordot(basis.evaluate_matrix(grid.z_pref, grid.use_a, (1, 0)),
                       killing_state.coeff, axes=([2], [0]))
    d01 = np.tensordot(basis.evaluate_matrix(grid.z_pref, grid.use_a, (0, 1)),
                       killing_state.coeff, axes=([2], [0]))
    z = grid.z_pref
    f = grid.f_pref
    c = phi / np.sqrt(f)[:, None]
    # d_k c = d_k phi / sqrt(f) - (1/2) phi f^{-3/2} d_k f, with d_k f = -x_k f^2
    d1_phi = d10 + d01
    d2_phi = 1j * (d10 - d01)
    d1f = -z.real * f**2
    d2f = -z.imag * f**2
    d1_c = d1_phi / np.sqrt(f)[:, None] - 0.5 * phi * (d1f / f**1.5)[:, None]
    d2_c = d2_phi / np.sqrt(f)[:, None] - 0.5 * phi * (d2f / f**1.5)[:, None]
    # round metric in the chart: e^{2v} = f^2, so d_k v = -x_k f
    d1v = -z.real * f
    d2v = -z.imag * f
    s3 = np.array([1.0, -1.0])
    n1 = d1_c + 0.5j * d2v[:, None] * (s3 * c)
    n2 = d2_c - 0.5j * d1v[:, None] * (s3 * c)
    # right side: -(1/2) X . c with X = partial_k of length e^v = f
    e1c = -1j * c[:, ::-1]
    e2c = np.stack([-c[:, 1], c[:, 0]], axis=1)
    assert np.abs(n1 + 0.5 * f[:, None] * e1c).max() <= 1e-10
    assert np.abs(n2 + 0.5 * f[:, None] * e2c).max() <= 1e-10


def test_willmore_killing_and_bound(ws8, killing_state):
    """W = int Q^2 |psi|^4, as the nodal report carries it."""
    W = nodal_analysis(killing_state, ws8).int_q2_psi4
    assert W == pytest.approx(4 * math.pi, abs=1e-10)
    assert W < 8 * math.pi
    # W <= Q_max int Q |psi|^4 (pointwise Q^2 <= Q_max Q)
    values = ws8.synthesize(killing_state.coeff)
    nsq = ws8.fiber_norm_sq(values)
    e4 = float(ws8.grid.integrate(ws8.q_nodes * nsq**2))
    assert W <= ws8.q_nodes.max() * e4 + 1e-12


def test_conformal_measure_spot_check(ws8, killing_state):
    # int Q^2 |psi|^4 dvol_round == int Q^2 dmu with dmu = |psi|^4 dvol:
    # identical sums on the same quadrature
    values = ws8.synthesize(killing_state.coeff)
    nsq = ws8.fiber_norm_sq(values)
    lhs = float(ws8.grid.integrate(ws8.q_nodes**2 * nsq**2))
    dmu = nsq**2 * ws8.grid.weights
    rhs = float(np.sum(ws8.q_nodes**2 * dmu))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_icosphere_counts():
    for k, nv in ((0, 12), (2, 162), (4, 2562)):
        verts, faces = icosphere(k)
        assert verts.shape[0] == nv
        assert faces.shape[0] == 20 * 4**k
        ne = mesh_edges(faces).shape[0]
        assert nv - ne + faces.shape[0] == 2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-14)


def _icosphere_loop(subdivisions):
    """Reference subdivision, one midpoint at a time: the edges ab, bc, ca
    of each face in order, a new vertex per edge not seen before."""
    verts, faces = icosphere(0)
    for _ in range(subdivisions):
        vlist, cache, new_faces = list(verts), {}, []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = vlist[i] + vlist[j]
                cache[key] = len(vlist)
                vlist.append(m / np.linalg.norm(m))
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts, faces = np.array(vlist), np.array(new_faces, dtype=faces.dtype)
    return verts, faces


def test_icosphere_matches_loop_reference():
    """The vectorised subdivision numbers vertices and faces as the loop
    does, with the same bits."""
    for k in range(5):
        verts, faces = icosphere(k)
        ref_v, ref_f = _icosphere_loop(k)
        assert verts.tobytes() == ref_v.tobytes() and faces.tobytes() == ref_f.tobytes()


def test_mesh_edges_match_row_unique():
    """The edges from one sort of the keys a * n + b are the sorted unique
    rows that np.unique(axis=0) gives, with the same bits."""
    for k in range(5):
        _, faces = icosphere(k)
        e = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        e.sort(axis=1)
        ref = np.unique(e, axis=0)
        got = mesh_edges(faces)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_mesh_edges_memory_is_bounded():
    """The traced peak of ``mesh_edges`` at 5 subdivisions (20480 faces) is
    at most 3 times the bytes of the edge list it returns: the keys are
    formed and sorted in place, and the rolled faces go before the sort."""
    faces = icosphere(5)[1]
    tracemalloc.start()
    try:
        edges = mesh_edges(faces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * edges.nbytes, (peak, edges.nbytes)


def test_round_sphere_reconstruction(ws8, killing_state):
    mesh = reconstruct_immersion(killing_state, ws8, subdivisions=4)
    assert mesh.vertices.shape[0] == 2562
    assert mesh.euler_characteristic == 2
    center = mesh.vertices.mean(axis=0)
    r = np.linalg.norm(mesh.vertices - center, axis=1)
    assert np.abs(r - 1.0).max() <= 1e-2           # radius 1/Q with Q = 1
    rel = mesh.mean_curvature - 1.0
    assert math.sqrt(np.mean(rel**2)) <= 0.02
    assert abs(mesh.gauss_bonnet_defect) <= 0.01 * 4 * math.pi
    assert mesh.edge_length_rel_error <= 0.02
    assert mesh.closure_defect <= 1e-8


def test_immersion_evaluates_off_grid_at_the_vertices_only(ws8, killing_state, monkeypatch):
    """The only off-grid evaluation is one at the mesh vertices (for the
    conformal factor), none along the edges: the Weierstrass form is
    sampled on the analysis grid."""
    report = nodal_analysis(killing_state, ws8)
    points = []
    inner = SphereBasis.evaluate

    def counted(self, coeff, z, *args, **kwargs):
        points.append(np.asarray(z).size)
        return inner(self, coeff, z, *args, **kwargs)

    monkeypatch.setattr(SphereBasis, "evaluate", counted)
    reconstruct_immersion(killing_state, ws8, subdivisions=4, nodal=report)
    assert points == [icosphere(4)[0].shape[0]]


def test_immersion_memory_is_bounded(ws8):
    """The traced peak of ``_immersion`` at 5 subdivisions (10242 vertices)
    exceeds its peak at 3 (642 vertices) by at most its outputs and 1 MB:
    the synthesis holds one block of points at a time."""
    psi = ws8.spinor(random_spinor(ws8, np.random.default_rng(32)))
    peaks = {}
    for subdivisions in (3, 5):
        verts = icosphere(subdivisions)[0]
        _immersion(psi, verts)
        tracemalloc.start()
        try:
            out, _ = _immersion(psi, verts)
            peaks[subdivisions] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[5] <= peaks[3] + out.nbytes + 2**20, (peaks, out.nbytes)


def test_curvature_memory_is_bounded():
    """The traced peak of ``discrete_curvature`` at 5 subdivisions (20480
    faces) exceeds its peak at 3 (1280 faces) by at most its outputs and
    1 MB: the corner pass holds one block of faces at a time, and no
    per-corner (F, 3, 3) array."""
    rng = np.random.default_rng(33)
    peaks = {}
    for subdivisions in (3, 5):
        verts, faces = icosphere(subdivisions)
        verts = verts * (1.0 + 0.05 * rng.normal(size=(len(verts), 1)))
        discrete_curvature(verts, faces)
        tracemalloc.start()
        try:
            H, _ = discrete_curvature(verts, faces)
            peaks[subdivisions] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[5] <= peaks[3] + H.nbytes + 2**20, (peaks, H.nbytes)


def test_block_size_does_not_move_a_bit(ws8, monkeypatch):
    """``discrete_curvature``, ``_immersion`` and ``SphereBasis.evaluate``
    give the same bytes with blocks of 1, 7 and more than all the faces or
    points: every face or point is computed on its own, and every sum runs
    in a fixed order."""
    rng = np.random.default_rng(34)
    psi = ws8.spinor(random_spinor(ws8, rng))
    verts, faces = icosphere(2)
    moved = verts * (1.0 + 0.05 * rng.normal(size=(len(verts), 1)))
    xyz = rng.normal(size=(40, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    use_a = xyz[:, 2] >= 0
    z = _chart_coords(xyz, use_a)

    def outputs():
        H, defect = discrete_curvature(moved, faces)
        F, closure = _immersion(psi, verts)
        values = psi.basis.evaluate(psi.coeff, z, use_a, ((0, 0), (1, 0), (0, 1), (1, 1)))
        return [a.tobytes() for a in (H, np.array([defect, closure]), F, *values)]

    reference = outputs()
    for block in (1, 7, len(faces) + 1):
        monkeypatch.setattr(spectral, "_BLOCK", block)
        assert outputs() == reference, block


def test_legendre_matches_scipy_harmonics():
    """lambda_lm(cos theta) e^{i m phi} is scipy's orthonormal Y_lm up to the
    Condon-Shortley sign (-1)^m, for l, m <= 20 at random points."""
    from scipy.special import sph_harm_y

    rng = np.random.default_rng(41)
    theta, phi = np.arccos(rng.uniform(-1, 1, 30)), rng.uniform(0, 2 * np.pi, 30)
    for m, P in _legendre(np.cos(theta), 20):
        for l in range(m, 21):
            ref = (-1) ** m * sph_harm_y(l, m, theta, phi)
            np.testing.assert_allclose(P[l - m] * np.exp(1j * m * phi), ref,
                                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("L", [1, 6, 13])
def test_harmonic_round_trip_is_exact_at_degree_l(L):
    """A random real field of degree L, synthesized at the nodes of the
    degree-2L grid, analyses back to its coefficients."""
    rng = np.random.default_rng(42 + L)
    grid = QuadratureGrid(2 * L)
    coeff = [rng.normal(size=(L - m + 1, 4)) for m in range(L + 1)]
    coeff[0][:, 1::2] = 0.0                 # m = 0 coefficients of a real field
    back = _harmonic_analysis(_harmonic_synthesis(coeff, grid.xyz, L), grid, L)
    for m in range(L + 1):
        np.testing.assert_allclose(back[m], coeff[m], rtol=0, atol=1e-12)


@pytest.mark.parametrize("J", [3, 4, 6])
def test_immersion_laplacian_has_degree_2j_plus_1(J):
    """(1 + |z|^2)^2 dzbar X_z of a random flat-spectrum state at truncation
    J has degree exactly L = 2J + 1, its real and imaginary parts alike, so
    the analysis of ``_immersion`` on the degree-2L grid is exact: analysed
    up to L + 3 on a finer grid, degree L carries power and none above it
    does."""
    basis, L = SphereBasis(J), 2 * J + 1
    grid = QuadratureGrid(2 * (L + 3))
    rng = np.random.default_rng(J)
    coeff = rng.normal(size=basis.n_basis) + 1j * rng.normal(size=basis.n_basis)
    lap = (4.0 / grid.f_pref ** 2)[:, None] * _weierstrass_dzbar(
        *basis.synthesize_derivatives(coeff, grid, ((0, 0), (1, 0), (0, 1))))
    for part in (lap.real, lap.imag):
        power = np.zeros(L + 4)
        for m, c in enumerate(_harmonic_analysis(part, grid, L + 3)):
            power[m:] += (2.0 if m else 1.0) * (c ** 2).sum(axis=1)
        assert power[L] >= 1e-6 * power.max()
        assert power[L + 1:].max() <= 1e-24 * power.max()


def test_immersion_edges_match_weierstrass_increments(perturbed_solution):
    """dz F = X_z: on the criterion-6 solution, every mesh edge vector is the
    Weierstrass increment 2 Re integral X_z dz along the chart segment of the
    edge (4-point Gauss rule, chart A when both ends have x3 >= 0, else
    chart B), to 1e-7 of the mesh diameter."""
    ws, result = perturbed_solution
    psi = result.psi
    mesh = reconstruct_immersion(psi, ws, subdivisions=3)
    edges = mesh_edges(mesh.faces)
    sphere_v = mesh.sphere_points
    north = (sphere_v[edges[:, 0], 2] >= 0) & (sphere_v[edges[:, 1], 2] >= 0)
    za, zb = (_chart_coords(sphere_v[end], north) for end in edges.T)
    t, w = np.polynomial.legendre.leggauss(4)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    vals, = psi.basis.evaluate(psi.coeff, za[:, None] + t * (zb - za)[:, None], north[:, None],
                               ((0, 0),))
    p1, c2 = vals[..., 0], np.conj(vals[..., 1])
    xz = np.stack([0.5j * (p1**2 - c2**2), -0.5 * (p1**2 + c2**2), -1j * p1 * c2], axis=-1)
    incr = 2.0 * np.real((zb - za)[:, None] * np.tensordot(xz, w, axes=([1], [0])))
    got = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    diameter = np.ptp(mesh.vertices, axis=0).max()
    assert np.abs(got - incr).max() <= 1e-7 * diameter


def _laplacian_density(coeff, basis, z, use_a):
    """(1 + |z|^2)^2 dzbar X_z at chart points z, the field read in chart A
    where ``use_a``."""
    parts = basis.evaluate(coeff, z, use_a, ((0, 0), (1, 0), (0, 1)))
    return ((1.0 + np.abs(z) ** 2) ** 2)[:, None] * _weierstrass_dzbar(*parts)


def test_weierstrass_form_is_chart_independent(ws8):
    """(1 + |z|^2)^2 dzbar X_z is one function on the sphere: under the
    chart-B gauge phi_B(w) = diag(iz, -i zbar) phi_A(z), w = 1/z, its value
    at w equals its value at z, for any spinor, since X_w dw = X_z dz."""
    rng = np.random.default_rng(13)
    coeff = random_spinor(ws8, rng)
    z = np.sqrt(rng.uniform(0.2, 5.0, 50)) * np.exp(2j * np.pi * rng.uniform(size=50))
    xa = _laplacian_density(coeff, ws8.basis, z, True)
    xb = _laplacian_density(coeff, ws8.basis, 1.0 / z, False)
    np.testing.assert_allclose(xb, xa, rtol=0, atol=1e-12 * np.abs(xa).max())


def test_reconstruction_refuses_zero_state(ws8):
    basis = ws8.basis
    coeff = np.zeros(basis.n_basis, complex)
    i = next(k for k, ix in enumerate(basis.indices)
             if ix.j == 1 and ix.sigma == 1 and ix.k == 1)
    coeff[i] = 2.0
    with pytest.raises(ValueError):
        reconstruct_immersion(SpectralSpinor(basis, coeff), ws8, subdivisions=2)


def test_cotangent_estimator_on_spheres():
    verts, faces = icosphere(3)
    for radius in (1.0, 2.5):
        H, _ = discrete_curvature(radius * verts, faces)
        assert np.abs(H - 1.0 / radius).max() <= 0.01 / radius


def _cot(u, v):
    return np.sum(u * v, axis=1) / np.maximum(np.linalg.norm(np.cross(u, v), axis=1),
                                              1e-300)


def _add_at_curvature(verts, faces):
    """The mixed areas, vertex normal sums and cotangent sums K accumulated
    by one ``np.add.at`` per corner (and per end of an edge), in the order
    the library's per-vertex sums must reproduce."""
    nv = verts.shape[0]
    area, vn, K = np.zeros(nv), np.zeros((nv, 3)), np.zeros((nv, 3))
    fn = np.cross(verts[faces[:, 1]] - verts[faces[:, 0]],
                  verts[faces[:, 2]] - verts[faces[:, 0]])
    for corner in range(3):
        p, q, r = (verts[faces[:, (corner + i) % 3]] for i in range(3))
        e1, e2 = q - p, r - p
        tri = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
        other = ((np.sum((p - q) * (r - q), axis=1) < 0)
                 | (np.sum((p - r) * (q - r), axis=1) < 0))
        vor = (np.sum(e1 * e1, axis=1) * _cot(p - r, q - r)
               + np.sum(e2 * e2, axis=1) * _cot(r - q, p - q)) / 8.0
        np.add.at(area, faces[:, corner], np.where(
            np.sum(e1 * e2, axis=1) < 0, tri / 2.0, np.where(other, tri / 4.0, vor)))
    for corner in range(3):
        np.add.at(vn, faces[:, corner], fn)
    for corner in range(3):
        a, b, c = (faces[:, (corner + i) % 3] for i in range(3))
        cot_c = _cot(verts[a] - verts[c], verts[b] - verts[c])
        diff = verts[a] - verts[b]
        np.add.at(K, a, 0.5 * cot_c[:, None] * diff)
        np.add.at(K, b, -0.5 * cot_c[:, None] * diff)
    return area, vn, K


def test_vertex_sums_are_bit_equal_to_add_at():
    """On a perturbed subdivisions-4 icosphere, the mixed areas, the vertex
    normals and the mean curvature have the bytes of per-corner
    ``np.add.at`` accumulation."""
    verts, faces = icosphere(4)
    verts = verts * (1.0 + 0.05 * np.random.default_rng(7).normal(size=(len(verts), 1)))
    area, vn, K = _add_at_curvature(verts, faces)
    got_area, got_normals, got_K, _ = _curvature_sums(verts, faces)
    assert got_area.tobytes() == area.tobytes()
    centroid = verts.mean(axis=0)
    vn = -vn if np.sum(vn * (verts - centroid)) < 0 else vn
    normals = vn / np.maximum(np.linalg.norm(vn, axis=1, keepdims=True), 1e-300)
    assert got_normals.tobytes() == normals.tobytes()
    assert got_K.tobytes() == K.tobytes()
    H = np.sum(K / (2.0 * area[:, None]) * normals, axis=1)
    assert discrete_curvature(verts, faces)[0].tobytes() == H.tobytes()


def _per_corner_mixed_areas(verts, faces):
    """Mixed areas with every corner's vectors, dot and cross products and
    cotangents computed where each is used."""
    contribs = []
    vi = verts[faces]
    for corner in range(3):
        p, q, r = (vi[:, (corner + i) % 3] for i in range(3))
        e1, e2 = q - p, r - p
        tri_area = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
        obtuse_p = np.sum(e1 * e2, axis=1) < 0
        obtuse_other = ((np.sum((p - q) * (r - q), axis=1) < 0)
                        | (np.sum((p - r) * (q - r), axis=1) < 0))
        vor = (np.sum(e1 * e1, axis=1) * _cot(p - r, q - r)
               + np.sum(e2 * e2, axis=1) * _cot(r - q, p - q)) / 8.0
        contribs.append(np.where(obtuse_p, tri_area / 2.0,
                                 np.where(obtuse_other, tri_area / 4.0, vor)))
    index, weights = faces.T.ravel(), np.concatenate(contribs)
    return np.bincount(index, weights, minlength=verts.shape[0])


def _per_corner_normals(verts, faces):
    fn = np.cross(verts[faces[:, 1]] - verts[faces[:, 0]],
                  verts[faces[:, 2]] - verts[faces[:, 0]])
    vn = np.stack([np.bincount(faces.T.ravel(), w, minlength=verts.shape[0])
                   for w in np.tile(fn, (3, 1)).T], axis=1)
    if np.sum(vn * (verts - verts.mean(axis=0))) < 0:
        vn = -vn
    return vn / np.maximum(np.linalg.norm(vn, axis=1, keepdims=True), 1e-300)


def _per_corner_mean_curvature(verts, faces):
    index, terms = [], []
    for corner in range(3):
        a, b, c = (faces[:, (corner + i) % 3] for i in range(3))
        cot_c = _cot(verts[a] - verts[c], verts[b] - verts[c])
        diff = verts[a] - verts[b]
        index += [a, b]
        terms += [0.5 * cot_c[:, None] * diff, -0.5 * cot_c[:, None] * diff]
    index, terms = np.concatenate(index), np.concatenate(terms)
    K = np.stack([np.bincount(index, w, minlength=verts.shape[0]) for w in terms.T],
                 axis=1)
    K /= 2.0 * _per_corner_mixed_areas(verts, faces)[:, None]
    return np.sum(K * _per_corner_normals(verts, faces), axis=1)


@pytest.mark.parametrize("seed", [0, 1])
def test_corner_pass_is_bit_equal_to_per_corner_estimator(seed):
    """One pass over the face corners gives the mixed areas, normals and
    mean curvature of the per-corner estimator, byte for byte, on a
    subdivisions-4 icosphere moved off the sphere and along it until
    hundreds of its corners are obtuse, and on its mirror image."""
    verts, faces = icosphere(4)
    rng = np.random.default_rng(seed)
    verts = (verts * (1.0 + 0.05 * rng.normal(size=(len(verts), 1)))
             + 0.02 * rng.normal(size=verts.shape))
    vi = verts[faces]
    obtuse = np.sum((np.roll(vi, -1, axis=1) - vi) * (np.roll(vi, -2, axis=1) - vi),
                    axis=2) < 0
    assert obtuse.sum() > 500
    for v in (verts, -verts):
        area, normals, _, _ = _curvature_sums(v, faces)
        assert area.tobytes() == _per_corner_mixed_areas(v, faces).tobytes()
        assert normals.tobytes() == _per_corner_normals(v, faces).tobytes()
        assert (discrete_curvature(v, faces)[0].tobytes()
                == _per_corner_mean_curvature(v, faces).tobytes())


def _arccos_gauss_bonnet(verts, faces):
    """Total angle defect minus 4 pi, each corner angle the arccos of its
    normalized edge dot product, summed corner by corner."""
    total = 2.0 * math.pi * verts.shape[0]
    for corner in range(3):
        p, q, r = (verts[faces[:, (corner + i) % 3]] for i in range(3))
        u, v = q - p, r - p
        cosang = np.sum(u * v, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        total -= np.sum(np.arccos(np.clip(cosang, -1, 1)))
    return total - 4.0 * math.pi


def test_corner_pass_gauss_bonnet_matches_arccos_angles():
    """The Gauss-Bonnet defect from the corner pass's atan2 angles agrees
    with the per-corner arccos sum to 1e-9 on a subdivisions-4 icosphere
    moved off the sphere and along it, and both are roundoff: a closed
    triangle mesh of genus 0 has total angle defect 4 pi exactly."""
    verts, faces = icosphere(4)
    rng = np.random.default_rng(3)
    verts = (verts * (1.0 + 0.05 * rng.normal(size=(len(verts), 1)))
             + 0.02 * rng.normal(size=verts.shape))
    _, defect = discrete_curvature(verts, faces)
    assert abs(defect - _arccos_gauss_bonnet(verts, faces)) <= 1e-9
    assert abs(defect) <= 1e-9


def read_obj(path):
    """Vertices and 0-based faces of an OBJ file."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(x) for x in line.split()[1:4]])
            elif line.startswith("f "):
                faces.append([int(x.split("/")[0]) - 1 for x in line.split()[1:4]])
    return np.array(verts), np.array(faces, dtype=int)


def read_ply(path):
    """Vertices, faces and the per-vertex scalar columns of a binary PLY file
    as ``export_ply`` writes it."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:head_end].decode()
    nv = int([l for l in header.splitlines() if l.startswith("element vertex")][0].split()[-1])
    nf = int([l for l in header.splitlines() if l.startswith("element face")][0].split()[-1])
    vbytes = nv * 6 * 8
    vdata = np.frombuffer(data[head_end:head_end + vbytes], dtype="<f8").reshape(nv, 6)
    faces = np.empty((nf, 3), dtype=int)
    off = head_end + vbytes
    for i in range(nf):
        cnt = data[off]
        off += 1
        faces[i] = np.frombuffer(data[off:off + 4 * cnt], dtype="<i4")
        off += 4 * cnt
    return vdata[:, :3].copy(), faces, vdata[:, 3:].copy()


def _export_ply_loop(path, mesh):
    """Reference PLY writer: the header, the vertex block, and each face
    record joined one at a time."""
    nv, nf = mesh.vertices.shape[0], mesh.faces.shape[0]
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "comment diracsphere immersion mesh\n"
        f"element vertex {nv}\n"
        "property float64 x\nproperty float64 y\nproperty float64 z\n"
        "property float64 conf_factor\nproperty float64 mean_curvature\n"
        "property float64 target_q\n"
        f"element face {nf}\n"
        "property list uchar int32 vertex_indices\nend_header\n"
    )
    vdata = np.hstack([mesh.vertices, mesh.conf_factor[:, None],
                       mesh.mean_curvature[:, None], mesh.target_q[:, None]])
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(vdata.astype("<f8").tobytes())
        counts = np.full((nf, 1), 3, dtype=np.uint8)
        fh.write(b"".join(counts[i].tobytes() + mesh.faces[i].astype("<i4").tobytes()
                          for i in range(nf)))


def test_export_ply_matches_loop_writer(tmp_path):
    """The packed face records give the bytes of the per-face loop."""
    verts, faces = icosphere(4)
    rng = np.random.default_rng(5)
    mesh = ImmersionMesh(vertices=verts + 0.1 * rng.normal(size=verts.shape),
                         faces=faces, sphere_points=verts,
                         conf_factor=rng.uniform(size=len(verts)),
                         mean_curvature=rng.normal(size=len(verts)),
                         target_q=rng.normal(size=len(verts)),
                         gauss_bonnet_defect=0.0, closure_defect=0.0,
                         edge_length_rel_error=0.0,
                         euler_characteristic=2)
    export_ply(tmp_path / "a.ply", mesh)
    _export_ply_loop(tmp_path / "b.ply", mesh)
    assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()


def test_mesh_io_round_trip(tmp_path, ws8, killing_state):
    mesh = reconstruct_immersion(killing_state, ws8, subdivisions=2)
    obj = tmp_path / "m.obj"
    ply = tmp_path / "m.ply"
    export_obj(obj, mesh)
    export_ply(ply, mesh)
    v1, f1 = read_obj(obj)
    assert np.array_equal(v1, mesh.vertices)       # repr round trip, bit exact
    assert np.array_equal(f1, mesh.faces)
    v2, f2, attrs = read_ply(ply)
    assert np.array_equal(v2, mesh.vertices)
    assert np.array_equal(f2, mesh.faces)
    assert np.array_equal(attrs[:, 1], mesh.mean_curvature)
    header = ply.read_bytes()[:400].decode(errors="ignore")
    assert "mean_curvature" in header and "float64" in header


def test_closedness_defect_on_solution(ws8, killing_state):
    """For an exact solution dzbar X_z is real at every point (X_z dz is
    closed), and the immersion's closure defect over its grid vanishes."""
    z = 0.7 * np.exp(1j * np.linspace(0, 6.0, 25))
    comps = _laplacian_density(killing_state.coeff, ws8.basis, z, True)
    assert (np.abs(comps.imag).sum(axis=-1) / np.abs(comps).sum(axis=-1)).max() <= 1e-12
    assert _immersion(killing_state, icosphere(1)[0])[1] <= 1e-12


def test_scal_identity_caches_no_derivative_tables(ws8):
    """The derivatives come from ring maps built for the call and dropped
    after it (``synthesize_derivatives``), so the basis keeps only the
    synthesis table of its grid."""
    rng = np.random.default_rng(21)
    psi = ws8.spinor(random_spinor(ws8, rng))
    scal_identity_check(psi, ws8, require_solution=False)
    assert list(ws8.basis._matrix_cache) == [ws8.grid.degree]
