import math

import numpy as np
import pytest

from diracsphere.geometry import (ImmersionMesh, _mixed_voronoi_areas,
                                  _spanning_tree, _weierstrass_form,
                                  closedness_defect,
                                  cotangent_mean_curvature, export_obj,
                                  export_ply, gauss_bonnet_defect, icosphere,
                                  mesh_edges, nodal_analysis,
                                  reconstruct_immersion, scal_identity_check,
                                  vertex_normals, willmore)
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


def test_nodal_engineered_zero(ws8):
    """A level-1 eigenspinor with angular index 1 vanishes linearly at the
    north pole; the candidate search must localize it within a grid cell."""
    basis = ws8.basis
    coeff = np.zeros(basis.n_basis, complex)
    i = next(k for k, ix in enumerate(basis.indices)
             if ix.j == 1 and ix.sigma == 1 and ix.k == 1)
    coeff[i] = 2.0
    psi = SpectralSpinor(basis, coeff)
    rep = nodal_analysis(psi, ws8)
    assert rep.verdict in ("zeros", "inconclusive")
    assert rep.candidates
    best = min(rep.candidates, key=lambda c: c.value)
    north = np.array([0.0, 0.0, 1.0])
    assert math.acos(np.clip(best.position @ north, -1, 1)) <= ws8.grid.mean_spacing()
    assert best.vanishing_order == pytest.approx(1.0, abs=0.2)


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
    W, embedded = willmore(killing_state, ws8)
    assert W == pytest.approx(4 * math.pi, abs=1e-10)
    assert embedded
    # W <= Q_max int Q |psi|^4 (pointwise Q^2 <= Q_max Q)
    values = ws8.synthesize(killing_state.coeff)
    nsq = ws8.fiber_norm_sq(values)
    e4 = float(ws8.grid.integrate(ws8.q_nodes * nsq**2))
    assert W <= ws8.q_nodes.max() * e4 + 1e-12
    # the nodal report carries the same integral, which the CLI reports
    assert nodal_analysis(killing_state, ws8).int_q2_psi4 == W


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


def _spanning_tree_loop(nv, edges, incr, root):
    """Reference BFS, one vertex at a time over adjacency lists in edge
    order."""
    adj = [[] for _ in range(nv)]
    for ei, (a, b) in enumerate(edges.tolist()):
        adj[a].append((b, ei, 1.0))
        adj[b].append((a, ei, -1.0))
    pos = np.zeros((nv, 3))
    seen = np.zeros(nv, dtype=bool)
    tree = np.zeros(edges.shape[0], dtype=bool)
    seen[root] = True
    order = [root]
    for a in order:
        for b, ei, sgn in adj[a]:
            if not seen[b]:
                seen[b] = tree[ei] = True
                pos[b] = pos[a] + sgn * incr[ei]
                order.append(b)
    gap = np.linalg.norm(pos[edges[:, 0]] + incr - pos[edges[:, 1]], axis=1)
    return pos, float(gap[~tree].max())


def test_spanning_tree_matches_vertex_loop():
    """The level-at-a-time BFS picks the loop's tree: the same positions,
    bit for bit, and the same closure defect, for random increments."""
    rng = np.random.default_rng(8)
    for k in range(5):
        verts, faces = icosphere(k)
        edges = mesh_edges(faces)
        incr = rng.normal(size=(len(edges), 3))
        for root in (int(np.argmax(verts[:, 2])), 0, len(verts) - 1):
            pos, gap = _spanning_tree(len(verts), edges, incr, root)
            ref_pos, ref_gap = _spanning_tree_loop(len(verts), edges, incr, root)
            assert pos.tobytes() == ref_pos.tobytes() and gap == ref_gap


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


def test_round_sphere_reconstruction(ws8, killing_state):
    mesh = reconstruct_immersion(killing_state, ws8, subdivisions=4)
    assert mesh.vertices.shape[0] == 2562
    assert mesh.euler_characteristic() == 2
    center = mesh.vertices.mean(axis=0)
    r = np.linalg.norm(mesh.vertices - center, axis=1)
    assert np.abs(r - 1.0).max() <= 1e-2           # radius 1/Q with Q = 1
    rel = mesh.mean_curvature - 1.0
    assert math.sqrt(np.mean(rel**2)) <= 0.02
    assert abs(gauss_bonnet_defect(mesh.vertices, mesh.faces)) <= 0.01 * 4 * math.pi
    assert mesh.edge_length_rel_error <= 0.02
    assert mesh.closure_defect <= 1e-8
    assert mesh.closedness_precheck <= 1e-10


def test_immersion_evaluates_each_edge_once(ws8, killing_state, monkeypatch):
    """One evaluation at the Gauss points of every edge, plus the vertices
    and the 120-point closedness pre-check; no second chart patch."""
    report = nodal_analysis(killing_state, ws8)
    points = []
    inner = SphereBasis.evaluate

    def counted(self, coeff, z, *args, **kwargs):
        points.append(np.asarray(z).size)
        return inner(self, coeff, z, *args, **kwargs)

    monkeypatch.setattr(SphereBasis, "evaluate", counted)
    reconstruct_immersion(killing_state, ws8, subdivisions=4, nodal=report)
    verts, faces = icosphere(4)
    n_edges = mesh_edges(faces).shape[0]
    assert sum(points) <= 4 * n_edges + verts.shape[0] + 120


def test_weierstrass_form_is_chart_independent(ws8):
    """X_w dw = X_z dz under the chart-B gauge phi_B(w) = diag(iz, -i zbar)
    phi_A(z), w = 1/z, for any spinor: dw = -dz / z^2."""
    rng = np.random.default_rng(13)
    coeff = random_spinor(ws8, rng)
    z = np.sqrt(rng.uniform(0.2, 5.0, 50)) * np.exp(2j * np.pi * rng.uniform(size=50))
    xa = _weierstrass_form(ws8.basis.evaluate(coeff, z, True))
    xb = _weierstrass_form(ws8.basis.evaluate(coeff, 1.0 / z, False))
    np.testing.assert_allclose(xb * (-1.0 / z**2)[:, None], xa,
                               rtol=0, atol=1e-12 * np.abs(xa).max())


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
        H = cotangent_mean_curvature(radius * verts, faces)
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
    assert _mixed_voronoi_areas(verts, faces).tobytes() == area.tobytes()
    centroid = verts.mean(axis=0)
    vn = -vn if np.sum(vn * (verts - centroid)) < 0 else vn
    normals = vn / np.maximum(np.linalg.norm(vn, axis=1, keepdims=True), 1e-300)
    assert vertex_normals(verts, faces).tobytes() == normals.tobytes()
    H = np.sum(K / (2.0 * area[:, None]) * normals, axis=1)
    assert cotangent_mean_curvature(verts, faces).tobytes() == H.tobytes()


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
                         target_q=rng.normal(size=len(verts)), closure_defect=0.0,
                         edge_length_rel_error=0.0, closedness_precheck=0.0)
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
    z = 0.7 * np.exp(1j * np.linspace(0, 6.0, 25))
    assert closedness_defect(killing_state, z, True) <= 1e-12


def test_scal_identity_caches_no_derivative_tables(ws8):
    """The derivatives come from ring maps built for the call and dropped
    after it (``synthesize_derivatives``), so the basis keeps only the
    synthesis table of its grid."""
    rng = np.random.default_rng(21)
    psi = ws8.spinor(random_spinor(ws8, rng))
    scal_identity_check(psi, ws8, require_solution=False)
    assert list(ws8.basis._matrix_cache) == [ws8.grid.degree]
