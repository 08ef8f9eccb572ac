"""Post-solution geometry: nodal sets, curvature identities, immersion.

A nowhere-vanishing solution psi of D psi = Q |psi|^2 psi turns into geometry
through the conformal metric g1 = |psi|^4 g_sphere.  In a chart, with
weighted components phi of psi, g1 = e^{2v} g_flat with e^v = |phi|^2, and
the unit-length spinor of g1 has flat-weighted components equal to phi
itself.  Consequences used here:

* scalar curvature of g1: Scal = -2 e^{-2v} Delta_flat v, all derivatives of
  v = log |phi|^2 exact through the chart calculus;
* the spin connection of e^{2v} g_flat in these trivializations is
  nabla_{d1} = d1 + (i/2)(d2 v) s3, nabla_{d2} = d2 - (i/2)(d1 v) s3 with
  s3 = diag(1,-1) (the sign is pinned by the round Killing spinor identity,
  covered in the tests);
* the immersion with mean curvature Q integrates the closed 1-form
  X_z = ( (i/2)(phi_1^2 - conj(phi_2)^2),
          -(1/2)(phi_1^2 + conj(phi_2)^2),
          -i phi_1 conj(phi_2) ),
  X = 2 Re integral X_z dz, whose induced metric is |phi|^4 |dz|^2 = g1.
  The chart-B gauge makes X_w dw = X_z dz, so one spanning tree of the
  icosphere integrates the form over the whole sphere, each edge read in
  chart A when both its ends have x3 >= 0 and in chart B otherwise.  The
  reconstruction is validated a posteriori (period closure over the
  non-tree edges, seam-crossing cycles included; g1 edge lengths;
  round-sphere exactness; discrete mean curvature against Q); it determines
  the surface up to a rigid congruence of R^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import Workspace, _tangent_frame
from .grid import chart_a_coords, chart_b_coords, conformal_factor
from .spectral import SpectralSpinor, dirac_apply

# -- nodal analysis -----------------------------------------------------------


@dataclass
class NodalCandidate:
    position: np.ndarray
    value: float                # refined |psi| at the minimum
    vanishing_order: float      # slope fit of log|psi| against log distance


@dataclass
class NodalReport:
    min_psi_grid: float
    candidates: list
    zero_count_bound: float     # gamma - 1 + int Q^2 |psi|^4 / (4 pi), gamma = 0
    int_q_psi4: float           # int Q |psi|^4
    int_q2_psi4: float          # int Q^2 |psi|^4, the Willmore energy
    window_chain: bool          # int Q |psi|^4 < 8 pi / Q_max
    verdict: str                # 'zero-free' | 'zeros' | 'inconclusive'
    note: str = ""


def _chart_coords(xyz, use_a) -> np.ndarray:
    """Chart-A coordinates of the points where ``use_a``, chart-B ones
    elsewhere."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # each pole is singular only in the chart it is not read in
        return np.where(use_a, chart_a_coords(xyz), chart_b_coords(xyz))


def _fiber_norm_at(psi: SpectralSpinor, xyz) -> np.ndarray:
    """|psi| at arbitrary sphere points, read like the grid nodes: chart A
    where x3 >= 0, chart B elsewhere."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    north = xyz[:, 2] >= 0
    z = _chart_coords(xyz, north)
    vals = psi.basis.evaluate(psi.coeff, z, north)
    return np.sqrt(np.sum(np.abs(vals) ** 2, axis=-1) / conformal_factor(z))


def _refine_minimum(psi: SpectralSpinor, xi0, spread: float) -> np.ndarray:
    """Nelder-Mead polish of a local minimum of |psi| around xi0."""
    from scipy.optimize import minimize

    xi0 = np.asarray(xi0, dtype=float)
    (e1,), (e2,) = _tangent_frame(xi0[None])

    def fun(s):
        xi = xi0 + s[0] * e1 + s[1] * e2
        xi = xi / np.linalg.norm(xi)
        return float(_fiber_norm_at(psi, xi[None])[0])

    res = minimize(fun, np.zeros(2), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 300,
                            "initial_simplex": np.array(
                                [[0, 0], [spread, 0], [0, spread]])})
    xi = xi0 + res.x[0] * e1 + res.x[1] * e2
    return xi / np.linalg.norm(xi)


def nodal_analysis(psi: SpectralSpinor, ws: Workspace) -> NodalReport:
    """Zero-count bound and a numerical zero search for a converged solution
    on S^2 (genus 0)."""
    values = ws.synthesize(psi.coeff)
    nsq = ws.fiber_norm_sq(values)
    q4 = float(ws.grid.integrate(ws.q_nodes**2 * nsq**2))
    e4 = float(ws.grid.integrate(ws.q_nodes * nsq**2))
    q_max = float(ws.q_nodes.max())
    bound = -1.0 + q4 / (4.0 * math.pi)
    window_chain = e4 < 8.0 * math.pi / q_max

    # the median as the middle of the sorted values: np.median has the same
    # bits but imports numpy.ma on first use
    ordered = np.sort(nsq)
    mid = ordered.size // 2
    median = ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    scale = math.sqrt(float(median))
    min_grid = math.sqrt(max(float(nsq.min()), 0.0))
    spacing = ws.grid.mean_spacing()
    candidates = []
    if scale > 0:
        # a transversal zero sampled one node away already reads O(spacing),
        # so the sweep includes everything below a generous fraction (0.35)
        # of the median plus the global minimum node; refinement sorts them out
        idx = set(np.nonzero(np.sqrt(nsq) < 0.35 * scale)[0].tolist())
        if min_grid < 0.6 * scale:
            idx.add(int(np.argmin(nsq)))
        idx = sorted(idx)
        seen = []
        for i in idx:
            xi = ws.grid.xyz[i]
            if any(np.arccos(np.clip(xi @ s, -1, 1)) < 2 * spacing for s in seen):
                continue
            seen.append(xi)
            xi_ref = _refine_minimum(psi, xi, spread=spacing)
            val = float(_fiber_norm_at(psi, xi_ref[None])[0])
            dists = spacing * np.array([0.25, 0.5, 1.0, 2.0])
            order = _vanishing_order(psi, xi_ref, dists)
            candidates.append(NodalCandidate(xi_ref, val, order))

    confirmed = [c for c in candidates if c.value < 1e-6 * scale]
    unresolved = [c for c in candidates if 1e-6 * scale <= c.value < 1e-3 * scale]
    note = ""
    if bound < 1.0 - 1e-9:
        verdict = "zero-free"
        if confirmed:
            note = ("numerical zeros found although the energy bound excludes "
                    "them; inconsistent state, check convergence")
            verdict = "inconclusive"
    elif confirmed:
        verdict = "zeros"
    elif unresolved:
        verdict = "inconclusive"
        note = (f"{len(unresolved)} candidate minima below 1e-3 of scale remain "
                "unresolved; refine the grid or truncation")
    else:
        verdict = "zero-free"
    return NodalReport(min_psi_grid=min_grid, candidates=candidates,
                       zero_count_bound=bound, int_q_psi4=e4, int_q2_psi4=q4,
                       window_chain=window_chain,
                       verdict=verdict, note=note)


def _vanishing_order(psi, xi, dists):
    """Slope of log |psi| against log distance, over rings of four points."""
    xi = np.asarray(xi, dtype=float)
    (e1,), (e2,) = _tangent_frame(xi[None])
    ang = np.array([0.0, 1.57, 3.14, 4.71])[:, None]
    ring = np.cos(ang) * e1 + np.sin(ang) * e2
    d = np.asarray(dists, dtype=float)[:, None, None]
    pts = xi * np.cos(d) + ring * np.sin(d)
    samples = _fiber_norm_at(psi, pts.reshape(-1, 3)).reshape(len(dists), -1)
    samples = np.maximum(samples.mean(axis=1), 1e-300)
    return float(np.polyfit(np.log(dists), np.log(samples), 1)[0])


# -- scalar curvature identity --------------------------------------------------


@dataclass
class ScalReport:
    l1_residual: float          # mean of |lhs - rhs| over the sphere
    pde_residual: float         # L2 residual of D psi = Q |psi|^2 psi


def scal_identity_check(psi: SpectralSpinor, ws: Workspace,
                        require_solution: bool = True) -> ScalReport:
    """Residual of  Scal_{g1} = 2 Q^2 - 4 sum_k |nabla^Q_{e_k} phi|^2  for the
    unit spinor phi of g1 = |psi|^4 g, all terms by exact chart calculus.

    With ``require_solution``, raises ValueError if psi vanishes on the grid
    or its PDE residual exceeds 1e-4."""
    basis, grid = ws.basis, ws.grid
    values = basis.synthesize(psi.coeff, grid)
    nsq_sphere = ws.fiber_norm_sq(values)
    min_psi = math.sqrt(max(float(nsq_sphere.min()), 0.0))
    Dv = basis.synthesize(dirac_apply(psi).coeff, grid)
    pde = Dv - ws.q_nodes[:, None] * nsq_sphere[:, None] * values
    pde_res = math.sqrt(abs(float(grid.integrate(ws.fiber_norm_sq(pde)))))
    if require_solution:
        if min_psi <= 0:
            raise ValueError("unit spinor undefined: psi vanishes on the grid")
        if pde_res > 1e-4:
            raise ValueError(
                f"psi is not a solution (PDE residual {pde_res:.2e} > 0.0001)")

    d10, d01, d11 = basis.synthesize_derivatives(psi.coeff, grid)

    phi = values
    nf = np.sum(np.abs(phi) ** 2, axis=1)          # e^v = |phi|^2, chartwise
    dz_nf = np.sum(d10 * np.conj(phi) + phi * np.conj(d01), axis=1)
    dzb_nf = np.conj(dz_nf)
    dzzb_nf = np.sum(2.0 * np.real(d11 * np.conj(phi))
                     + np.abs(d10) ** 2 + np.abs(d01) ** 2, axis=1)
    lap_v = 4.0 * np.real(dzzb_nf * nf - dz_nf * dzb_nf) / nf**2
    scal = -2.0 * lap_v / nf**2

    # unit spinor c = phi/|phi| and its flat derivatives
    root = np.sqrt(nf)
    c = phi / root[:, None]
    d1_phi = d10 + d01
    d2_phi = 1j * (d10 - d01)
    d1_nf = 2.0 * np.real(dz_nf)
    d2_nf = -2.0 * np.imag(dz_nf)
    d1_c = d1_phi / root[:, None] - phi * (d1_nf / (2 * nf * root))[:, None]
    d2_c = d2_phi / root[:, None] - phi * (d2_nf / (2 * nf * root))[:, None]
    # spin connection of e^{2v} g_flat; v-derivatives
    d1_v = d1_nf / nf
    d2_v = d2_nf / nf
    s3 = np.array([1.0, -1.0])
    n1 = d1_c + 0.5j * d2_v[:, None] * (s3 * c)
    n2 = d2_c - 0.5j * d1_v[:, None] * (s3 * c)
    # nabla^Q over the unit frame
    q = ws.q_nodes
    e1c, e2c = _frame_action(c)
    g1 = n1 / nf[:, None] + 0.5 * q[:, None] * e1c
    g2 = n2 / nf[:, None] + 0.5 * q[:, None] * e2c
    rhs = 2.0 * q**2 - 4.0 * (np.sum(np.abs(g1) ** 2, axis=1)
                              + np.sum(np.abs(g2) ** 2, axis=1))
    resid = np.abs(scal - rhs)
    l1 = float(grid.integrate(resid)) / (4.0 * math.pi)
    return ScalReport(l1_residual=l1, pde_residual=pde_res)


def _frame_action(c):
    """(e1 . c, e2 . c) for spinors c (n, 2), in the package's one Clifford
    representation e_k . = -i sigma_k; i e1 e2 = sigma_3 splits c into its
    +/- half-spinor components, as the chart Dirac operator assumes."""
    return -1j * c[:, ::-1], np.stack([-c[:, 1], c[:, 0]], axis=1)


# -- Willmore energy -------------------------------------------------------------


def willmore(psi: SpectralSpinor, ws: Workspace) -> tuple[float, bool]:
    """W = integral Q^2 |psi|^4 dvol and the Li-Yau embeddedness flag W < 8 pi."""
    values = ws.synthesize(psi.coeff)
    nsq = ws.fiber_norm_sq(values)
    w = float(ws.grid.integrate(ws.q_nodes**2 * nsq**2))
    return w, w < 8.0 * math.pi


# -- triangulated sphere ---------------------------------------------------------


def icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Icosahedron subdivided ``subdivisions`` times, vertices on the unit
    sphere; 10*4^n + 2 vertices, deterministic ordering, outward winding."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=int)
    for _ in range(subdivisions):
        # the edges ab, bc, ca of every face in order; a new vertex is
        # numbered by the first appearance of its edge
        ends = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)
        ends.sort(axis=1)
        _, first, inverse = np.unique(ends[:, 0] * len(verts) + ends[:, 1],
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(len(verts), len(verts) + len(order))
        a, b, c = faces.T
        ab, bc, ca = number[inverse].reshape(-1, 3).T
        m = verts[ends[first[order], 0]] + verts[ends[first[order], 1]]
        # the norm as a stacked matmul keeps the bits of a per-vertex dot product
        m /= np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0])
        verts = np.vstack([verts, m])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return verts, faces


def mesh_edges(faces) -> np.ndarray:
    """The distinct edges (a, b), a < b, of a triangle mesh, sorted by
    rows: one sort of the keys a * n + b."""
    e = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    e.sort(axis=1)
    n = int(faces.max()) + 1
    key = np.unique(e[:, 0] * n + e[:, 1])
    return np.stack([key // n, key % n], axis=1)


# -- Weierstrass integration ------------------------------------------------------


def _weierstrass_form(vals) -> np.ndarray:
    """X_z of chart values phi, last axis the three components."""
    p1, p2 = vals[..., 0], vals[..., 1]
    c2 = np.conj(p2)
    return np.stack([0.5j * (p1**2 - c2**2),
                     -0.5 * (p1**2 + c2**2),
                     -1j * p1 * c2], axis=-1)


def closedness_defect(psi: SpectralSpinor, z, use_a) -> float:
    """Relative size of Im dzbar(X_z): zero for exact solutions, the
    consistency pre-check before integrating the 1-form."""
    vals, d10, d01 = (psi.basis.evaluate(psi.coeff, z, use_a, d)
                      for d in ((0, 0), (1, 0), (0, 1)))
    p1, p2 = vals[..., 0], vals[..., 1]
    dzb_p1, dz_p2 = d01[..., 0], d10[..., 1]
    comps = np.stack([
        0.5j * (2 * p1 * dzb_p1 - 2 * np.conj(p2) * np.conj(dz_p2)),
        -0.5 * (2 * p1 * dzb_p1 + 2 * np.conj(p2) * np.conj(dz_p2)),
        -1j * (dzb_p1 * np.conj(p2) + p1 * np.conj(dz_p2)),
    ], axis=-1)
    scale = np.maximum(np.abs(comps).sum(axis=-1), 1e-300)
    return float((np.abs(comps.imag).sum(axis=-1) / scale).max())


# 4-point Gauss-Legendre rule on [0, 1] for integrals along mesh edges
_EDGE_T, _EDGE_W = np.polynomial.legendre.leggauss(4)
_EDGE_T, _EDGE_W = 0.5 * (_EDGE_T + 1.0), 0.5 * _EDGE_W


def _edge_integrals(psi: SpectralSpinor, sphere_v, edges):
    """Weierstrass increments 2 Re integral X_z dz and g1 lengths of the mesh
    edges, from one evaluation at their Gauss points.  An edge is read in
    chart A when both its ends have x3 >= 0, else in chart B; the gauge
    phi_B(w) = diag(iz, -i zbar) phi_A(z), w = 1/z, makes X_w dw = X_z dz,
    so both charts give the same form."""
    north = (sphere_v[edges[:, 0], 2] >= 0) & (sphere_v[edges[:, 1], 2] >= 0)
    za, zb = (_chart_coords(sphere_v[end], north) for end in edges.T)
    dz = zb - za
    pts = za[:, None] + _EDGE_T[None, :] * dz[:, None]
    vals = psi.basis.evaluate(psi.coeff, pts, north[:, None])
    xz = np.tensordot(_weierstrass_form(vals), _EDGE_W, axes=([1], [0]))
    incr = 2.0 * np.real(dz[:, None] * xz)
    glen = (np.sum(np.abs(vals) ** 2, axis=-1) @ _EDGE_W) * np.abs(dz)
    return incr, glen


def _spanning_tree(nv, edges, incr, root):
    """Positions from a BFS spanning tree rooted at ``root`` (at the origin)
    that sums the edge increments; the closure defect is the largest
    mismatch over the non-tree edges.  The BFS runs one level at a time: a
    new vertex hangs from the first vertex of the level, in BFS order, that
    reaches it, each vertex's edges taken in index order, as a
    vertex-at-a-time BFS over adjacency lists in edge order would pick."""
    ne = edges.shape[0]
    # half-edge h runs edge h forward (h < ne) or edge h - ne backward
    src, dst = edges.T.ravel(), edges[:, ::-1].T.ravel()
    by_src = np.lexsort((np.arange(2 * ne) % ne, src))   # a vertex's, by edge
    start = np.searchsorted(src[by_src], np.arange(nv + 1))
    pos = np.zeros((nv, 3))
    seen = np.zeros(nv, dtype=bool)
    tree = np.zeros(ne, dtype=bool)
    seen[root] = True
    level = np.array([root])
    while level.size:
        # the level's half-edges to unseen vertices, in that order
        count = start[level + 1] - start[level]
        first_slot = np.repeat(start[level] - np.cumsum(count) + count, count)
        h = by_src[first_slot + np.arange(count.sum())]
        h = h[~seen[dst[h]]]
        _, first = np.unique(dst[h], return_index=True)
        h = h[np.sort(first)]
        level, ei = dst[h], h % ne
        seen[level] = tree[ei] = True
        pos[level] = pos[src[h]] + np.where(h < ne, 1.0, -1.0)[:, None] * incr[ei]
    gap = np.linalg.norm(pos[edges[:, 0]] + incr - pos[edges[:, 1]], axis=1)
    return pos, float(gap[~tree].max())


@dataclass
class ImmersionMesh:
    vertices: np.ndarray
    faces: np.ndarray
    sphere_points: np.ndarray
    conf_factor: np.ndarray      # |psi|^4 per vertex
    mean_curvature: np.ndarray   # discrete cotangent estimate
    target_q: np.ndarray
    closure_defect: float
    edge_length_rel_error: float  # RMS of (mesh length - g1 length) / g1 length
    closedness_precheck: float

    def euler_characteristic(self) -> int:
        ne = mesh_edges(self.faces).shape[0]
        return self.vertices.shape[0] - ne + self.faces.shape[0]


def reconstruct_immersion(psi: SpectralSpinor, ws: Workspace,
                          subdivisions: int = 4,
                          nodal: NodalReport | None = None) -> ImmersionMesh:
    """Integrate the Weierstrass form along one spanning tree of the
    icosphere, rooted at its north vertex, each edge read by the chart rule
    of ``_edge_integrals``.

    Requires a zero-free solution (pass its NodalReport, or one is computed);
    refuses otherwise since the conformal factor degenerates at zeros.
    """
    if nodal is None:
        nodal = nodal_analysis(psi, ws)
    if nodal.verdict != "zero-free":
        raise ValueError(f"immersion needs a zero-free solution "
                         f"(nodal verdict: {nodal.verdict}; {nodal.note})")
    sphere_v, faces = icosphere(subdivisions)
    edges = mesh_edges(faces)

    pre = closedness_defect(psi, 0.9 * np.exp(1j * np.linspace(0, 6.2, 40)), True)

    incr, glen = _edge_integrals(psi, sphere_v, edges)
    verts, closure = _spanning_tree(sphere_v.shape[0], edges, incr,
                                    int(np.argmax(sphere_v[:, 2])))
    verts -= verts.mean(axis=0)
    elen = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    rel = (elen - glen) / glen

    conf = _fiber_norm_at(psi, sphere_v) ** 4
    target_q = np.asarray(ws.Q.evaluate(sphere_v), dtype=float)
    H = cotangent_mean_curvature(verts, faces)
    return ImmersionMesh(vertices=verts, faces=faces, sphere_points=sphere_v,
                         conf_factor=conf, mean_curvature=H, target_q=target_q,
                         closure_defect=closure,
                         edge_length_rel_error=float(np.sqrt(np.mean(rel**2))),
                         closedness_precheck=pre)


# -- discrete curvature -----------------------------------------------------------


def _vertex_sums(nv: int, index, weights) -> np.ndarray:
    """Per-vertex sums of the rows of ``weights`` (n,) or (n, d), added in the
    order of ``index``: one ``np.bincount`` per coordinate, which rounds
    like ``np.add.at`` over the same order."""
    if weights.ndim == 1:
        return np.bincount(index, weights, minlength=nv)
    return np.stack([np.bincount(index, w, minlength=nv) for w in weights.T], axis=1)


def _mixed_voronoi_areas(verts, faces) -> np.ndarray:
    """Meyer et al. mixed areas: Voronoi for non-obtuse triangles, else
    T/2 at the obtuse corner and T/4 at the others."""
    contribs = []
    vi = verts[faces]
    for corner in range(3):
        p = vi[:, corner]
        q = vi[:, (corner + 1) % 3]
        r = vi[:, (corner + 2) % 3]
        e1, e2 = q - p, r - p
        cross = np.cross(e1, e2)
        tri_area = 0.5 * np.linalg.norm(cross, axis=1)
        cos_p = np.sum(e1 * e2, axis=1)
        cos_q = np.sum((p - q) * (r - q), axis=1)
        cos_r = np.sum((p - r) * (q - r), axis=1)
        obtuse_p = cos_p < 0
        obtuse_other = (cos_q < 0) | (cos_r < 0)
        # Voronoi part: (|e1|^2 cot(angle at r) + |e2|^2 cot(angle at q)) / 8
        def cot(a, b, c):
            # angle at a between b-a, c-a
            u, v = b - a, c - a
            num = np.sum(u * v, axis=1)
            den = np.linalg.norm(np.cross(u, v), axis=1)
            return num / np.maximum(den, 1e-300)
        vor = (np.sum(e1 * e1, axis=1) * cot(r, p, q)
               + np.sum(e2 * e2, axis=1) * cot(q, r, p)) / 8.0
        contribs.append(np.where(obtuse_p, tri_area / 2.0,
                                 np.where(obtuse_other, tri_area / 4.0, vor)))
    return _vertex_sums(verts.shape[0], faces.T.ravel(), np.concatenate(contribs))


def vertex_normals(verts, faces) -> np.ndarray:
    fn = np.cross(verts[faces[:, 1]] - verts[faces[:, 0]],
                  verts[faces[:, 2]] - verts[faces[:, 0]])
    vn = _vertex_sums(verts.shape[0], faces.T.ravel(), np.tile(fn, (3, 1)))
    # orient outward from the centroid (winding may flip under reflections)
    centroid = verts.mean(axis=0)
    score = np.sum(vn * (verts - centroid))
    if score < 0:
        vn = -vn
    return vn / np.maximum(np.linalg.norm(vn, axis=1, keepdims=True), 1e-300)


def cotangent_mean_curvature(verts, faces) -> np.ndarray:
    """Signed discrete mean curvature: cotangent Laplacian with mixed Voronoi
    areas, sign from the outward vertex normal (sphere of radius r gives 1/r)."""
    index, terms = [], []
    for corner in range(3):
        a = faces[:, corner]
        b = faces[:, (corner + 1) % 3]
        c = faces[:, (corner + 2) % 3]
        u = verts[a] - verts[c]
        v = verts[b] - verts[c]
        cot_c = np.sum(u * v, axis=1) / np.maximum(
            np.linalg.norm(np.cross(u, v), axis=1), 1e-300)
        diff = verts[a] - verts[b]
        index += [a, b]
        terms += [0.5 * cot_c[:, None] * diff, -0.5 * cot_c[:, None] * diff]
    K = _vertex_sums(verts.shape[0], np.concatenate(index), np.concatenate(terms))
    area = _mixed_voronoi_areas(verts, faces)
    K /= 2.0 * area[:, None]
    normals = vertex_normals(verts, faces)
    return np.sum(K * normals, axis=1)


def gauss_bonnet_defect(verts, faces) -> float:
    """Total angle defect minus 4 pi (should vanish for a sphere mesh)."""
    total = 2.0 * math.pi * verts.shape[0]
    for corner in range(3):
        p = verts[faces[:, corner]]
        q = verts[faces[:, (corner + 1) % 3]]
        r = verts[faces[:, (corner + 2) % 3]]
        u, v = q - p, r - p
        cosang = np.sum(u * v, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        total -= np.sum(np.arccos(np.clip(cosang, -1, 1)))
    return total - 4.0 * math.pi


# -- mesh I/O ---------------------------------------------------------------------


def export_obj(path, mesh: ImmersionMesh) -> None:
    """OBJ with float64 repr positions; per-vertex scalars go into trailing
    '# vertexdata i conf_factor mean_curvature target_q' comment lines."""
    with open(path, "w") as fh:
        fh.write("# diracsphere immersion mesh\n")
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0]+1} {f[1]+1} {f[2]+1}\n")
        for i in range(mesh.vertices.shape[0]):
            fh.write(f"# vertexdata {i} {float(mesh.conf_factor[i])!r} "
                     f"{float(mesh.mean_curvature[i])!r} "
                     f"{float(mesh.target_q[i])!r}\n")


def export_ply(path, mesh: ImmersionMesh) -> None:
    """Binary little-endian PLY, float64 positions plus the three per-vertex
    scalar properties (conf_factor, mean_curvature, target_q)."""
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
        # one packed record per face: the count 3 and the three indices
        body = np.empty(nf, dtype=[("count", "u1"), ("vertex_indices", "<i4", (3,))])
        body["count"] = 3
        body["vertex_indices"] = mesh.faces
        fh.write(body.tobytes())
