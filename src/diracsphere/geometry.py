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
  The chart-B gauge makes X_w dw = X_z dz, so in either chart
  Delta_S X = (1 + |z|^2)^2 dzbar X_z, of degree 2J + 1 at truncation J: X
  is one Poisson solve in spherical harmonics, exact on a Gauss grid of
  twice that degree (Driscoll & Healy, Adv. Appl. Math. 15, 1994).  The
  reconstruction is validated a posteriori (Im dzbar X_z over the grid; g1
  edge lengths; round-sphere exactness; discrete mean curvature against
  Q); it determines the surface up to a rigid congruence of R^3.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .energy import Workspace, _tangent_frame
from .grid import QuadratureGrid, chart_a_coords, chart_b_coords, conformal_factor
from . import spectral
from .spectral import SpectralSpinor, _row_matmul, dirac_apply

# -- nodal analysis -----------------------------------------------------------


class NodalCandidate(NamedTuple):
    position: np.ndarray
    value: float                # refined |psi| at the minimum
    vanishing_order: float      # slope fit of log|psi| against log distance


class NodalReport(NamedTuple):
    min_psi_grid: float
    candidates: list
    zero_count_bound: float     # gamma - 1 + int Q^2 |psi|^4 / (4 pi), gamma = 0
    int_q_psi4: float           # int Q |psi|^4
    int_q2_psi4: float          # int Q^2 |psi|^4, the Willmore energy
    window_chain: bool          # int Q |psi|^4 < 8 pi / Q_max
    verdict: str                # 'zero-free' | 'zeros' | 'inconclusive'
    note: str


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
    vals, = psi.basis.evaluate(psi.coeff, z, north, ((0, 0),))
    return np.sqrt(np.sum(np.abs(vals) ** 2, axis=-1) / conformal_factor(z))


def _refine_minimum(psi: SpectralSpinor, xi0) -> tuple[np.ndarray, float]:
    """Levenberg-Marquardt polish of a local minimum of |psi| from the node
    xi0, in the chart xi0 is read in: least squares on the four real parts
    of r(z) = phi(z) sqrt((1 + |z|^2) / 2), |r| = |psi|, with the Jacobian
    from the exact Wirtinger derivatives of phi.  Returns the point and |psi|
    there."""
    sign = 1.0 if xi0[2] >= 0 else -1.0     # chart B is chart A of (x1, -x2, -x3)
    z = complex(_chart_coords(xi0, sign > 0))

    def residual(z):    # rows r, dr/dx, dr/dy as real 4-vectors, z = x + iy
        vals, d10, d01 = (a[0] for a in psi.basis.evaluate(
            psi.coeff, np.array([z]), sign > 0, ((0, 0), (1, 0), (0, 1))))
        s = math.sqrt((1.0 + abs(z) ** 2) / 2.0)
        return np.array([vals * s, (d10 + d01) * s + vals * (z.real / (2.0 * s)),
                         1j * (d10 - d01) * s + vals * (z.imag / (2.0 * s))]).view(float)

    rows, lam = residual(z), 1e-3
    for _ in range(100):
        # the normal equations' sums, written out: no BLAS call
        (f, g1, g2), (_, a11, a12), (_, _, a22) = (rows[:, None] * rows).sum(axis=-1)
        mu = lam * (a11 + a22) / 2.0
        det = (a11 + mu) * (a22 + mu) - a12 * a12
        if not det > 0:
            break
        step = complex(a12 * g2 - (a22 + mu) * g1, a12 * g1 - (a11 + mu) * g2) / det
        trial = residual(z + step)
        if (trial[0] ** 2).sum() < f:
            z, rows, lam = z + step, trial, 0.3 * lam
        else:
            lam *= 10.0
        if abs(step) <= 1e-13 * (1.0 + abs(z)) or lam > 1e12:
            break
    xi = np.array([2.0 * z.real, 2.0 * sign * z.imag, sign * (1.0 - abs(z) ** 2)])
    return xi / (1.0 + abs(z) ** 2), math.sqrt((rows[0] ** 2).sum())


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

    scale = math.sqrt(_median(nsq))
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
        seen = []
        for i in sorted(idx):
            xi = ws.grid.xyz[i]
            if any(np.arccos(np.clip(xi @ s, -1, 1)) < 2 * spacing for s in seen):
                continue
            seen.append(xi)
            xi_ref, val = _refine_minimum(psi, xi)
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


def _median(x) -> float:
    """np.median of floats x >= 0, bit for bit and with no sort: the middle values
    are exact order statistics, by bisection on the bits, which order as the values do."""
    bits = np.ascontiguousarray(x, dtype=float).view(np.int64)
    k, lo, hi = bits.size // 2, int(bits.min()), int(bits.max())
    while lo < hi:          # to the bits of the k-th smallest value, k from 0
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if np.count_nonzero(bits <= mid) > k else (mid + 1, hi)
    below = bits[bits < lo]         # the (k-1)-th is lo too unless k values lie below
    pair = np.array([below.max() if len(below) >= k > 0 else lo, lo]).view(float)
    return float(pair[1] if bits.size % 2 else (pair[0] + pair[1]) / 2)


def _vanishing_order(psi, xi, dists):
    """Slope of log |psi| against log distance, over rings of four points."""
    xi = np.asarray(xi, dtype=float)
    (e1,), (e2,) = _tangent_frame(xi[None])
    ang = np.array([0.0, 1.57, 3.14, 4.71])[:, None]
    ring = np.cos(ang) * e1 + np.sin(ang) * e2
    d = np.asarray(dists, dtype=float)[:, None, None]
    pts = xi * np.cos(d) + ring * np.sin(d)
    samples = _fiber_norm_at(psi, pts.reshape(-1, 3)).reshape(len(dists), -1)
    x, y = np.log(dists), np.log(np.maximum(samples.mean(axis=1), 1e-300))
    x = x - x.mean()        # the least-squares slope in closed form: np.polyfit calls LAPACK
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


# -- scalar curvature identity --------------------------------------------------


class ScalReport(NamedTuple):
    l1_residual: float          # mean of |lhs - rhs| over the sphere
    pde_residual: float         # L2 residual of D psi = Q |psi|^2 psi


def scal_identity_check(psi: SpectralSpinor, ws: Workspace) -> ScalReport:
    """Residual of  Scal_{g1} = 2 Q^2 - 4 sum_k |nabla^Q_{e_k} phi|^2  for the
    unit spinor phi of g1 = |psi|^4 g, all terms by exact chart calculus.

    The identity holds for solutions only, and the L1 residual is undefined
    where psi vanishes: callers judge the state by ``pde_residual``."""
    basis, grid = ws.basis, ws.grid
    values = basis.synthesize(psi.coeff, grid)
    nsq_sphere = ws.fiber_norm_sq(values)
    Dv = basis.synthesize(dirac_apply(psi).coeff, grid)
    pde = Dv - ws.q_nodes[:, None] * nsq_sphere[:, None] * values
    pde_res = math.sqrt(abs(float(grid.integrate(ws.fiber_norm_sq(pde)))))

    d10, d01, d11 = basis.synthesize_derivatives(psi.coeff, grid, ((1, 0), (0, 1), (1, 1)))

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
    # slot 3f + e runs edge e of face f from corner e to e + 1, its twin the same edge back
    ends = np.roll(faces, -1, axis=1).ravel()
    twin = np.nonzero((faces.ravel()[:, None] == ends) & (ends[:, None] == faces.ravel()))[1]
    for _ in range(subdivisions):
        # a new vertex per edge, numbered by the edge's first slot (s < twin[s])
        s = np.arange(len(twin))
        first = s < twin
        rank = np.cumsum(first) + (len(verts) - 1)
        a, b, c = faces.T
        ab, bc, ca = np.where(first, rank, rank[twin]).reshape(-1, 3).T
        m = verts[faces.ravel()[s[first]]] + verts[faces.ravel()[twin[first]]]
        # the norm as a stacked matmul keeps the bits of a per-vertex dot product
        m /= np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0])
        verts = np.vstack([verts, m])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
        # edge e of face f halves into slot 0 of child 4f + e and slot 2 of child 4f + (e+1)%3,
        # twins of the twin edge's other halves; slots 1 of children 0, 1, 2 twin 2, 0, 1 of 3
        f, e = np.divmod(s, 3)
        start, end = 12 * f + 3 * e, 12 * f + 3 * ((e + 1) % 3) + 2
        inner = 12 * f[::3, None, None] + np.array([[1, 4, 7], [11, 9, 10]])
        old, twin = twin, np.empty(4 * len(s), dtype=s.dtype)
        twin[start], twin[end], twin[inner] = end[old], start[old], inner[:, ::-1]
    return verts, faces


def mesh_edges(faces) -> np.ndarray:
    """The edges (a, b), a < b, of a closed, consistently oriented triangle
    mesh (each edge runs a -> b in one face, b -> a in another): the face
    slots (corner c, corner c + 1) with a < b, each edge once, in face order
    and, within a face, in corner order."""
    ends = np.roll(faces, -1, axis=1)
    mask = faces < ends
    edges = np.empty((np.count_nonzero(mask), 2), dtype=faces.dtype)
    edges[:, 0] = faces[mask]
    edges[:, 1] = ends[mask]
    return edges


# -- Weierstrass integration ------------------------------------------------------


def _weierstrass_dzbar(vals, d10, d01) -> np.ndarray:
    """dzbar X_z of the Weierstrass form X_z from chart values phi and their
    (1, 0) and (0, 1) derivatives, last axis the three components; real
    where X_z dz is closed."""
    p1, c2 = vals[..., 0], np.conj(vals[..., 1])
    dzb_p1, dzb_c2 = d01[..., 0], np.conj(d10[..., 1])
    sq1, sq2 = 2.0 * p1 * dzb_p1, 2.0 * c2 * dzb_c2       # dzbar of phi_1^2, conj(phi_2)^2
    return np.stack([0.5j * (sq1 - sq2), -0.5 * (sq1 + sq2),
                     -1j * (dzb_p1 * c2 + p1 * dzb_c2)], axis=-1)


def _legendre(x, L: int):
    """Yields (m, P) for m = 0..L, P[l - m] = lambda_lm(x) at x = cos(theta)
    for l = m..L, with lambda_lm(cos theta) e^{i m phi} orthonormal on S^2
    (no Condon-Shortley phase): the three-term recurrence in l from
    sqrt((2m+1)!! / (4 pi (2m)!!)) sin(theta)^m.  P lives until the next m."""
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    pmm = np.full(x.shape, (4.0 * math.pi) ** -0.5)
    table = np.empty((L + 1,) + x.shape)        # each m overwrites the last
    for m in range(L + 1):
        if m:
            pmm *= math.sqrt((2 * m + 1) / (2 * m)) * s
        P = table[:L - m + 1]
        prev, P[0] = 0.0, pmm
        for l in range(m + 1, L + 1):
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            prev, P[l - m] = P[l - m - 1], a * (x * P[l - m - 1] - b * prev)
        yield m, P


def _harmonic_analysis(values, grid: QuadratureGrid, L: int) -> list:
    """Coefficients in the harmonics lambda_lm e^{i m phi}, l <= L, of real
    nodal values (n_nodes, c): per order m, the (L - m + 1, 2c) real array of
    (component, re/im) pairs at l = m..L.  An rfft per ring, then one real
    product per m; exact for values of degree <= L on a grid of degree 2L."""
    rings = np.fft.rfft((values * grid.weights[:, None]).reshape(grid.n_theta, grid.n_phi, -1),
                        axis=1)
    return [P @ np.ascontiguousarray(rings[:, m]).view(float)
            for m, P in _legendre(grid.xyz[::grid.n_phi, 2], L)]


def _harmonic_synthesis(coeff, xyz, L: int) -> np.ndarray:
    """The real field of coefficients laid out as ``_harmonic_analysis``
    returns them, at sphere points xyz: summed one order m at a time, over
    blocks of ``_BLOCK`` points."""
    out, step = np.zeros((len(xyz), coeff[0].shape[1] // 2)), spectral._BLOCK
    for start in range(0, len(xyz), step):
        pts = xyz[start:start + step]
        phi = np.arctan2(pts[:, 1], pts[:, 0])[:, None]
        for m, P in _legendre(pts[:, 2], L):
            re, im = np.moveaxis(_row_matmul(P.T, coeff[m]).reshape(len(pts), -1, 2), -1, 0)
            out[start:start + step] += (2.0 if m else 1.0) * (re * np.cos(m * phi)
                                                              - im * np.sin(m * phi))
    return out


def _immersion(psi: SpectralSpinor, xyz) -> tuple[np.ndarray, float]:
    """The immersion F at sphere points xyz, up to a translation, and the
    closedness defect of its Weierstrass form.  dz F = X_z in either chart,
    so Delta_S F = (1 + |z|^2)^2 dzbar X_z, a spherical polynomial of degree
    L = 2J + 1: its real part is analysed on the degree-2L grid, and
    F_lm = -(Delta_S F)_lm / (l (l + 1)).  The defect is max |Im| / max |Re|
    of Delta_S F over the grid: zero for a solution."""
    L = 2 * psi.basis.J + 1
    grid = QuadratureGrid(2 * L)
    lap = (4.0 / grid.f_pref ** 2)[:, None] * _weierstrass_dzbar(
        *psi.basis.synthesize_derivatives(psi.coeff, grid, ((0, 0), (1, 0), (0, 1))))
    coeff = _harmonic_analysis(lap.real, grid, L)
    for m, c in enumerate(coeff):
        l = np.arange(m, L + 1)[:, None]
        c *= (l > 0) / -np.maximum(l * (l + 1), 1)
    return (_harmonic_synthesis(coeff, xyz, L),
            float(np.abs(lap.imag).max() / np.abs(lap.real).max()))


class ImmersionMesh(NamedTuple):
    vertices: np.ndarray
    faces: np.ndarray
    sphere_points: np.ndarray
    conf_factor: np.ndarray      # |psi|^4 per vertex
    mean_curvature: np.ndarray   # discrete cotangent estimate
    target_q: np.ndarray
    gauss_bonnet_defect: float   # total angle defect minus 4 pi
    closure_defect: float        # max |Im| / max |Re| of (1 + |z|^2)^2 dzbar X_z
    edge_length_rel_error: float  # RMS of (mesh length - g1 length) / g1 length
    euler_characteristic: int    # vertices - edges + faces


def reconstruct_immersion(psi: SpectralSpinor, ws: Workspace,
                          subdivisions: int, nodal: NodalReport) -> ImmersionMesh:
    """The immersion at the icosphere vertices from one spectral Poisson
    solve (``_immersion``), centred on the vertex mean.  The g1 length of
    an edge is the trapezoid rule for the integral of |psi|^2 along its
    great-circle arc.

    Requires a zero-free solution: ``nodal`` is psi's ``nodal_analysis``
    report; refuses otherwise since the conformal factor degenerates at zeros.
    """
    if nodal.verdict != "zero-free":
        raise ValueError(f"immersion needs a zero-free solution "
                         f"(nodal verdict: {nodal.verdict}; {nodal.note})")
    sphere_v, faces = icosphere(subdivisions)
    edges = mesh_edges(faces)
    verts, closure = _immersion(psi, sphere_v)
    verts -= verts.mean(axis=0)

    norm = _fiber_norm_at(psi, sphere_v)
    rel, step = np.empty(len(edges)), spectral._BLOCK
    for start in range(0, len(edges), step):
        a, b = edges[start:start + step].T
        arc = 2.0 * np.arcsin(np.linalg.norm(sphere_v[a] - sphere_v[b], axis=1) / 2.0)
        glen = arc * (norm[a] ** 2 + norm[b] ** 2) / 2.0
        rel[start:start + step] = (np.linalg.norm(verts[a] - verts[b], axis=1) - glen) / glen

    target_q = np.asarray(ws.Q.evaluate(sphere_v), dtype=float)
    H, gauss_bonnet = discrete_curvature(verts, faces)
    return ImmersionMesh(vertices=verts, faces=faces, sphere_points=sphere_v,
                         conf_factor=norm ** 4, mean_curvature=H, target_q=target_q,
                         gauss_bonnet_defect=gauss_bonnet, closure_defect=closure,
                         edge_length_rel_error=float(np.sqrt(np.mean(rel**2))),
                         euler_characteristic=len(verts) - len(edges) + len(faces))


# -- discrete curvature -----------------------------------------------------------


def _corners(verts, fb, c):
    """At corner(s) c of the faces fb, coordinates first: e = v_{c+1} - v_c, f = v_{c+2} - v_c
    (mod 3), e.f, e x f and |e x f|, with the bits of np.sum, np.cross and np.linalg.norm."""
    v = verts.take(fb.T, axis=0).transpose(2, 0, 1)      # [coordinate, corner, face]
    (e0, e1, e2), (f0, f1, f2) = e, f = [v[:, (c + i) % 3] - v[:, c] for i in (1, 2)]
    cross = np.stack([e1 * f2 - e2 * f1, e2 * f0 - e0 * f2, e0 * f1 - e1 * f0])
    return e, e0 * f0 + e1 * f1 + e2 * f2, cross, np.sqrt(np.sum(cross * cross, axis=0))


def _curvature_sums(verts, faces):
    """Per-vertex Meyer et al. mixed areas (Voronoi for non-obtuse triangles,
    else T/2 at the obtuse corner and T/4 at the others), outward unit
    normals, cotangent Laplacian sums K and the sum of the corner angles
    atan2(|e x f|, e.f), from walks over blocks of faces: one for the angles,
    summed from an (F, 3) array, then two per corner c = 0, 1, 2.  Each
    vertex sum adds in one order whatever the block size: areas and normals
    corner 0, 1, 2 in turn, each over all faces in face order; K the pulls
    of edge c (v_c to v_{c+1}) on v_c, then on v_{c+1}, then edge c+1's."""
    step, corners, angles = spectral._BLOCK, np.arange(3), np.empty((len(faces), 3))
    for start in range(0, len(faces), step):
        _, dots, _, twice_area = _corners(verts, faces[start:start + step], corners)
        angles[start:start + step] = np.arctan2(twice_area, dots).T
    angle_sum = float(np.sum(angles))
    del angles
    area, vn, K = np.zeros(len(verts)), np.zeros((3, len(verts))), np.zeros((3, len(verts)))
    for c in range(3):
        c1, c2 = (c + 1) % 3, (c + 2) % 3
        for start in range(0, len(faces), step):
            fb = faces[start:start + step]
            e, dots, cross, twice_area = _corners(verts, fb, corners)
            cot = dots / np.maximum(twice_area, 1e-300)
            # mixed area at corner c: the Voronoi part is
            # (|e|^2 cot(corner c+2) + |f|^2 cot(corner c+1)) / 8, and |f| = |e| of c+2
            sq = np.sum(e * e, axis=0)
            vor = (sq[c] * cot[c2] + sq[c2] * cot[c1]) / 8.0
            tri, obtuse = 0.5 * twice_area[c], dots < 0
            np.add.at(area, fb[:, c], np.where(obtuse[c], tri / 2.0, np.where(
                obtuse[c1] | obtuse[c2], tri / 4.0, vor)))
            # the face normal, and edge c's pull cot(corner c+2) (v_c - v_{c+1}) / 2 on v_c ...
            for out, w in zip([*vn, *K], [*cross[:, 0], *(0.5 * cot[c2] * -e[:, c])]):
                np.add.at(out, fb[:, c], w)
        for start in range(0, len(faces), step):
            fb = faces[start:start + step]
            e, dots, _, twice_area = _corners(verts, fb, np.array([c, c2]))
            # ... and the opposite pull on v_{c+1}
            for out, w in zip(K, 0.5 * (dots[1] / np.maximum(twice_area[1], 1e-300)) * e[:, 0]):
                np.add.at(out, fb[:, c1], w)

    # orient outward from the centroid (winding may flip under reflections)
    if np.sum(vn.T * (verts - verts.mean(axis=0))) < 0:
        vn = -vn
    vn /= np.maximum(np.linalg.norm(vn, axis=0), 1e-300)
    return area, vn.T, K.T, angle_sum


def discrete_curvature(verts, faces) -> tuple[np.ndarray, float]:
    """Signed discrete mean curvature per vertex, the cotangent Laplacian
    with mixed Voronoi areas and its sign from the outward vertex normal
    (a sphere of radius r gives 1/r), and the Gauss-Bonnet defect, the
    total angle defect minus 4 pi (zero for a sphere mesh up to roundoff),
    from the block walks of ``_curvature_sums``."""
    area, normals, K, angle_sum = _curvature_sums(verts, faces)
    K /= 2.0 * area[:, None]
    H = np.sum(np.multiply(K, normals, out=K), axis=1)
    return H, 2.0 * math.pi * verts.shape[0] - angle_sum - 4.0 * math.pi


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
    names, nf = ("x", "y", "z", "conf_factor", "mean_curvature", "target_q"), len(mesh.faces)
    header = ("ply\nformat binary_little_endian 1.0\ncomment diracsphere immersion mesh\n"
              f"element vertex {len(mesh.vertices)}\n"
              + "".join(f"property float64 {n}\n" for n in names)
              + f"element face {nf}\nproperty list uchar int32 vertex_indices\nend_header\n")
    vdata = np.column_stack([mesh.vertices, mesh.conf_factor, mesh.mean_curvature,
                             mesh.target_q])
    # one packed record per face: the count 3 and the three indices
    body = np.empty(nf, dtype=[("count", "u1"), ("vertex_indices", "<i4", (3,))])
    body["count"] = 3
    body["vertex_indices"] = mesh.faces
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(memoryview(vdata.astype("<f8", copy=False)).cast("B"))
        fh.write(memoryview(body).cast("B"))
