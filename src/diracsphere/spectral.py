"""Explicit Dirac eigenbasis on the round 2-sphere and spectral spinor fields.

Spectrum.  On (S^m, g) the Dirac operator has eigenvalues +-(m/2 + j),
j = 0, 1, 2, ... with multiplicity 2^[m/2] * C(m+j-1, j); the source for the
multiplicity prints an undefined symbol in place of m, we read it as m, which
gives the accepted values 2(j+1) on S^2 and (j+1)(j+2) on S^3 (and matches
the j = 0 space of Killing spinors).  Only m = 2 gets a concrete basis here;
the eigenvalue and multiplicity formulas are exposed for general m.

Representation of fields.  A spinor field psi on S^2 is stored through its
weighted chart components

    phi = F(f^{1/2} psi o S^{-1}),      f(z) = 2/(1+|z|^2),

on the two standard charts of :mod:`diracsphere.grid`.  In this
representation the round Dirac operator is f^{-1} D_0 with the flat operator
D_0 = -2i [[0, d/dz], [d/dzbar, 0]], the L^2 pairing is
integral f * (phi, chi)_{C^2} dx, and pointwise fiber norms are
|psi|^2 = |phi|^2 / f.

Closed forms.  Eigenspinors at level j, eigenvalue sigma*(j+1), carry an
angular index k in {-(j+1), ..., j}.  For k >= 0 on chart A, with
u = 1 + |z|^2, x = cos(theta) = (1 - |z|^2)/u and d = j - k,

    eta_1 = pi^-1/2 (2z/u)^k u^-1 P^(k,k+1)_d(x),
    eta_2 = i sigma pi^-1/2 (2z/u)^k (z/u) P^(k+1,k)_d(x),

P^(a,b)_d being the Jacobi polynomials over their norm on [-1, 1] (Camporesi
& Higuchi, J. Geom. Phys. 20, 1996).  These are z^k p u^-(j+1) and
z^{k+1} q u^-(j+1) for the degree-d solution p of rho(1+rho) p'' +
[(k+1) + (k-2j) rho] p' + (j+1)(j-k) p = 0, rho = |z|^2, and
q = (1+rho) p' - (j+1) p: up to one constant per (j, k), p is
(1+rho)^d P^(k,k+1)_d(x) and q is -(j+1) (1+rho)^d P^(k+1,k)_d(x).  Then
-2i d/dzbar eta_1 = sigma(j+1) f eta_2, and likewise for eta_2.  Indices
k < 0 come from the symmetry (phi_1, phi_2) -> (conj(phi_2), -conj(phi_1));
chart-B forms from P^(a,b)_d(-x) = (-1)^d P^(b,a)_d(x) under the fixed
transition gauge phi_B(w) = diag(i z, -i zbar) phi_A(z), w = 1/z.

Normalization.  The prefactor pi^-1/2 (2/u)^k gives unit L^2 norm: the
chart measure becomes the Jacobi weight.  The normalized recurrence in d at
fixed k (DLMF 18.9.2) starts from the closed-form norm (math.lgamma) and
keeps every term O(1), so the basis is accurate at any J.

Evaluation.  Only ``SphereBasis`` picks a chart, from ``use_a``: a bool or
a mask shaped like the chart points, True reading chart A.  The table
``evaluate_matrix``, a field's Wirtinger derivatives at arbitrary points
(``evaluate``) and the ring map below run the same recurrence, one pass per
angular index k that stacks the degrees d = 0..J-k, and hold one k at a
time beside their output.  Wirtinger derivatives come from the z^k factor
and d/dx P^(a,b)_n = sqrt(n (n+a+b+1)) P^(a+1,b+1)_{n-1}, with no division,
so they are finite at z = 0.  The grid transforms are separable: each grid
ring lies in one chart, where a basis column is one longitude mode times
its phi = 0 value, so a transform is a ring map between coefficients and
ring modes plus an FFT along each ring (the per-m stage of libsharp,
Reinecke & Seljebotn 2013; SHTns, Schaeffer 2013).  The ring map groups the
columns by k, which share one mode per chart and component, and runs as
stacked real matrix products on (re, im) pairs; unlike complex
matrix-vector products, these give the same bits at 1 and 2 BLAS threads.
It is written one k at a time from the column pass that ``evaluate_matrix``
scatters, the E^- and E^+ columns of a group in two blocks that
``synthesize`` sums.  ``evaluate`` and ``synthesize_derivatives``, for any
Wirtinger orders, build no table: one kernel (``_sums``) contracts the
coefficients with each k's Jacobi values in one real matrix product, the
groups k and -1-k summed in its weights for ``evaluate`` and kept apart on
the meridian for ``synthesize_derivatives``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import QuadratureGrid

FORMAT_VERSION = 1
ORDERING_CONVENTION = "j ascending; sign +1 before -1; k = deg_index - (j+1) ascending"


def dirac_eigenvalue(m: int, j: int, sign: int) -> float:
    """Eigenvalue sign*(m/2 + j) of the Dirac operator on S^m."""
    if m < 2 or j < 0 or sign not in (1, -1):
        raise ValueError("need m >= 2, j >= 0, sign in {+1, -1}")
    return sign * (m / 2.0 + j)


def dirac_multiplicity(m: int, j: int) -> int:
    """Multiplicity of the eigenvalue +-(m/2 + j) on S^m: 2^[m/2] C(m+j-1, j)."""
    if m < 2 or j < 0:
        raise ValueError("need m >= 2, j >= 0")
    return 2 ** (m // 2) * math.comb(m + j - 1, j)


@functools.lru_cache(maxsize=None)
def _jacobi_coefficients(k: int, n_max: int, order: int):
    """Per step n and row l of ``_jacobi``: the recurrence's diagonal and
    off-diagonal terms, the derivative scale; and each row's P_0."""
    l = np.arange(order + 1)
    a, s = k + l, 2 * k + 1 + 2 * l                     # b = a + 1, s = a + b
    n = np.arange(n_max + 1)[:, None]
    m = np.maximum(n - l, 0) + 1         # the degree step n makes of each row
    mm = 2 * m + s
    shape = (n_max + 1, order + 1, 1, 1)             # step, row, family, point
    diag = (s / ((mm - 2) * mm)).reshape(shape) * np.array([[1.0], [-1.0]])
    off = (2.0 / mm * np.sqrt(m * (m + a) * (m + a + 1) * (m + s)
                              / ((mm - 1) * (mm + 1)))).reshape(shape)
    factor = np.maximum((n - l + 1) * (n + s[0] + l), 0)
    factor[:, 0] = 1
    scale = np.sqrt(np.cumprod(factor, axis=1)).reshape(shape)
    start = [math.exp(-0.5 * ((si + 1) * math.log(2.0) + math.lgamma(ai + 1)
                              + math.lgamma(ai + 2) - math.lgamma(si + 2)))
             for ai, si in zip(a, s)]
    return diag, off, scale, start


def _jacobi(x, k: int, n_max: int, order: int) -> np.ndarray:
    """Normalized Jacobi polynomials of the families (k, k+1) and (k+1, k)
    at points x, and ``order`` x-derivatives, for degrees n = 0..n_max, in
    one (order+1, 2, n_max+1, x.size) array.  Row l runs the families
    (k+l, k+1+l) from degree 0 at n = l (zero before), scaled by the
    derivative rule; both share the recurrence but for its diagonal's sign.
    """
    diag, off, scale, start = _jacobi_coefficients(k, n_max, order)
    out = np.empty((order + 1, 2, n_max + 1, x.size))
    p_prev, p = np.zeros((2, order + 1, 2, x.size))
    for n in range(n_max + 1):
        if n:
            # ((x - diag) p - off p_prev) / off, in place on one new array
            q = x - diag[n - 1]
            q *= p
            q -= off[n - 2] * p_prev
            q /= off[n - 1]
            p, p_prev = q, p
        if n <= order:
            p[n] = start[n]
        np.multiply(scale[n], p, out=out[:, :, n])
    return out


def _atom(v, t, rho_t, k: int, e: int, base, prev, P, deriv):
    """Wirtinger derivative ``deriv`` of F = base v^e t P(x), with
    base = pi^-1/2 (2 v t)^k, prev the same at k - 1, t = 1/(1+|v|^2),
    rho_t = |v|^2 t, and P[l] the l-th x-derivative of a sum of normalized
    Jacobi polynomials.  As F = c v^m w(rho), m = k + e, w = t^(k+1) P(x):
    d/dzbar F = c v^(m+1) w',  d/dz F = c (m v^(m-1) w + v^m vbar w'),
    d2/dz dzbar F = c v^m ((m+1) w' + rho w'')."""
    ve = v if e else 1.0
    s = k + 1
    if deriv == (0, 0):
        return base * ve * t * P[0]
    slope = s * P[0] + 2.0 * t * P[1]               # -t^-(s+1) w'
    if deriv == (0, 1):
        return -base * ve * v * t * t * slope
    if deriv == (1, 0):
        lead = (k + 1) * base * t if e else 2.0 * k * prev * t * t
        return lead * P[0] - base * ve * np.conj(v) * t * t * slope
    if deriv != (1, 1):
        raise ValueError(f"Wirtinger derivative {deriv} is not available")
    curv = s * (s + 1) * P[0] + 4.0 * (s + 1) * t * P[1] + 4.0 * t * t * P[2]
    return base * ve * t * t * (rho_t * curv - (k + e + 1) * slope)


# Weights [chart, family e, h, column] of the atoms F_e (h = 0) and conj(F_e)
# (h = 1) in the basis columns (sigma, k) = (+1, k), (-1, k), (+1, -1-k),
# (-1, -1-k) at one level j and k >= 0; chart B carries a further (-1)^(j-k).
_WEIGHTS = np.array([
    [[[1, 1, 0, 0], [0, 0, -1, -1]], [[1j, -1j, 0, 0], [0, 0, -1j, 1j]]],
    [[[0, 0, 1, -1], [1, -1, 0, 0]], [[0, 0, 1j, 1j], [1j, 1j, 0, 0]]],
])


# points (or faces) per block of ``SphereBasis.evaluate`` and the mesh passes of
# ``geometry``: one k's Jacobi array is at most (order+1) x 2 x (J+1) x 1024 doubles
_BLOCK = 1024


def _row_matmul(a, b) -> np.ndarray:
    """a @ b with gemm's bits in every row, however many rows a has: numpy
    hands a one-row product to gemv, which sums in another order."""
    return np.matmul(a.repeat(2, axis=-2), b)[..., :1, :] if a.shape[-2] == 1 else a @ b


def _ring_values(grid: QuadratureGrid, modes) -> np.ndarray:
    """Nodal values, shape (n_nodes, 2), of ring modes (n_theta, 2, n_phi):
    an inverse FFT along each ring."""
    vals = np.fft.ifft(modes.reshape(grid.n_theta, 2, grid.n_phi), axis=-1,
                       norm="forward")
    return vals.transpose(0, 2, 1).reshape(grid.n_nodes, 2)


@dataclass(frozen=True)
class BasisIndex:
    """One eigenspinor slot: level j, sign sigma, angular index k in [-(j+1), j]."""

    j: int
    sigma: int
    k: int

    @property
    def eigenvalue(self) -> int:
        return self.sigma * (self.j + 1)

    @property
    def deg_index(self) -> int:
        # position inside the eigenspace, in [0, 2(j+1))
        return self.k + self.j + 1


class AliasingError(ValueError):
    """Raised when a quadrature grid is too coarse for the requested transform."""


class SphereBasis:
    """Orthonormal Dirac eigenbasis on S^2 truncated at level J."""

    def __init__(self, J: int):
        if J < 0:
            raise ValueError("truncation level J must be >= 0")
        self.J = J
        indices = []
        for j in range(J + 1):
            for sigma in (1, -1):
                for k in range(-(j + 1), j + 1):
                    indices.append(BasisIndex(j, sigma, k))
        self.indices = tuple(indices)
        self.n_basis = len(indices)
        self.j_arr = np.array([ix.j for ix in indices])
        self.sigma_arr = np.array([ix.sigma for ix in indices])
        self.eigenvalues = (self.sigma_arr * (self.j_arr + 1)).astype(float)
        self.abs_eigenvalues = np.abs(self.eigenvalues)
        self.plus_mask = self.sigma_arr > 0
        self.minus_mask = ~self.plus_mask
        # _cols[k, d]: the columns of _WEIGHTS at level j = k + d; slots
        # past J point at a zero appended to the coefficients
        pos = {(ix.j, ix.sigma, ix.k): i for i, ix in enumerate(indices)}
        self._cols = np.full((J + 1, J + 1, 4), self.n_basis)
        for k in range(J + 1):
            for j in range(k, J + 1):
                self._cols[k, j - k] = [pos[j, sg, kk] for kk in (k, -1 - k)
                                        for sg in (1, -1)]
        self._matrix_cache = {}

    # -- evaluation ---------------------------------------------------------

    def _radial_stage(self, v, order: int):
        """For k = 0..J: (k, P, components), with P the ``_jacobi`` values
        at d = 0..J-k, shape (order+1, 2, J-k+1, v.size), and
        ``components(S, deriv)`` the spinor components F_0 + conj(F_1),
        F_1 + conj(F_0) (``_atom``) of the Wirtinger derivative ``deriv`` of
        Jacobi sums S[order, e, h], h = 1 for conj(F_e); used before
        advancing."""
        rho = (v * np.conj(v)).real
        t = 1.0 / (1.0 + rho)
        rho_t = rho * t
        omega = 2.0 * v * t                         # sin(theta) e^{i phi}
        base = prev = np.full(v.shape, math.pi ** -0.5, dtype=complex)
        for k in range(self.J + 1):
            def components(S, deriv):
                def atom(e, h, dv):
                    return _atom(v, t, rho_t, k, e, base, prev, S[:, e, h], dv)
                return (atom(0, 0, deriv) + np.conj(atom(1, 1, deriv[::-1])),
                        atom(1, 0, deriv) + np.conj(atom(0, 1, deriv[::-1])))
            yield k, _jacobi(t - rho_t, k, self.J - k, order), components
            prev, base = base, base * omega

    def _columns(self, z, use_a, deriv):
        """For k = 0..J: (k, values[component, d, column, point]) of the
        columns ``_cols[k, :J-k+1]`` at the chart points z of both charts."""
        z, deriv = np.asarray(z, dtype=complex), tuple(deriv)
        v = z.ravel()
        chart = np.where(np.broadcast_to(use_a, z.shape).ravel(), 0, 1)
        w = _WEIGHTS.copy()
        w[:, :, 1] = np.conj(w[:, :, 1])
        w = np.moveaxis(w[chart], 0, -1)[:, :, None]     # [e, h, 1, column, point]
        for k, P, components in self._radial_stage(v, sum(deriv)):
            sign = (-1.0) ** (np.arange(P.shape[2])[:, None] * chart)
            # S[order, e, h, d, column, point]
            S = sign[:, None] * w * P[:, :, None, :, None, :]
            yield k, np.array(components(S, deriv))

    def evaluate_matrix(self, z, use_a, deriv=(0, 0)) -> np.ndarray:
        """Basis values (or their exact Wirtinger derivative ``deriv`` =
        (nz, nzbar), each 0 or 1) at chart points z: shape z.shape + (2, n_basis).
        One radial pass over the points of both charts, one scatter per k."""
        tab = np.zeros((np.size(z), 2, self.n_basis + 1), dtype=complex)
        for k, values in self._columns(z, use_a, deriv):
            tab[:, :, self._cols[k, :values.shape[1]]] = np.moveaxis(values, -1, 0)
        return tab[:, :, :-1].reshape(np.shape(z) + (2, self.n_basis))

    def _sums(self, coeff, z, use_a, derivs, split: bool) -> np.ndarray:
        """The Wirtinger derivatives ``derivs``, pairs (nz, nzbar), of the field
        ``coeff`` at chart points z, shape (len(derivs), groups) + z.shape + (2,):
        per k, one real matrix product of the Jacobi values of all degrees and
        the coefficients, over ``_BLOCK`` points at a time (a point's bits do
        not depend on the others), the columns of angular indices k and -1-k
        summed in its weights, or kept apart in groups k = -(J+1)..J if split."""
        J, z = self.J, np.asarray(z, dtype=complex)
        mask = np.broadcast_to(use_a, z.shape)
        out = np.empty((len(derivs), 2 * J + 2 if split else 1) + z.shape + (2,), dtype=complex)
        blocks = np.append(np.asarray(coeff, dtype=complex), 0.0)[self._cols]
        # weights [chart, k, d, e, h, g]: g = 0 sums the columns of angular
        # index k, g = 1 those of -1-k; each (e, h) takes one of the two
        w = blocks.reshape(J + 1, J + 1, 1, 1, 2, 2) * _WEIGHTS.reshape(2, 1, 1, 2, 2, 2, 2)
        w = w[..., 0] + w[..., 1]
        if not split:
            w = w[..., :1] + w[..., 1:]
        w *= (-1.0) ** (np.arange(2)[:, None] * np.arange(J + 1))[:, None, :, None, None, None]
        w[..., 1, :] = np.conj(w[..., 1, :])
        # real weights [chart, k, e, d, (g, h, re/im)]: the product's rows are
        # the (re, im) pairs of the Jacobi sums S[order, e, h] of each group
        w = np.ascontiguousarray(w.transpose(0, 1, 3, 2, 5, 4)).view(float)
        w = w.reshape(2, J + 1, 2, J + 1, -1)
        for chart, sel in enumerate((mask, ~mask)):
            v = z[sel]
            part = np.zeros(out.shape[:2] + v.shape + (2,), dtype=complex)
            for start in range(0, v.size, _BLOCK):
                block = part[..., start:start + _BLOCK, :]
                for k, P, components in self._radial_stage(v[start:start + _BLOCK],
                                                           max(map(sum, derivs))):
                    S = _row_matmul(P.swapaxes(-1, -2), w[chart, k, :, :P.shape[2]]).view(complex)
                    S = S.swapaxes(-1, -2)              # S[order, e, (group, h), point]
                    if split:                           # S[order, e, h, group, point]
                        S = S.reshape(S.shape[:2] + (2, 2, -1)).swapaxes(2, 3)
                    g = [J + 1 + k, J - k] if split else 0
                    for chunk, deriv in zip(block, derivs):
                        chunk[g] += np.stack(components(S, deriv), axis=-1)
            out[:, :, sel] = part
        return out

    def evaluate(self, coeff, z, use_a, derivs) -> tuple:
        """The Wirtinger derivatives ``derivs`` of the field ``coeff`` at chart
        points z, one z.shape + (2,) array each, from ``_sums``."""
        return tuple(self._sums(coeff, z, use_a, derivs, False)[:, 0])

    # -- grid transforms ----------------------------------------------------

    def _require_grid(self, grid: QuadratureGrid):
        if grid.degree < 2 * self.J + 1:
            raise AliasingError(f"grid degree {grid.degree} < 2J+1 = {2 * self.J + 1}: "
                                "transforms would alias")

    def _ring_bins(self, grid: QuadratureGrid, shift: int) -> np.ndarray:
        """Ring-mode bins [g, row] of groups k = g - J - 1 at rows (ring,
        component), modes shifted by ``shift`` in chart A, -shift in chart B:
        eta_{j,k} is z^k, z^(k+1) times radial factors, and diag(i z, -i zbar)
        takes it to B.  A row's 2J+2 modes fill distinct bins, n_phi >= 2J+2."""
        chart = np.where(grid.use_a[::grid.n_phi], 0, 1)[:, None, None]
        mode = np.arange(-(self.J + 1), self.J + 1) + (np.arange(2)[:, None] != chart)
        bins = np.arange(2 * grid.n_theta).reshape(-1, 2, 1) * grid.n_phi + (
            mode + shift * (1 - 2 * chart)) % grid.n_phi
        return bins.reshape(-1, bins.shape[-1]).T.copy()

    def synthesis_matrix(self, grid: QuadratureGrid):
        """Cached per grid degree: the ring map between coefficients and each
        ring's longitude modes, as (bins, phase, table, cols), with the
        columns grouped by angular index k.  ``table[s, g, row, w]`` is real,
        zero-padded to one width, and times ``phase[g, row]`` it is the
        basis on the phi = 0 meridian at row (ring, component) for slot w of
        group g, in block s = 0 (E^-) or 1 (E^+); ``cols[s, g, w]`` is the
        slot's position in the coefficient vector, or that vector's length
        for a padding slot.  The group sums of a row go to the ring-mode
        bins ``bins[g, row]``."""
        self._require_grid(grid)
        ring = self._matrix_cache.get(grid.degree)
        if ring is None:
            J, n_p, n_t = self.J, grid.n_phi, grid.n_theta
            # groups k = -(J+1)..J: _cols keeps (+, k), (-, k), (+, -1-k),
            # (-, -1-k) at each level j = |k + 1/2| - 1/2 + slot.  The two
            # sign blocks stay apart, their sums added in ``synthesize``: one
            # merged block would sum in another order and move the bits of
            # every stored state.
            cols = np.array([np.concatenate([self._cols[::-1, :, 3 - s],
                                             self._cols[:, :, 1 - s]]) for s in range(2)])
            table = np.zeros((2, 2 * J + 2, n_t, 2, J + 1))    # [s, g, ring, component, w]
            phase = np.empty((2 * J + 2, n_t, 2), dtype=complex)
            # k gives groups k and -1-k; a group's values at one row are all
            # real or all imaginary, so an exact quarter turn leaves them real
            for k, values in self._columns(grid.z_pref[::n_p], grid.use_a[::n_p], (0, 0)):
                values = values.reshape(2, -1, 2, 2, n_t)   # [component, w, k|-1-k, +|-, ring]
                imag, real = (np.abs(part).sum(axis=(1, 3)) for part in (values.imag, values.real))
                g = [J + 1 + k, J - k]
                phase[g] = np.where(imag > real, 1j, 1.0).transpose(1, 2, 0)
                turned = values * np.conj(phase[g]).transpose(2, 0, 1)[:, None, :, None]
                table[:, g, ..., :values.shape[1]] = turned.real.transpose(3, 2, 4, 0, 1)[::-1]
            ring = self._matrix_cache[grid.degree] = (
                self._ring_bins(grid, 0), phase.reshape(2 * J + 2, -1),
                table.reshape(2, 2 * J + 2, -1, J + 1), cols)
        return ring

    def synthesize(self, coeff, grid: QuadratureGrid) -> np.ndarray:
        """Weighted chart values of the field at the nodes, shape (n_nodes, 2)."""
        bins, phase, table, cols = self.synthesis_matrix(grid)
        x = np.append(np.asarray(coeff, dtype=complex), 0.0)
        # real products on (re, im) pairs, then the E^- sum plus the E^+ sum
        sums = np.matmul(table, x[cols].view(float).reshape(*cols.shape, 2))
        sums = sums[0] + sums[1]
        modes = np.zeros(2 * grid.n_nodes, dtype=complex)
        modes[bins] = phase * sums.view(complex)[..., 0]
        return _ring_values(grid, modes)

    def synthesize_derivatives(self, coeff, grid: QuadratureGrid, derivs):
        """The Wirtinger derivatives ``derivs``, pairs (nz, nzbar) with (0, 0)
        the values, of the field at the nodes in each node's chart: one
        (n_nodes, 2) array each.  ``_sums`` on the phi = 0 meridian keeps
        apart the groups of angular index k that ``evaluate`` sums; each group
        sum is one longitude mode on its ring, the mode shifted by nzbar - nz
        in chart A and nz - nzbar in chart B, and an FFT per ring gives the
        nodes.  No table is built."""
        self._require_grid(grid)
        sums = self._sums(coeff, grid.z_pref[::grid.n_phi], grid.use_a[::grid.n_phi], derivs, True)
        modes = np.zeros((len(derivs), 2 * grid.n_nodes), dtype=complex)
        for i, (nz, nzb) in enumerate(derivs):     # sums[i] rows: (ring, component)
            modes[i, self._ring_bins(grid, nzb - nz)] = sums[i].reshape(2 * self.J + 2, -1)
        return tuple(_ring_values(grid, m) for m in modes)

    def analyze(self, values, grid: QuadratureGrid) -> np.ndarray:
        """L^2 projection of nodal values onto the basis (adjoint transform):
        an FFT along each ring, then the transposed table."""
        bins, phase, table, cols = self.synthesis_matrix(grid)
        wf = (grid.weights / grid.f_pref)[:, None]
        rings = (np.asarray(values) * wf).reshape(grid.n_theta, grid.n_phi, 2)
        modes = np.fft.fft(rings.transpose(0, 2, 1), axis=-1).ravel()
        f = (modes[bins] * np.conj(phase)).view(float).reshape(*bins.shape, 2)
        out = np.empty(self.n_basis + 1, dtype=complex)
        out[cols] = np.matmul(table.swapaxes(-1, -2), f).view(complex)[..., 0]
        return out[:-1]


@dataclass
class SpectralSpinor:
    """A spinor field as a coefficient vector over a SphereBasis."""

    basis: SphereBasis
    coeff: np.ndarray

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=complex)
        if self.coeff.shape != (self.basis.n_basis,):
            raise ValueError("coefficient vector does not match basis size")


def dirac_apply(psi: SpectralSpinor) -> SpectralSpinor:
    """D psi, diagonal in the eigenbasis: a_k -> lambda_k a_k."""
    return SpectralSpinor(psi.basis, psi.coeff * psi.basis.eigenvalues)


def h_inner(basis: SphereBasis, a, b) -> float:
    """H^{1/2} pairing of coefficient arrays: real(|D|^{1/2} a, |D|^{1/2} b)_2."""
    return float(np.sum(basis.abs_eigenvalues * np.real(a * np.conj(b))))


def h_norm(basis: SphereBasis, a) -> float:
    """H^{1/2} norm of a coefficient array."""
    return math.sqrt(max(float(np.sum(basis.abs_eigenvalues * np.abs(a) ** 2)), 0.0))


# -- coefficient files ------------------------------------------------------


def save_spinor(path, psi: SpectralSpinor) -> None:
    """Write a coefficient file: header plus one (j, sign, deg_index, re, im) row
    per basis member, in the fixed ordering convention."""
    basis = psi.basis
    with open(path, "w") as fh:
        fh.write("# diracsphere-spinor\n")
        fh.write(f"# version={FORMAT_VERSION}\n")
        fh.write(f"# J={basis.J}\n")
        fh.write(f"# ordering={ORDERING_CONVENTION}\n")
        fh.write("# columns: j sign deg_index re im\n")
        for ix, c in zip(basis.indices, psi.coeff):
            fh.write(f"{ix.j} {ix.sigma} {ix.deg_index} "
                     f"{float(c.real)!r} {float(c.imag)!r}\n")


def load_spinor(path, basis: SphereBasis | None = None) -> SpectralSpinor:
    """Read a coefficient file written by :func:`save_spinor`; ValueError
    unless it holds each basis row once, with finite values."""
    header, rows = {}, {}
    with open(path) as fh:
        for line in filter(None, map(str.strip, fh)):
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = val.strip()
                continue
            j_s, sg_s, d_s, re_s, im_s = line.split()
            key = (int(j_s), int(sg_s), int(d_s))
            if key in rows:
                raise ValueError(f"coefficient file repeats row {key}")
            rows[key] = complex(float(re_s), float(im_s))
    if int(header.get("version", "1")) != FORMAT_VERSION or "J" not in header:
        raise ValueError("not a version-1 coefficient file with a J header")
    J = int(header["J"])
    if basis is None:
        basis = SphereBasis(J)
    elif basis.J != J:
        raise ValueError(f"file was written at J={J}, basis has J={basis.J}")
    keys = [(ix.j, ix.sigma, ix.deg_index) for ix in basis.indices]
    if rows.keys() != set(keys):
        raise ValueError(f"coefficient file has {len(rows)} rows; J={J} needs "
                         f"each of its {basis.n_basis} basis rows once")
    coeff = np.array([rows[k] for k in keys])
    if not np.isfinite(coeff).all():
        raise ValueError("coefficient file holds non-finite values")
    return SpectralSpinor(basis, coeff)
