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
angular index k in {-(j+1), ..., j}.  For k >= 0 (chart A, u = 1 + |z|^2):

    eta_1 = N z^k p(rho) u^-(j+1)
    eta_2 = N * (-i sigma/(j+1)) z^{k+1} q(rho) u^-(j+1),    rho = |z|^2,

where p is the degree-(j-k) polynomial solving
rho(1+rho) p'' + [(k+1) + (k-2j) rho] p' + (j+1)(j-k) p = 0 (three-term
rational recursion below) and q = (1+rho) p' - (j+1) p.  Then
-2i d/dzbar eta_1 = sigma(j+1) f eta_2 holds as a polynomial identity, and
likewise for the other component.  Indices k < 0 come from the symmetry
(phi_1, phi_2) -> (conj(phi_2), -conj(phi_1)), which preserves the
eigenvalue.  Chart-B forms use the reversed polynomials
p*(rho) = rho^{j-k} p(1/rho) under the fixed transition gauge
phi_B(w) = diag(i z, -i zbar) phi_A(z), w = 1/z.

Normalization constants are computed exactly over the rationals
(Beta integrals), so Gram matrices are identity to quadrature roundoff.

Evaluation.  Only ``SphereBasis`` picks a chart, from ``use_a``: a bool or
a mask shaped like the chart points, True reading chart A.  One field at
arbitrary points is one ChartExpr per chart and component, with no table.
The grid transforms are separable: each grid ring lies in one chart, where
a basis column is one longitude mode times its phi = 0 value, so a transform
is a sparse map between coefficients and ring modes plus an FFT along each
ring.  At degree 2J+1 the modes +-(J+1) share a bin and agree at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from .chartexpr import ChartExpr, PowerCache
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


def radial_polynomials(j: int, k: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact coefficients of p_{j,k} and q_{j,k} = (1+rho) p' - (j+1) p."""
    if not 0 <= k <= j:
        raise ValueError("need 0 <= k <= j")
    d = j - k
    p = [Fraction(1)]
    for n in range(d):
        num = n * (n - 1) + n * (k - 2 * j) + (j + 1) * (j - k)
        p.append(-p[n] * Fraction(num, (n + 1) * (n + k + 1)))
    q = []
    for n in range(d + 1):
        dp_next = (n + 1) * p[n + 1] if n + 1 <= d else Fraction(0)
        q.append(dp_next + n * p[n] - (j + 1) * p[n])
    return p, q


def _beta_integral(t: int, coeffs: list[Fraction], M: int) -> Fraction:
    """integral_0^inf rho^t s(rho) (1+rho)^-M drho for polynomial s, exact."""
    total = Fraction(0)
    fM = math.factorial(M - 1)
    for n, c in enumerate(coeffs):
        total += c * Fraction(math.factorial(t + n) * math.factorial(M - t - n - 2), fM)
    return total


def _conv_square(p: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (2 * len(p) - 1)
    for i, a in enumerate(p):
        for l, b in enumerate(p):
            out[i + l] += a * b
    return out


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


def _eigenspinor_exprs(j, k, sigma, norm):
    """ChartExpr pairs for eta_{j,k,sigma} on charts A and B."""
    khat = k if k >= 0 else -1 - k
    p, q = radial_polynomials(j, khat)
    d = j - khat
    a = j + 1
    c2 = -1j * sigma / (j + 1.0)
    pr = [float(c) for c in reversed(p)]
    qr = [float(c) for c in reversed(q)]
    pf = [float(c) for c in p]
    qf = [float(c) for c in q]

    e = ChartExpr()
    f = ChartExpr()
    g = ChartExpr()
    h = ChartExpr()
    if k >= 0:
        for n in range(d + 1):
            e += ChartExpr.monomial(norm * pf[n], khat + n, n, a)
            f += ChartExpr.monomial(norm * c2 * qf[n], khat + 1 + n, n, a)
            g += ChartExpr.monomial(1j * norm * pr[n], n, khat + 1 + n, a)
            h += ChartExpr.monomial(-norm * sigma / (j + 1.0) * qr[n], n, khat + n, a)
    else:
        for n in range(d + 1):
            e += ChartExpr.monomial(norm * (1j * sigma / (j + 1.0)) * qf[n], n, khat + 1 + n, a)
            f += ChartExpr.monomial(-norm * pf[n], n, khat + n, a)
            g += ChartExpr.monomial(-norm * sigma / (j + 1.0) * qr[n], khat + n, n, a)
            h += ChartExpr.monomial(1j * norm * pr[n], khat + 1 + n, n, a)
    return (e, f), (g, h)


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

        norms = {}
        for j in range(J + 1):
            for khat in range(j + 1):
                p, q = radial_polynomials(j, khat)
                M = 2 * j + 3
                val = 2 * math.pi * (
                    float(_beta_integral(khat, _conv_square(p), M))
                    + float(_beta_integral(khat + 1, _conv_square(q), M)) / (j + 1) ** 2
                )
                norms[(j, khat)] = 1.0 / math.sqrt(val)
        self._exprs_a = []
        self._exprs_b = []
        for ix in indices:
            khat = ix.k if ix.k >= 0 else -1 - ix.k
            ea, eb = _eigenspinor_exprs(ix.j, ix.k, ix.sigma, norms[(ix.j, khat)])
            self._exprs_a.append(ea)
            self._exprs_b.append(eb)
        # longitude mode per (chart A/B, component, column): eta_{j,k} is z^k,
        # z^(k+1) times radial factors, and diag(i z, -i zbar) takes it to B
        k = np.array([ix.k for ix in indices])
        self.modes = np.array([[k, k + 1], [k + 1, k]])
        self._matrix_cache = {}

    # -- evaluation ---------------------------------------------------------

    def _by_chart(self, z, use_a, tail, fill) -> np.ndarray:
        """``fill(points, cache, exprs)`` on each chart's share of the points z;
        the result has shape z.shape + tail."""
        z = np.asarray(z, dtype=complex)
        mask = np.broadcast_to(use_a, z.shape)
        out = np.empty(z.shape + tail, dtype=complex)
        for sel, exprs in ((mask, self._exprs_a), (~mask, self._exprs_b)):
            if sel.any():
                pts = z[sel]
                out[sel] = fill(pts, PowerCache(pts), exprs)
        return out

    def evaluate_matrix(self, z, use_a, deriv=(0, 0)) -> np.ndarray:
        """Basis values (or their exact Wirtinger derivative ``deriv`` =
        (nz, nzbar)) at chart points z: shape z.shape + (2, n_basis)."""
        def fill(pts, cache, exprs):
            tab = np.empty((pts.size, 2, self.n_basis), dtype=complex)
            for i, pair in enumerate(exprs):
                for c, e in enumerate(pair):
                    tab[:, c, i] = e.derivative(*deriv)(pts, cache)
            return tab

        return self._by_chart(z, use_a, (2, self.n_basis), fill)

    def evaluate(self, coeff, z, use_a, deriv=(0, 0)) -> np.ndarray:
        """The field ``coeff`` (or its ``deriv`` derivative) at chart points z,
        shape z.shape + (2,): each chart's weighted basis expressions summed
        into one ChartExpr per component, with no table."""
        def fill(pts, cache, exprs):
            sums = ({}, {})
            for a, pair in zip(coeff, exprs):
                for acc, e in zip(sums, pair):
                    for key, c in e.terms.items():
                        acc[key] = acc.get(key, 0.0) + a * c
            return np.stack([ChartExpr(acc).derivative(*deriv)(pts, cache)
                             for acc in sums], axis=-1)

        return self._by_chart(z, use_a, (2,), fill)

    # -- grid transforms ----------------------------------------------------

    def _require_grid(self, grid: QuadratureGrid):
        if grid.degree < 2 * self.J + 1:
            raise AliasingError(f"grid degree {grid.degree} < 2J+1 = {2 * self.J + 1}: "
                                "transforms would alias")

    def synthesis_matrix(self, grid: QuadratureGrid):
        """Cached per grid degree: the sparse map S from coefficients to each
        ring's longitude modes, (n_theta*2*n_phi, n_basis), holding the
        basis on the phi = 0 meridian, and its conjugate transpose."""
        self._require_grid(grid)
        tab = self._matrix_cache.get(grid.degree)
        if tab is None:
            n_p = grid.n_phi
            radial = self.evaluate_matrix(grid.z_pref[::n_p], grid.use_a[::n_p])
            mode = self.modes[np.where(grid.use_a[::n_p], 0, 1)]
            rows = np.arange(2 * grid.n_theta).reshape(-1, 2, 1) * n_p + mode % n_p
            cols = np.broadcast_to(np.arange(self.n_basis), radial.shape)
            # CSC stores O(nonzeros) on bubble transport's fine grids
            S = sparse.csc_matrix((radial.ravel(), (rows.ravel(), cols.ravel())),
                                  shape=(2 * grid.n_nodes, self.n_basis))
            tab = self._matrix_cache[grid.degree] = (S, S.conj().T)
        return tab

    def synthesize(self, coeff, grid: QuadratureGrid) -> np.ndarray:
        """Weighted chart values of the field at the nodes, shape (n_nodes, 2)."""
        S, _ = self.synthesis_matrix(grid)
        modes = (S @ np.asarray(coeff, dtype=complex)).reshape(grid.n_theta, 2, grid.n_phi)
        vals = np.fft.ifft(modes, axis=-1, norm="forward")
        return vals.transpose(0, 2, 1).reshape(grid.n_nodes, 2)

    def analyze(self, values, grid: QuadratureGrid) -> np.ndarray:
        """L^2 projection of nodal values onto the basis (adjoint transform):
        an FFT along each ring, then the conjugate transpose of the table."""
        _, SH = self.synthesis_matrix(grid)
        wf = (grid.weights / grid.f_pref)[:, None]
        rings = (np.asarray(values) * wf).reshape(grid.n_theta, grid.n_phi, 2)
        return SH @ np.fft.fft(rings.transpose(0, 2, 1), axis=-1).ravel()


@dataclass
class SpectralSpinor:
    """A spinor field as a coefficient vector over a SphereBasis."""

    basis: SphereBasis
    coeff: np.ndarray

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=complex)
        if self.coeff.shape != (self.basis.n_basis,):
            raise ValueError("coefficient vector does not match basis size")

    @classmethod
    def zero(cls, basis: SphereBasis) -> "SpectralSpinor":
        return cls(basis, np.zeros(basis.n_basis, dtype=complex))

    def copy(self) -> "SpectralSpinor":
        return SpectralSpinor(self.basis, self.coeff.copy())

    def __add__(self, other):
        _check_same_basis(self, other)
        return SpectralSpinor(self.basis, self.coeff + other.coeff)

    def __sub__(self, other):
        _check_same_basis(self, other)
        return SpectralSpinor(self.basis, self.coeff - other.coeff)

    def scale(self, s) -> "SpectralSpinor":
        return SpectralSpinor(self.basis, self.coeff * s)


def _check_same_basis(a: SpectralSpinor, b: SpectralSpinor):
    if a.basis is not b.basis and a.basis.J != b.basis.J:
        raise ValueError("spinors live on different truncations")


def dirac_apply(psi: SpectralSpinor) -> SpectralSpinor:
    """D psi, diagonal in the eigenbasis: a_k -> lambda_k a_k."""
    return SpectralSpinor(psi.basis, psi.coeff * psi.basis.eigenvalues)


def split(psi: SpectralSpinor) -> tuple[SpectralSpinor, SpectralSpinor]:
    """Spectral splitting psi = psi^+ + psi^- by eigenvalue sign."""
    plus = np.where(psi.basis.plus_mask, psi.coeff, 0.0)
    minus = np.where(psi.basis.minus_mask, psi.coeff, 0.0)
    return SpectralSpinor(psi.basis, plus), SpectralSpinor(psi.basis, minus)


def l2_inner(psi: SpectralSpinor, phi: SpectralSpinor) -> complex:
    """(psi, phi)_2, the complex L^2 pairing."""
    _check_same_basis(psi, phi)
    return complex(np.sum(psi.coeff * np.conj(phi.coeff)))


def h_inner(basis: SphereBasis, a, b) -> float:
    """H^{1/2} pairing of coefficient arrays: real(|D|^{1/2} a, |D|^{1/2} b)_2."""
    return float(np.sum(basis.abs_eigenvalues * np.real(a * np.conj(b))))


def h_norm(basis: SphereBasis, a) -> float:
    """H^{1/2} norm of a coefficient array."""
    return math.sqrt(max(float(np.sum(basis.abs_eigenvalues * np.abs(a) ** 2)), 0.0))


def h_half_inner(psi: SpectralSpinor, phi: SpectralSpinor) -> float:
    """<psi, phi> = real(|D|^{1/2} psi, |D|^{1/2} phi)_2."""
    _check_same_basis(psi, phi)
    return h_inner(psi.basis, psi.coeff, phi.coeff)


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
