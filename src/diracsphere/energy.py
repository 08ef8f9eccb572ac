"""Prescribed-curvature fields Q and the variational functionals.

Every Q is a PolynomialCurvature: monomials in the ambient coordinates
(x1, x2, x3) restricted to the sphere, with exact gradient and Hessian.  Three
builders make one: ``constant_curvature``, a term list passed to
``PolynomialCurvature`` directly, and ``spherical_harmonic_curvature``, which
converts a real spherical-harmonic table exactly into monomials.

The strongly indefinite energy at exponent p in (2, 4]:

    L_p(psi) = 1/2 (||psi^+||^2 - ||psi^-||^2) - (1/p) integral Q |psi|^p,

with || . || the spectral H^{1/2} norm.  ``eval_L`` alone evaluates L_p (one
analysis, and one synthesis unless given the nodal values); its gradients
are H^{1/2} Riesz representatives, coefficientwise

    grad_k = sign(lambda_k) a_k - N_k / |lambda_k|,
    N = projection of Q |psi|^{p-2} psi,

so finite-difference checks pair them with the H^{1/2} inner product.

Conventions: Q is kept in physical (unnormalized) scale everywhere; the
normalization integral Q dvol = 1 is applied only inside the Rayleigh-type
comparisons across exponents (see reduction.estimate_tau), never mixed into
the same formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import QuadratureGrid
from .spectral import SphereBasis, SpectralSpinor

# -- curvature fields ---------------------------------------------------------


def _derivative(terms, a):
    """Exact d/dx_a of sum n c x^e over terms (c, n, e).

    The integer factor n is carried apart from the coefficient c, so a
    derivative of any order multiplies c once, at evaluation."""
    return [(c, n * e[a], e[:a] + (e[a] - 1,) + e[a + 1:])
            for c, n, e in terms if e[a]]


def _evaluate_terms(terms, xyz) -> np.ndarray:
    """sum n c x^e over terms (c, n, e) at points (..., 3)."""
    out = np.zeros(xyz.shape[:-1])
    for c, n, e in terms:
        term = np.full(xyz.shape[:-1], c * n)
        for d in range(3):
            if e[d]:
                term = term * xyz[..., d] ** e[d]
        out += term
    return out


class PolynomialCurvature:
    """Q = sum c * x1^i x2^j x3^k restricted to the sphere; exact derivatives."""

    def __init__(self, terms):
        # terms: iterable of (i, j, k, coeff)
        self.terms = [(int(i), int(j), int(k), float(c)) for i, j, k, c in terms]
        self._q = [(c, 1, (i, j, k)) for i, j, k, c in self.terms]
        self._grad = [_derivative(self._q, a) for a in range(3)]
        self._hess = [[_derivative(g, b) for b in range(3)] for g in self._grad]

    def evaluate(self, xyz):
        return _evaluate_terms(self._q, np.asarray(xyz, dtype=float))

    def ambient_gradient(self, xyz):
        xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
        return np.stack([_evaluate_terms(g, xyz) for g in self._grad], axis=-1)

    def ambient_hessian(self, xyz):
        xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
        return np.stack([np.stack([_evaluate_terms(h, xyz) for h in row], axis=-1)
                         for row in self._hess], axis=-2)

    def is_affine(self) -> bool:
        return all(i + j + k <= 1 for i, j, k, _ in self.terms)


def constant_curvature(value: float = 1.0) -> PolynomialCurvature:
    return PolynomialCurvature([(0, 0, 0, value)])


def spherical_harmonic_curvature(coeffs) -> PolynomialCurvature:
    """Q from a real spherical-harmonic table [(l, m, coeff), ...], converted
    exactly into ambient monomials.

    Real convention: m = 0 uses Y_l0; m > 0 uses sqrt(2) Re Y_lm, m < 0 uses
    sqrt(2) Im Y_l|m|, with the complex Y_lm of scipy's ``sph_harm_y``
    (Condon-Shortley phase included).  On the unit sphere

        Y_lm = (-1)^m N_lm (d^m P_l / dx^m)(x3) (x1 + i x2)^m,
        N_lm = sqrt((2l + 1)/(4 pi) (l - m)!/(l + m)!),   m >= 0.
    """
    from numpy.polynomial import legendre  # so that only a sph_harm Q loads it
    terms = {}
    for l, m, c in coeffs:
        l, m, c = int(l), int(m), float(c)
        if l < 0 or abs(m) > l:
            raise ValueError(f"spherical harmonic (l={l}, m={m}) needs "
                             "l >= 0 and |m| <= l")
        a = abs(m)
        norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                         * math.factorial(l - a) / math.factorial(l + a))
        scale = (-1) ** a * norm * c * (math.sqrt(2.0) if m else 1.0)
        x3_poly = legendre.leg2poly(legendre.legder([0.0] * l + [1.0], a))
        # (x1 + i x2)^a = sum_k C(a, k) i^k x1^(a-k) x2^k: Re takes even k,
        # Im odd k, both with sign (-1)^(k // 2)
        for k in range(1 if m < 0 else 0, a + 1, 2):
            xy = scale * math.comb(a, k) * (-1) ** (k // 2)
            for n, r in enumerate(x3_poly):
                key = (a - k, k, n)
                terms[key] = terms.get(key, 0.0) + xy * r
    return PolynomialCurvature([key + (c,) for key, c in terms.items() if c != 0.0])


# -- hypothesis (Q) analysis --------------------------------------------------


@dataclass
class CriticalPoint:
    position: np.ndarray
    value: float
    grad_norm: float
    hess_eigs: tuple[float, float]
    kind: str  # 'max' | 'min' | 'saddle' | 'degenerate'


@dataclass
class QHypothesisReport:
    q_max: float
    q_min: float
    half_threshold: float          # 2^{-1/(m-1)} q_max = q_max / 2 on S^2
    max_points: list
    critical_points: list
    admissible_d: tuple[float, float] | None
    constant: bool
    contractibility: str
    search_converged: bool
    notes: list


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products of (n, 3) stacks as stacked matmuls, which round
    like a scalar ``a[i] @ b[i]`` (a sum over axis 1 does not)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _tangent_frame(xyz):
    """Orthonormal tangent frames (e1, e2), each (n, 3), at points (n, 3)."""
    a = np.where(np.abs(xyz[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = np.cross(xyz, a)
    e1 /= np.sqrt(_dot(e1, e1))[:, None]
    e2 = np.cross(xyz, e1)
    return e1, e2


def intrinsic_gradient(Q: PolynomialCurvature, xyz) -> np.ndarray:
    """Sphere gradient: tangential projection of the ambient gradient."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    g = Q.ambient_gradient(xyz)
    return g - np.sum(g * xyz, axis=1, keepdims=True) * xyz


def intrinsic_hessian(Q: PolynomialCurvature, xyz) -> np.ndarray:
    """2x2 sphere Hessians (n, 2, 2) at points (n, 3), each in the tangent
    frame of ``_tangent_frame``.

    Hess_S Q(X, Y) = Hess_ambient(X, Y) - (grad_ambient . xi) <X, Y> on the
    unit sphere (shape-operator correction).
    """
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    frame = np.stack(_tangent_frame(xyz), axis=1)
    radial = _dot(Q.ambient_gradient(xyz), xyz)
    return (frame @ Q.ambient_hessian(xyz) @ frame.transpose(0, 2, 1)
            - radial[:, None, None] * np.eye(2))


def _newton_steps(H2, g2) -> np.ndarray:
    """Cramer's rule for H2 step = -g2 on every row; a row with det H2 == 0 steps -g2."""
    (a, b), (c, d), (g, h) = *H2.transpose(1, 2, 0), g2.T
    det = a * d - b * c
    singular = det == 0
    det[singular] = 1.0
    steps = np.stack([b * h - d * g, c * g - a * h], axis=1) / det[:, None]
    steps[singular] = -g2[singular]
    return steps


_CRITICAL_STEPS = 80


def find_critical_points(Q: PolynomialCurvature):
    """Multi-start sphere Newton for grad Q = 0 from the nodes of the degree-24
    grid; returns (points, all_converged).

    One Newton iteration runs over all seeds at once, ``_CRITICAL_STEPS`` at
    most; a seed is frozen once its gradient norm falls below 1e-9.
    Converged seeds are then deduplicated (points within 0.03 rad of a kept
    one are dropped) and classified in seed order.
    """
    xi = QuadratureGrid(degree=24).xyz.copy()
    converged = np.zeros(len(xi), dtype=bool)
    active = np.arange(len(xi))
    for _ in range(_CRITICAL_STEPS):
        x = xi[active]
        g3 = intrinsic_gradient(Q, x)
        gn = np.sqrt(_dot(g3, g3))
        done = gn < 1e-9
        converged[active[done]] = True
        active, x, g3, gn = active[~done], x[~done], g3[~done], gn[~done]
        if not active.size:
            break
        e1, e2 = _tangent_frame(x)
        g2 = np.stack([_dot(g3, e1), _dot(g3, e2)], axis=1)
        step = _newton_steps(intrinsic_hessian(Q, x), g2)
        # a non-finite or long Newton step becomes a short gradient step
        finite = np.isfinite(step).all(axis=1)
        step[~finite] = 0.0
        short = ~finite | (np.sqrt(_dot(step, step)) > 0.5)
        step[short] = -0.2 * g2[short] / np.maximum(gn[short], 1e-30)[:, None]
        x = x + step[:, :1] * e1 + step[:, 1:] * e2
        xi[active] = x / np.sqrt(_dot(x, x))[:, None]
    kept = []
    for i in np.flatnonzero(converged):
        cos = _dot(xi[kept], np.tile(xi[i], (len(kept), 1)))
        if np.all(np.arccos(np.clip(cos, -1, 1)) > 0.03):
            kept.append(i)
    pts = xi[kept]
    vals = Q.evaluate(pts)
    (a, _), (c, d) = intrinsic_hessian(Q, pts).transpose(1, 2, 0)
    mid, r = (a + d) / 2, np.hypot((a - d) / 2, c)  # eigenvalues mid -+ r, lower triangle
    g3 = intrinsic_gradient(Q, pts)
    gnorms = np.sqrt(_dot(g3, g3))
    found = []
    for x, val, lo, hi, gn in zip(pts, vals, mid - r, mid + r, gnorms):
        tol = 1e-6 * max(abs(lo), abs(hi), 1.0)
        if lo > tol and hi > tol:
            kind = "min"
        elif lo < -tol and hi < -tol:
            kind = "max"
        elif lo < -tol and hi > tol:
            kind = "saddle"
        else:
            kind = "degenerate"
        found.append(CriticalPoint(x, float(val), float(gn),
                                   (float(lo), float(hi)), kind))
    return sorted(found, key=lambda p: -p.value), bool(converged.all())


# relative tolerance for equal curvature values in the hypothesis check
_VALUE_TOL = 1e-9


def check_q_hypothesis(Q: PolynomialCurvature) -> QHypothesisReport:
    """Analytic parts of the curvature hypothesis: extrema, critical values,
    Hessian definiteness, and the admissible interval for the gap value d.

    The topological clauses (contractibility of the maximum set in its
    neighborhoods and sublevel sets) are reported as not checked.
    """
    probe = QuadratureGrid(degree=64)
    vals = Q.evaluate(probe.xyz)
    crits, converged = find_critical_points(Q)
    cand_max = max(vals.max(), max((p.value for p in crits), default=-np.inf))
    cand_min = min(vals.min(), min((p.value for p in crits), default=np.inf))
    q_max, q_min = float(cand_max), float(cand_min)
    if q_min <= 0:
        raise ValueError("curvature field must be positive on S^2")
    notes = []
    constant = (q_max - q_min) <= _VALUE_TOL * max(1.0, abs(q_max))
    half = 0.5 * q_max                    # 2^{-1/(m-1)} q_max with m = 2
    max_points = [p for p in crits if p.value >= q_max - _VALUE_TOL * max(1.0, q_max)]
    if constant:
        admissible = None
        notes.append("constant curvature: admissible d interval is empty")
    else:
        lo = max(half, q_min)
        for p in crits:
            interior = p.value < q_max - _VALUE_TOL * max(1.0, q_max)
            posdef = p.kind == "min"
            if interior and not posdef and p.value > lo:
                lo = p.value
        admissible = (lo, q_max) if lo < q_max - _VALUE_TOL else None
        if admissible is None:
            notes.append("no admissible d: interior critical values without "
                         "positive-definite Hessian reach the maximum level")
    if Q.is_affine() and not constant:
        notes.append("affine curvature 1 + c.x: known obstruction family, not a "
                     "mean curvature of any conformal immersion (kept as a "
                     "documented negative fixture)")
    return QHypothesisReport(
        q_max=q_max, q_min=q_min, half_threshold=half,
        max_points=max_points, critical_points=crits,
        admissible_d=admissible, constant=constant,
        contractibility="not checked", search_converged=converged, notes=notes,
    )


# -- workspace ----------------------------------------------------------------


@dataclass
class Workspace:
    """Bundles basis, quadrature grid and curvature samples for the solver."""

    basis: SphereBasis
    grid: QuadratureGrid
    Q: PolynomialCurvature

    def __post_init__(self):
        if self.grid.degree < 3 * self.basis.J:
            raise ValueError(
                f"grid degree {self.grid.degree} < 3J = {3 * self.basis.J}: "
                "cubic nonlinearity would alias")
        self.q_nodes = np.asarray(self.Q.evaluate(self.grid.xyz), dtype=float)
        if not np.all((self.q_nodes > 0) & np.isfinite(self.q_nodes)):
            raise ValueError("curvature field must be positive and finite at "
                             "the nodes")
        self.q_integral = float(self.grid.integrate(self.q_nodes))

    def synthesize(self, coeff) -> np.ndarray:
        return self.basis.synthesize(coeff, self.grid)

    def analyze(self, values) -> np.ndarray:
        return self.basis.analyze(values, self.grid)

    def fiber_norm_sq(self, values) -> np.ndarray:
        """|psi|^2 at the nodes from weighted chart values."""
        return self.fiber_re_inner(values, values)

    def fiber_re_inner(self, v1, v2) -> np.ndarray:
        """real(psi, chi) at the nodes, in real arithmetic: per component
        re re + im im, then the two components summed."""
        re = v1.real * v2.real + v1.imag * v2.imag
        return (re[:, 0] + re[:, 1]) / self.grid.f_pref

    def spinor(self, coeff) -> SpectralSpinor:
        return SpectralSpinor(self.basis, np.asarray(coeff, dtype=complex))


def _check_p(p: float):
    if not 2.0 < p <= 4.0:
        raise ValueError(f"exponent p={p} outside (2, 4]")


@dataclass
class EnergyReport:
    value: float
    grad: np.ndarray        # H^{1/2} Riesz representative, coefficient vector
    nonlinear: float        # A(psi) = integral Q |psi|^p


def eval_A(coeff, p: float, ws: Workspace, values=None) -> float:
    """A(psi) = integral Q |psi|^p dvol."""
    _check_p(p)
    if values is None:
        values = ws.synthesize(coeff)
    nsq = ws.fiber_norm_sq(values)
    return float(ws.grid.integrate(ws.q_nodes * nsq ** (p / 2.0)))


def nonlinear_projection(values, p: float, ws: Workspace) -> np.ndarray:
    """Coefficients of Q |psi|^{p-2} psi (the L^2 projection onto the basis)."""
    nsq = ws.fiber_norm_sq(values)
    factor = ws.q_nodes * nsq ** ((p - 2.0) / 2.0)
    return ws.analyze(values * factor[:, None])


def eval_L(coeff, p: float, ws: Workspace, values=None) -> EnergyReport:
    """Value and H^{1/2} gradient of L_p at psi, from its nodal ``values``
    when given (else one synthesis); one analysis either way."""
    _check_p(p)
    coeff = np.asarray(coeff, dtype=complex)
    basis = ws.basis
    if values is None:
        values = ws.synthesize(coeff)
    sq = basis.abs_eigenvalues * np.abs(coeff) ** 2
    plus_sq, minus_sq = (float(np.sum(sq[mask]))
                         for mask in (basis.plus_mask, basis.minus_mask))
    A = eval_A(coeff, p, ws, values=values)
    grad = (np.sign(basis.eigenvalues) * coeff
            - nonlinear_projection(values, p, ws) / basis.abs_eigenvalues)
    return EnergyReport(value=0.5 * (plus_sq - minus_sq) - A / p, grad=grad,
                        nonlinear=A)


class HessianWeights:
    """The pointwise weights of L_p''(psi) at one psi, built once and shared
    by every Hessian product at that psi (a Krylov solve makes all of its
    products at one psi):

        lin  = Q |psi|^{p-2},
        quad = (p-2) Q |psi|^{p-4}  (used where |psi| > 0, 0 at zeros).
    """

    def __init__(self, psi_values, p: float, ws: Workspace):
        _check_p(p)
        self.ws = ws
        self.values = psi_values
        nsq = ws.fiber_norm_sq(psi_values)
        self.pos = nsq > 0
        pw = np.where(self.pos, nsq ** ((p - 2.0) / 2.0), 0.0)
        self.lin = (pw * ws.q_nodes)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.quad = (p - 2.0) * ws.q_nodes * pw / nsq


def hessian_apply(weights: HessianWeights, w_coeff) -> np.ndarray:
    """H^{1/2} Riesz representative of L_p''(psi)[w, .], as a coefficient map,
    at the psi of ``weights``.

    L_p''(psi)[w, v] = real int (Dw, v) - int Q |psi|^{p-2} real(w, v)
                       - (p-2) int Q |psi|^{p-4} real(psi, w) real(psi, v).
    """
    ws = weights.ws
    w_coeff = np.asarray(w_coeff, dtype=complex)
    w_values = ws.synthesize(w_coeff)
    dot = ws.fiber_re_inner(weights.values, w_values)
    # |psi|^{p-4} real(psi,w): continuous at zeros for p > 2, set 0 there
    quad = np.where(weights.pos, weights.quad * dot, 0.0)
    field = weights.lin * w_values + quad[:, None] * weights.values
    M = ws.analyze(field)
    basis = ws.basis
    return np.sign(basis.eigenvalues) * w_coeff - M / basis.abs_eigenvalues


# -- Rayleigh quotient --------------------------------------------------------


def eval_rayleigh(coeff, p: float, ws: Workspace) -> float:
    """R_p(psi) = int (D psi, psi) / A(psi)^{2/p}; scale invariant."""
    _check_p(p)
    coeff = np.asarray(coeff, dtype=complex)
    A = eval_A(coeff, p, ws)
    if A <= 0:
        raise ValueError("Rayleigh quotient undefined: A(psi) = 0")
    num = float(np.sum(ws.basis.eigenvalues * np.abs(coeff) ** 2))
    return num / A ** (2.0 / p)
