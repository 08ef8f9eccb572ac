"""Reduction couple, Nehari projection, tau estimation and the continuation solver.

The continuation driver walks a schedule p_0 < p_1 < ... < 4, warm starting
each stage, and solves L_p'(psi) = 0 for the full psi = u + h by Newton,
each step by MINRES in the H^{1/2} metric.  It watches the concentration
function Theta(r) = max_a integral_{B_r(a)} |psi|^p dvol and a clamped
barycenter of the |psi|^4 mass; persistent capture of 90% mass at radii of a
few grid spacings is declared blow-up and reported with the concentration
point and a fitted bubble profile.

The reduction of the saddle structure scales the start onto the Nehari set
and serves ``estimate_tau`` and the variational checks:

* ``reduce_minus``: for u in E^+, the unique maximizer h_p(u) of the strictly
  concave v -> L_p(u + v) on E^- (Newton, each step by the same MINRES on
  full-length vectors that vanish on E^+; L_p'' <= -id there, so the
  system is definite and well conditioned).  I_p(u) = L_p(u + h_p(u)).
* ``nehari_project``: the unique t(u) > 0 with d/dt I_p(t u) = 0, on the
  natural constraint N_p = {I_p'(u)[u] = 0}; I_p(t u) has a single interior
  maximum on each ray (Szulkin-Weth), so Newton in t is safe, with
  bracketing + Brent as the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import _MAX_BUBBLE_DEGREE, Bubble, bubble_to_sphere, rotation_to_north
from .energy import (EnergyReport, HessianWeights, Workspace, eval_A,
                     eval_L_parts, eval_rayleigh, hessian_apply,
                     nonlinear_projection, _check_p)
from .spectral import SpectralSpinor, h_inner, h_norm

# -- inner problem: maximize over E^- -----------------------------------------


@dataclass
class ReductionResult:
    h: np.ndarray               # E^- maximizer coefficients
    psi: np.ndarray             # u + h
    values: np.ndarray          # nodal values of psi (ws.synthesize(psi))
    value: float                # L_p(u + h) = I_p(u)
    grad: np.ndarray            # full H^{1/2} gradient of L_p at psi
    residual_minus: float       # H^{1/2} norm of the E^- gradient (Eq. hlm proxy)
    iterations: int


def _gradient(psi, values, p: float, ws: Workspace) -> np.ndarray:
    """Full H^{1/2} gradient of L_p at psi, from its nodal values."""
    basis = ws.basis
    return (np.sign(basis.eigenvalues) * psi
            - nonlinear_projection(values, p, ws) / basis.abs_eigenvalues)


# cap on the Newton steps of one reduction
_REDUCE_STEPS = 60


def reduce_minus(u_coeff, p: float, ws: Workspace, v0=None,
                 tol_inner: float = 1e-10) -> ReductionResult:
    """h_p(u): the unique E^- maximizer of v -> L_p(u + v), in at most
    ``_REDUCE_STEPS`` Newton steps.

    An accepted line-search trial keeps its nodal values, so each iterate is
    synthesized once, and the result carries the last iterate's value,
    gradient and values.
    """
    _check_p(p)
    basis = ws.basis
    neg = basis.minus_mask
    u_coeff = np.asarray(u_coeff, dtype=complex)
    v = np.zeros_like(u_coeff) if v0 is None else np.where(neg, v0, 0.0)
    psi = u_coeff + v
    values = ws.synthesize(psi)
    val = eval_L_parts(psi, p, ws, values=values).value
    # absolute tolerance for O(1) fields; large-amplitude states carry a
    # proportionally larger roundoff floor in the gradient.  With v0=None
    # the start values are u's own.
    A_u = eval_A(u_coeff, p, ws, values=values if v0 is None else None)
    scale = max(1.0, A_u ** ((p - 1.0) / p))
    tol_eff = tol_inner * scale
    for it in range(_REDUCE_STEPS + 1):
        grad = _gradient(psi, values, p, ws)
        g = np.where(neg, grad, 0.0)
        res = h_norm(basis, g)
        finite = math.isfinite(res) and math.isfinite(val)
        if res <= tol_eff or it == _REDUCE_STEPS or not finite:
            break
        delta = _minus_solve(HessianWeights(values, p, ws), g,
                             tol=min(0.1 * res, res * res, tol_eff))
        step = 1.0
        for _ in range(30):
            v_try = v + step * delta
            psi_try = u_coeff + v_try
            values_try = ws.synthesize(psi_try)
            val_try = eval_L_parts(psi_try, p, ws, values=values_try).value
            if val_try >= val - 1e-14 * abs(val):
                v, psi, values, val = v_try, psi_try, values_try, val_try
                break
            step *= 0.5
        else:
            break
    if not finite:
        raise SolveFailure(f"non-finite iterate in the inner reduction "
                           f"(value {val}, residual {res})")
    if res > 10 * tol_eff:
        raise SolveFailure(
            f"inner reduction did not reach tol_inner={tol_inner:g} "
            f"(residual {res:.3e}); the problem is concave, this indicates "
            "an aliasing or conditioning issue")
    return ReductionResult(h=v, psi=psi, values=values, value=val, grad=grad,
                           residual_minus=res, iterations=it)


# -- Nehari projection ---------------------------------------------------------


@dataclass
class NehariState:
    t: float                    # scaling with t u on the Nehari set
    u: np.ndarray               # scaled E^+ coefficients, on N_p
    h: np.ndarray               # h_p(t u)
    value: float                # I_p(t u)
    ray_second_derivative: float  # d^2/dt^2 I_p(t u0) at the root, u0 = u/||u||
    reduction: ReductionResult  # the reduction at u; h and value are its own


def _reduced_hessian(weights: HessianWeights, w, tol_inner: float):
    """E^+ Riesz representative of I_p''(u)[w, .] at psi = u + h_p(u), the
    psi of ``weights``.

    The inner correction h_p'(u) w solves the E^- block; then
    I_p''(u)[w, .] = L_p''(psi)[w + h_p'(u) w, .] on E^+.
    """
    basis = weights.ws.basis
    full = np.where(basis.plus_mask, w, 0.0)
    rhs = np.where(basis.minus_mask, hessian_apply(weights, full), 0.0)
    tot = full + _minus_solve(weights, rhs, tol=0.01 * tol_inner ** 0.5)
    out = hessian_apply(weights, tot)
    return np.where(basis.plus_mask, out, 0.0)


# relative tolerance on the Nehari scale t, for Newton and for Brent
_TOL_T = 1e-12


def _bracket_root(slope, t: float, s: float) -> float:
    """Root of a slope that is positive near 0 and negative far out, from a
    point t whose slope s is already known: double t while the slope stays
    positive, or halve it while it stays negative, then Brent on the last
    two points, which reuses their slopes."""
    known = {t: s}

    def known_slope(x):
        if x not in known:
            known[x] = slope(x)
        return known[x]

    factor = 2.0 if s > 0 else 0.5
    for _ in range(80):
        t_next = t * factor
        s_next = known_slope(t_next)
        if (s_next > 0) != (s > 0):
            break
        t, s = t_next, s_next
    else:
        raise RuntimeError("Nehari bracketing failed: the slope keeps its sign")
    from scipy.optimize import brentq

    return brentq(known_slope, min(t, t_next), max(t, t_next), xtol=_TOL_T,
                  rtol=8.8817841970012523e-16)


def nehari_project(u_coeff, p: float, ws: Workspace,
                   tol_inner: float = 1e-10) -> NehariState:
    """Scale u onto the Nehari set: the unique root of s(t) = d/dt I_p(t u0).

    Newton in t from the incoming scale t = ||u||, with s'(t) from one
    reduced Hessian product; it stops once |s/s'| <= _TOL_T max(t, 1).  A
    step with s' >= 0 or leaving [t/2, 2t], or more than 8 steps, hands
    over to bracketing outward from the last Newton t, and Brent.  The
    reduction at the accepted t is the last one made, so the root costs no
    extra solve.
    """
    _check_p(p)
    u_coeff = np.asarray(u_coeff, dtype=complex)
    unorm = h_norm(ws.basis, u_coeff)
    if unorm == 0:
        raise ValueError("cannot project the zero direction")
    u0 = u_coeff / unorm
    cache = {"h": None}

    def slope(t):
        red = reduce_minus(t * u0, p, ws, v0=cache["h"], tol_inner=tol_inner)
        cache["h"] = red.h
        cache["red"] = red
        cache["t"] = t
        return h_inner(ws.basis, red.grad, u0)

    def ray_curvature():
        weights = HessianWeights(cache["red"].values, p, ws)
        return h_inner(ws.basis, _reduced_hessian(weights, u0, tol_inner), u0)

    t_root = None
    t = unorm
    for _ in range(8):
        s = slope(t)
        d2 = ray_curvature()
        if not d2 < 0:
            break
        step = s / d2
        if abs(step) <= _TOL_T * max(t, 1.0):
            t_root = t
            break
        if not 0.5 * t <= t - step <= 2.0 * t:
            break
        t -= step
    if t_root is None:
        t_root = _bracket_root(slope, cache["t"], s)
        if cache["t"] != t_root:
            slope(t_root)
        d2 = ray_curvature()
    red = cache["red"]
    return NehariState(t=t_root / unorm, u=t_root * u0, h=red.h, value=red.value,
                       ray_second_derivative=d2, reduction=red)


def nehari_defect(u_coeff, p: float, ws: Workspace,
                  state: ReductionResult | EnergyReport) -> float:
    """L_p'(psi)[u] for the E^+ part u of psi, from the full gradient
    ``state.grad`` at psi.  At psi = u + h_p(u) it is H_p(u) = I_p'(u)[u],
    zero on the Nehari set."""
    return h_inner(ws.basis, state.grad, np.where(ws.basis.plus_mask, u_coeff, 0.0))


# -- F_p and tau ----------------------------------------------------------------


@dataclass
class TauEstimate:
    values: np.ndarray          # F_p over the sample directions (physical Q)
    values_normalized: np.ndarray
    minimum: float


def estimate_tau(p: float, ws: Workspace, samples) -> TauEstimate:
    """Upper estimate of tau_p = inf F_p from a fixed set of E^+ directions.

    F_p(u) = R_p(t u + h_p(t u)) at the Nehari scale t.  ``values`` uses the
    physical Q; ``values_normalized`` rescales to the integral-one
    normalization of Q under which p -> F_p(u) is pointwise non-increasing.
    (The two differ by the constant (int Q)^{2/p}.)
    """
    vals = np.array([eval_rayleigh(nehari_project(u, p, ws).reduction.psi, p, ws)
                     for u in samples])
    vals_norm = vals * ws.q_integral ** (2.0 / p)
    return TauEstimate(values=vals, values_normalized=vals_norm,
                       minimum=float(vals.min()))


# -- concentration diagnostics ---------------------------------------------------

# cap masses this fraction of the total mass apart tie (FFT roundoff is ~1e-16)
_TIE = 1e-12


def concentration_profile(values, p: float, ws: Workspace, radii):
    """Theta(r) = max over centers of the |psi|^p mass in geodesic r-balls.

    Centers range over the grid nodes.  Returns (theta, centers): per radius
    the maximizing node index and its cap mass.  Tie rule: the center is the
    lowest node index whose cap mass is within 1e-12 of the total mass
    (``_TIE``) of the largest, so nodes of equal mass up to roundoff resolve
    the same way on every summation path.

    The grid is invariant under longitude steps, so the cap mass at node
    (ring r, longitude l) is the circular correlation
    sum_s sum_d density[s, l + d] [ang[r, s, d] <= R] with the grid's ring
    angle table; one real FFT per ring pair gives it at every node, in
    O(n_theta^2 n_phi) memory.  The center's own cap mass is then summed
    directly in its frame, so theta is exactly invariant under longitude
    rolls of the density.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    grid = ws.grid
    nsq = ws.fiber_norm_sq(np.asarray(values))
    density = (grid.weights * nsq ** (p / 2.0)).reshape(grid.n_theta, grid.n_phi)
    tie = _TIE * float(density.sum())
    ang = grid.ring_angles()
    density_hat = np.fft.rfft(density, axis=1)
    theta = np.empty(radii.size)
    centers = np.empty(radii.size, dtype=int)
    for i, r in enumerate(radii):
        cap = ang <= r
        masses_hat = (np.fft.rfft(cap, axis=2).conj() * density_hat).sum(axis=1)
        masses = np.fft.irfft(masses_hat, n=grid.n_phi, axis=1).ravel()
        centers[i] = int(np.argmax(masses >= masses.max() - tie))
        ring, lon = divmod(int(centers[i]), grid.n_phi)
        theta[i] = float(np.roll(density, -lon, axis=1)[cap[ring]].sum())
    return theta, centers


def _rows_dot(xyz, v) -> np.ndarray:
    """xyz @ v for rows xyz (n, 3) and a 3-vector v, as explicit products
    and sums: no BLAS call, so the same bits at any BLAS thread count."""
    return xyz[:, 0] * v[0] + xyz[:, 1] * v[1] + xyz[:, 2] * v[2]


def _weighted_sum(density, points) -> np.ndarray:
    """density @ points for points (n, d), one numpy pairwise sum per
    coordinate (no BLAS call)."""
    return np.array([np.sum(density * points[:, k]) for k in range(points.shape[1])])


def barycenter(values, ws: Workspace, pole, clamp_radius: float) -> np.ndarray:
    """Clamped barycenter of the |psi|^4 mass in the chart that projects from
    ``pole`` (the chart covers the sphere minus the pole)."""
    pole = np.asarray(pole, dtype=float)
    rotation = rotation_to_north(-pole / np.linalg.norm(pole))
    rotated = np.stack([_rows_dot(ws.grid.xyz, row) for row in rotation], axis=1)
    # a node within 1e-12 of the projection pole maps to infinity in a
    # direction roundoff picks; it gets zeta = 0, the mean of the clamp circle
    at_pole = rotated[:, 2] <= -1.0 + 1e-12
    z = np.where(at_pole, 0.0, rotated[:, 0] + 1j * rotated[:, 1]) / np.where(
        at_pole, 1.0, 1.0 + rotated[:, 2])
    pts = np.stack([z.real, z.imag], axis=1)
    r = np.linalg.norm(pts, axis=1)
    scalefac = np.where(r > clamp_radius, clamp_radius / np.maximum(r, 1e-300), 1.0)
    zeta = pts * scalefac[:, None]
    nsq = ws.fiber_norm_sq(np.asarray(values))
    density = ws.grid.weights * nsq**2
    total = float(density.sum())
    if total <= 0:
        raise ValueError("barycenter undefined: |psi|^4 mass vanishes")
    return _weighted_sum(density, zeta) / total


# -- continuation driver ----------------------------------------------------------


class SolveFailure(RuntimeError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class BlowUpDetected(SolveFailure):
    def __init__(self, message, trace, point, stage_p, rho_hat, profile_distance):
        super().__init__(message, trace)
        self.point = point
        self.stage_p = stage_p
        self.rho_hat = rho_hat
        self.profile_distance = profile_distance


class StagnationDetected(SolveFailure):
    def __init__(self, message, trace, stage_p, residual):
        super().__init__(message, trace)
        self.stage_p = stage_p
        self.residual = residual


@dataclass
class StageSummary:
    p: float
    iterations: int
    value: float
    residual: float
    capture_radius: float
    barycenter: np.ndarray
    min_psi: float
    warm_start_value: float


@dataclass
class SolverTrace:
    schedule: list
    rows: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def add_row(self, **kw):
        self.rows.append(kw)

    def to_csv(self, path):
        import json

        cols = ["kind", "stage", "p", "iter", "value", "residual",
                "nehari_defect", "capture_radius", "bary_x", "bary_y", "min_psi"]
        with open(path, "w") as fh:
            fh.write("# diracsphere-trace v1\n")
            fh.write("# config " + json.dumps(self.config, sort_keys=True) + "\n")
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                out = []
                for c in cols:
                    v = row.get(c, "")
                    out.append(repr(v) if isinstance(v, float) else str(v))
                fh.write(",".join(out) + "\n")


@dataclass
class ContinuationResult:
    psi: SpectralSpinor
    trace: SolverTrace
    final_residual: float
    value: float                # L_4 at psi


# Newton-MINRES: products per MINRES, the largest forcing term (the MINRES
# relative tolerance is min(_FORCING, ||L_p'||)), step halvings per step
_MINRES_STEPS = 200
_FORCING = 1e-2
_BACKTRACK = 30


def _minres(apply_op, b, lam, rtol, max_iter):
    """MINRES (Paige-Saunders) for apply_op(x) = b, apply_op self-adjoint in
    the real metric sum lam re(x conj y), from x = 0, until the residual norm
    is at most ``rtol`` ||b|| or after ``max_iter`` products; with
    ``rtol`` >= 1 it makes no product.  The inner products are numpy
    pairwise sums (no BLAS dot: the same bits at any BLAS thread count).
    The Krylov space of b stays in the range of apply_op, so a singular but
    consistent system gets a finite solution."""
    def dot(a, c):
        return float(np.sum(lam * np.real(a * np.conj(c))))

    x = np.zeros_like(b)
    beta1 = math.sqrt(max(dot(b, b), 0.0))
    if beta1 == 0:
        return x
    v_prev, v, beta = x, b / beta1, 0.0
    d_prev = d = x
    phi, c, s, dbar, eps = beta1, -1.0, 0.0, 0.0, 0.0
    for _ in range(max_iter):
        if phi <= rtol * beta1:
            break
        # Lanczos: beta_next v_next = A v - alpha v - beta v_prev
        Av = apply_op(v)
        alpha = dot(v, Av)
        Av = Av - alpha * v - beta * v_prev
        beta_next = math.sqrt(max(dot(Av, Av), 0.0))
        # the previous Givens rotation on the new tridiagonal column, then
        # the rotation that annihilates beta_next
        delta = c * dbar + s * alpha
        gbar = s * dbar - c * alpha
        eps_next = s * beta_next
        dbar = -c * beta_next
        gamma = math.hypot(gbar, beta_next)
        if gamma == 0:
            break
        c, s = gbar / gamma, beta_next / gamma
        d_prev, d = d, (v - delta * d - eps * d_prev) / gamma
        x = x + (c * phi) * d
        phi *= s
        eps = eps_next
        if beta_next == 0:
            break
        v_prev, v, beta = v, Av / beta_next, beta_next
    return x


def _minus_solve(weights: HessianWeights, rhs, tol):
    """Solve (-L_p'' restricted to E^-) x = rhs for rhs in E^-, at the psi of
    ``weights``, by ``_minres`` on full-length vectors that vanish on E^+,
    until the residual norm is at most ``tol``.  In Riesz form the operator
    is x + M(x)/|lambda| >= identity on E^-, so MINRES converges fast."""
    basis = weights.ws.basis
    neg = basis.minus_mask
    return _minres(lambda x: np.where(neg, -hessian_apply(weights, x), 0.0), rhs,
                   basis.abs_eigenvalues, tol / max(h_norm(basis, rhs), tol),
                   _MINRES_STEPS)


def _stage_diagnostics(values, p, ws, radii, pole, clamp_radius, capture):
    theta, centers = concentration_profile(values, p, ws, radii)
    nsq = ws.fiber_norm_sq(values)
    total = float(ws.grid.integrate(nsq ** (p / 2.0)))
    min_psi = float(np.sqrt(max(nsq.min(), 0.0)))
    frac = theta / max(total, 1e-300)
    above = np.nonzero(frac >= capture)[0]
    cap_r = float(radii[above[0]]) if above.size else float("inf")
    center = ws.grid.xyz[centers[above[0]]] if above.size else ws.grid.xyz[centers[-1]]
    bary = barycenter(values, ws, pole, clamp_radius)
    return cap_r, center, bary, min_psi


def _newton_state(psi, values, p: float, ws: Workspace) -> EnergyReport:
    """L_p and its full gradient at psi, from its nodal values."""
    rep = eval_L_parts(psi, p, ws, values=values)
    rep.grad = _gradient(psi, values, p, ws)
    return rep


def solve_continuation(ws: Workspace, schedule, init: SpectralSpinor | Bubble,
                       tol_final: float = 1e-7, tol_stage: float = 1e-6,
                       tol_inner: float = 1e-10, max_outer: int = 200,
                       blowup_capture: float = 0.9,
                       blowup_spacing_factor: float = 5.0,
                       clamp_radius: float = 10.0,
                       config_echo: dict | None = None) -> ContinuationResult:
    """Walk the exponent schedule up to the critical p = 4, warm starting.

    The start is scaled onto the first stage's Nehari set once, with inner
    reductions to ``tol_inner``.  Each stage then makes at most ``max_outer``
    Newton steps on psi: MINRES on L_p'' delta = -L_p'(psi) to the relative
    tolerance min(1e-2, ||L_p'||) (``hessian_apply`` is the Riesz form of
    L_p'', spectrum near +-1: no preconditioner), then halving s until
    ||L_p'|| falls by the factor 1 - 1e-4 s.  The residual is the full
    gradient norm ||L_p'(psi)||.  The monitor's barycenter chart projects
    from the node where Q is least.

    Raises BlowUpDetected or StagnationDetected on the corresponding failure
    modes, and SolveFailure when the start's inner reduction misses
    tol_inner or an iterate is not finite; each carries the trace.
    """
    schedule = list(schedule)
    if not schedule or abs(schedule[-1] - 4.0) > 1e-12:
        raise ValueError("schedule must end at the critical exponent 4.0")
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or schedule[0] <= 2.0:
        raise ValueError("schedule must be strictly increasing inside (2, 4]")

    if isinstance(init, Bubble):
        psi0, _ = bubble_to_sphere(init, ws.basis, require_capture=True)
    else:
        psi0 = init
    basis = ws.basis
    u = np.where(basis.plus_mask, psi0.coeff, 0.0)
    with np.errstate(over="ignore"):
        unorm = h_norm(basis, u)
    if unorm == 0:
        raise ValueError("initialization has no E^+ part")

    monitor_pole = ws.grid.xyz[int(np.argmin(ws.q_nodes))]
    spacing = ws.grid.mean_spacing()
    radii = np.array(sorted({round(k * spacing, 12) for k in (1, 2, 3, 4, 5, 6, 8)}
                            | {0.3, 0.5, 0.8, 1.2, 1.7, 2.3, math.pi}))

    trace = SolverTrace(schedule=schedule, config=config_echo or {})
    if not math.isfinite(unorm):
        raise SolveFailure(f"non-finite iterate in the initial state "
                           f"(H^1/2 norm {unorm})", trace)
    prev_capture_small = False

    try:
        for stage, p in enumerate(schedule):
            tol = tol_final if stage == len(schedule) - 1 else tol_stage
            if stage == 0:
                cur = nehari_project(u, p, ws, tol_inner=tol_inner).reduction
                psi, values = cur.psi, cur.values
            else:
                cur = _newton_state(psi, values, p, ws)
            warm_value = cur.value
            res = h_norm(basis, cur.grad)
            it = 0
            for it in range(max_outer):
                if not math.isfinite(res):
                    raise SolveFailure(
                        f"non-finite iterate at stage {stage}, iteration {it}")
                trace.add_row(kind="iter", stage=stage, p=p, iter=it, value=cur.value,
                              residual=res, nehari_defect=nehari_defect(psi, p, ws, cur))
                if res <= tol:
                    break
                weights = HessianWeights(values, p, ws)
                delta = _minres(lambda d: hessian_apply(weights, d), -cur.grad,
                                basis.abs_eigenvalues, min(_FORCING, res), _MINRES_STEPS)
                step = 1.0
                for _ in range(_BACKTRACK):
                    psi_try = psi + step * delta
                    values_try = ws.synthesize(psi_try)
                    trial = _newton_state(psi_try, values_try, p, ws)
                    res_try = h_norm(basis, trial.grad)
                    if res_try <= (1.0 - 1e-4 * step) * res:
                        psi, values, cur, res = psi_try, values_try, trial, res_try
                        break
                    step *= 0.5
                else:
                    break
            defect = nehari_defect(psi, p, ws, cur)
            cap_r, center, bary, min_psi = _stage_diagnostics(
                values, p, ws, radii, monitor_pole, clamp_radius, blowup_capture)
            trace.add_row(kind="stage", stage=stage, p=p, iter=it, value=cur.value,
                          residual=res, nehari_defect=defect,
                          capture_radius=cap_r, bary_x=float(bary[0]),
                          bary_y=float(bary[1]), min_psi=min_psi)
            trace.stages.append(StageSummary(
                p=p, iterations=it + 1, value=cur.value, residual=res,
                capture_radius=cap_r, barycenter=bary, min_psi=min_psi,
                warm_start_value=warm_value))

            capture_small = cap_r <= blowup_spacing_factor * spacing
            if capture_small and prev_capture_small:
                center = _local_mass_center(values, p, ws, center, 2.5 * spacing)
                nsq_max = float(ws.fiber_norm_sq(values).max())
                q_at = float(ws.Q.evaluate(center[None])[0])
                rho_hat = 1.0 / max(q_at * nsq_max, 1e-300)
                prof_dist = _bubble_profile_distance(psi, center, rho_hat, q_at, ws)
                raise BlowUpDetected(
                    f"concentration captured {blowup_capture:.0%} of |psi|^p mass "
                    f"within {cap_r:.3f} rad at stages p={schedule[stage-1]:.3g}, "
                    f"p={p:.3g}", trace, point=center, stage_p=p, rho_hat=rho_hat,
                    profile_distance=prof_dist)
            prev_capture_small = capture_small
            if res > tol:
                raise StagnationDetected(
                    f"stage p={p} stalled at residual {res:.3e} (tol {tol:g})",
                    trace, stage_p=p, residual=res)

    except SolveFailure as exc:
        if exc.trace is None:
            exc.trace = trace
        raise

    return ContinuationResult(psi=SpectralSpinor(basis, psi), trace=trace,
                              final_residual=res, value=cur.value)


def _local_mass_center(values, p, ws, center, radius) -> np.ndarray:
    """Sub-grid concentration point: |psi|^p-weighted mean near the peak node."""
    nsq = ws.fiber_norm_sq(np.asarray(values))
    density = ws.grid.weights * nsq ** (p / 2.0)
    dots = _rows_dot(ws.grid.xyz, np.asarray(center, dtype=float))
    mask = dots >= math.cos(radius)
    if not np.any(mask):
        return np.asarray(center, dtype=float)
    mean = _weighted_sum(density[mask], ws.grid.xyz[mask])
    nrm = math.sqrt(float(np.sum(mean * mean)))
    return mean / nrm if nrm > 0 else np.asarray(center, dtype=float)


def _bubble_profile_distance(psi_coeff, center, rho_hat, q_at, ws) -> float:
    """Relative L^2 distance between an iterate and the fitted bubble profile;
    the scale is clamped to the smallest one the transport grid resolves."""
    rho = min(max(rho_hat, 16.0 / _MAX_BUBBLE_DEGREE), 2.0)
    bub, _ = bubble_to_sphere(Bubble(center=center, rho=rho, q_center=q_at), ws.basis)
    a = np.asarray(psi_coeff)
    b = bub.coeff
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return float("nan")
    # compare shapes modulo scale and global phase
    inner = np.vdot(b, a)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a / na - phase * b / nb))
