"""Reduction couple, Nehari projection, tau estimation and the continuation solver.

One Newton-MINRES iteration, ``_newton``, solves L_p' = 0 on a set of
coefficients: each value and gradient of L_p is one ``eval_L``, each step
one MINRES in the H^{1/2} metric on the Hessian restricted to the set.

The continuation driver walks a schedule p_0 < p_1 < ... < 4, warm starting
each stage, and runs it on every coefficient of psi = u + h.  It watches
the sup-norm scale rho_hat = 1/(Q |psi|^2) at the node where |psi|^2 is
largest (a bubble of scale rho at y has |psi|^2max = 1/(Q(y) rho)) and a
clamped barycenter of the |psi|^4 mass; rho_hat at most 1.5 grid spacings
at two stages in a row is declared blow-up and reported with the
concentration point and a fitted bubble profile.  A stage's trace row is
its only record.

The reduction of the saddle structure scales the start onto the Nehari set
and serves ``estimate_tau`` and the variational checks:

* ``reduce_minus``: for u in E^+, the unique maximizer h_p(u) of the strictly
  concave v -> L_p(u + v) on E^-, by the same iteration on the E^-
  coefficients (L_p'' <= -id there, so the system is definite and well
  conditioned).  I_p(u) = L_p(u + h_p(u)).
* ``nehari_project``: the unique t(u) > 0 with d/dt I_p(t u) = 0, on the
  natural constraint N_p = {I_p'(u)[u] = 0}; I_p'(t u)[u]/t decreases
  strictly, so each ray meets N_p once (Szulkin-Weth), and one safeguarded
  Newton in t^(p-2), started where the ray meets the Nehari set of L_p
  itself, finds it at any scale of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import _MAX_BUBBLE_DEGREE, Bubble, bubble_to_sphere, chart_at
from .energy import (EnergyReport, HessianWeights, Workspace, eval_A, eval_L,
                     eval_rayleigh, hessian_apply, _check_p)
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


# cap on the Newton steps of one reduction, and its tolerance on the E^-
# gradient of an O(1) field
_REDUCE_STEPS = 60
_TOL_INNER = 1e-10


def reduce_minus(u_coeff, p: float, ws: Workspace, v0=None) -> ReductionResult:
    """h_p(u) for u in E^+: the unique E^- maximizer of v -> L_p(u + v), by
    ``_newton`` on the E^- coefficients from u + v0 (u when v0 is None), in
    at most ``_REDUCE_STEPS`` steps.

    Each iterate is synthesized and analyzed once; the result carries the
    last iterate's values, value and gradient.
    """
    _check_p(p)
    neg = ws.basis.minus_mask
    u_coeff = np.asarray(u_coeff, dtype=complex)
    psi = u_coeff + np.where(neg, 0.0 if v0 is None else v0, 0.0)
    values = ws.synthesize(psi)
    cur = eval_L(psi, p, ws, values=values)
    # absolute tolerance for O(1) fields; large-amplitude states carry a
    # proportionally larger roundoff floor in the gradient.  The scale is A
    # at the start u + v0: A(u) itself when v0 is None, and of the same size
    # for a warm start
    tol = _TOL_INNER * max(1.0, cur.nonlinear ** ((p - 1.0) / p))
    for it, (psi, values, cur, res) in zip(range(_REDUCE_STEPS + 1),
                                           _newton(psi, values, cur, p, ws, neg)):
        finite = math.isfinite(res) and math.isfinite(cur.value)
        if res <= tol or not finite:
            break
    if not finite:
        raise SolveFailure(f"non-finite iterate in the inner reduction "
                           f"(value {cur.value}, residual {res})")
    if res > 10 * tol:
        raise SolveFailure(
            f"inner reduction did not reach its tolerance {tol:.3e} "
            f"(residual {res:.3e}); the problem is concave, this indicates "
            "an aliasing or conditioning issue")
    return ReductionResult(h=np.where(neg, psi, 0.0), psi=psi, values=values,
                           value=cur.value, grad=cur.grad, residual_minus=res,
                           iterations=it)


# -- Nehari projection ---------------------------------------------------------


@dataclass
class NehariState:
    t: float                    # scaling with t u on the Nehari set
    u: np.ndarray               # scaled E^+ coefficients, on N_p
    ray_second_derivative: float  # d^2/dt^2 I_p(t u0) at the root, u0 = u/||u||
    reduction: ReductionResult  # the reduction at u: h_p(t u) and I_p(t u)


def _reduced_hessian(weights: HessianWeights, w):
    """E^+ Riesz representative of I_p''(u)[w, .] at psi = u + h_p(u), the
    psi of ``weights``.

    The inner correction h_p'(u) w solves the E^- block of L_p'' against
    -L_p''(psi)[w] on E^-, to the relative tolerance 0.01 sqrt(_TOL_INNER);
    then I_p''(u)[w, .] = L_p''(psi)[w + h_p'(u) w, .] on E^+.
    """
    basis = weights.ws.basis
    full = np.where(basis.plus_mask, w, 0.0)
    rhs = np.where(basis.minus_mask, hessian_apply(weights, full), 0.0)
    tot = full - _masked_solve(weights, rhs, basis.minus_mask, 0.01 * _TOL_INNER ** 0.5)
    out = hessian_apply(weights, tot)
    return np.where(basis.plus_mask, out, 0.0)


# relative tolerance on the Nehari scale t, and the cap on its Newton steps
_TOL_T = 1e-12
_NEHARI_STEPS = 40


def nehari_project(u_coeff, p: float, ws: Workspace) -> NehariState:
    """Scale u onto the Nehari set: the root of s(t) = d/dt I_p(t u0), u0 =
    u/||u||, where g = s/t decreases strictly.  From the root for L_p on the
    ray alone, t = A(u0)^(-1/(p-2)) at any scale of u, each step makes one
    reduction (g) and one reduced Hessian product (s') and takes Newton in
    x = t^(p-2), t <- t (1 - (p-2) g/(s' - g))^(1/(p-2)), exact for a pure
    power law, until the step is at most _TOL_T t.  A step outside the sign
    bracket of g seen so far takes its geometric midpoint, or doubles or
    halves t while one end is open.  The reduction at the accepted t is the
    last one made."""
    _check_p(p)
    u_coeff = np.asarray(u_coeff, dtype=complex)
    # scaled by its largest entry first: the norm of a tiny u underflows
    umax = float(np.abs(u_coeff).max())
    if umax == 0:
        raise ValueError("cannot project the zero direction")
    unit = u_coeff / umax
    unorm = h_norm(ws.basis, unit)
    u0 = unit / unorm
    t = eval_A(u0, p, ws) ** (-1.0 / (p - 2.0))
    lo, hi, red = 0.0, math.inf, None
    for _ in range(_NEHARI_STEPS):
        red = reduce_minus(t * u0, p, ws, v0=None if red is None else red.h)
        g = h_inner(ws.basis, red.grad, u0) / t
        d2 = h_inner(ws.basis, _reduced_hessian(HessianWeights(red.values, p, ws),
                                                u0), u0)
        # x_new / x for Newton in x = t^(p-2) (d2 < g because g decreases);
        # its power is the exp of a clipped log, so it cannot overflow
        ratio = 1.0 - (p - 2.0) * g / (d2 - g) if d2 < g else math.nan
        t_new = (t * math.exp(min(math.log(ratio) / (p - 2.0), 700.0))
                 if ratio > 0 else math.nan)
        if abs(t_new - t) <= _TOL_T * t:
            return NehariState(t=t / unorm / umax, u=t * u0,
                               ray_second_derivative=d2, reduction=red)
        lo, hi = (t, hi) if g > 0 else (lo, t)
        if not lo < t_new < hi:
            t_new = 2.0 * lo if hi == math.inf else (
                0.5 * hi if lo == 0 else math.sqrt(lo * hi))
        t = t_new
    raise SolveFailure(f"Nehari projection did not converge in {_NEHARI_STEPS} "
                       f"steps (t {t:.6e}, bracket [{lo:.6e}, {hi:.6e}])")


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
    sum_s sum_d density[s, l + d] [ang[r, s, d] <= R], with ang[r, s, d] the
    angle between nodes (r, 0) and (s, d), built per call; one real FFT per
    ring pair gives it at every node, in O(n_theta^2 n_phi) memory.  The center's own cap mass is then summed
    directly in its frame, so theta is exactly invariant under longitude
    rolls of the density.  No solve calls it: the monitor reads rho_hat.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    grid = ws.grid
    nsq = ws.fiber_norm_sq(np.asarray(values))
    density = (grid.weights * nsq ** (p / 2.0)).reshape(grid.n_theta, grid.n_phi)
    tie = _TIE * float(density.sum())
    meridian = grid.xyz[:: grid.n_phi]
    rings = grid.xyz.reshape(grid.n_theta, grid.n_phi, 3)
    dots = sum(meridian[:, None, None, k] * rings[None, :, :, k] for k in range(3))
    ang = np.arccos(np.clip(dots, -1.0, 1.0))
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


def _weighted_sum(density, points) -> np.ndarray:
    """density @ points for points (n, d), one numpy pairwise sum per
    coordinate (no BLAS call)."""
    return np.array([np.sum(density * points[:, k]) for k in range(points.shape[1])])


def barycenter(values, ws: Workspace, pole, clamp_radius: float) -> np.ndarray:
    """Clamped barycenter of the |psi|^4 mass in the chart that projects from
    ``pole`` (the chart covers the sphere minus the pole), the chart centred
    at -pole of ``chart_at``."""
    z = ws.grid.chart_a
    zeta, g = chart_at(-np.asarray(pole, dtype=float), z)
    # a node within 1e-12 of the projection pole (1 + x3 <= 1e-12 after the
    # rotation, i.e. 2 |g|^2 <= 1e-12 (1 + |z|^2)) maps to infinity in a
    # direction roundoff picks; it gets zeta = 0, the mean of the clamp circle
    at_pole = 2.0 * np.abs(g) ** 2 <= 1e-12 * (1.0 + np.abs(z) ** 2)
    zeta = np.where(at_pole, 0.0, zeta)
    pts = np.stack([zeta.real, zeta.imag], axis=1)
    r = np.linalg.norm(pts, axis=1)
    scalefac = np.where(r > clamp_radius, clamp_radius / np.maximum(r, 1e-300), 1.0)
    pts = pts * scalefac[:, None]
    nsq = ws.fiber_norm_sq(np.asarray(values))
    density = ws.grid.weights * nsq**2
    total = float(density.sum())
    if total <= 0:
        raise ValueError("barycenter undefined: |psi|^4 mass vanishes")
    return _weighted_sum(density, pts) / total


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
class SolverTrace:
    rows: list = field(default_factory=list)

    def add_row(self, **kw):
        self.rows.append(kw)

    def to_csv(self, path, config: dict):
        """Write the rows under a header that records ``config``."""
        import json

        cols = ["kind", "stage", "p", "iter", "value", "residual",
                "nehari_defect", "rho_hat", "bary_x", "bary_y", "min_psi"]
        with open(path, "w") as fh:
            fh.write("# diracsphere-trace v2\n")
            fh.write("# config " + json.dumps(config, sort_keys=True) + "\n")
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


def _masked_solve(weights: HessianWeights, rhs, mask, rtol):
    """Solve L_p'' x = rhs on the coefficients in ``mask``, at the psi of
    ``weights``: ``_minres`` on full-length vectors that vanish off ``mask``
    (rhs among them), with the operator np.where(mask, hessian_apply(x), 0),
    to the relative tolerance ``rtol``.  ``hessian_apply`` is the Riesz form
    of L_p'', with spectrum near +-1 (and <= -1 on E^-), so no
    preconditioner is needed."""
    return _minres(lambda x: np.where(mask, hessian_apply(weights, x), 0.0), rhs,
                   weights.ws.basis.abs_eigenvalues, rtol, _MINRES_STEPS)


def _newton(psi, values, cur, p: float, ws: Workspace, mask):
    """Newton-MINRES for L_p'(psi) = 0 on the coefficients in ``mask``, the
    others held.  Starting from psi, its nodal values and cur = eval_L at
    psi, it yields (psi, values, report, residual) for the start and for
    each accepted iterate, the residual being the H^{1/2} norm of the
    gradient on ``mask``.  A step is ``_masked_solve`` of L_p'' delta = -L_p'
    to the relative tolerance min(_FORCING, residual), then halving s until
    the residual falls by the factor 1 - 1e-4 s; the iteration ends when no
    halving does.  The caller stops it at its tolerance or step cap."""
    basis = ws.basis
    res = h_norm(basis, np.where(mask, cur.grad, 0.0))
    while True:
        yield psi, values, cur, res
        delta = _masked_solve(HessianWeights(values, p, ws),
                              np.where(mask, -cur.grad, 0.0), mask, min(_FORCING, res))
        step = 1.0
        for _ in range(_BACKTRACK):
            psi_try = psi + step * delta
            values_try = ws.synthesize(psi_try)
            trial = eval_L(psi_try, p, ws, values=values_try)
            res_try = h_norm(basis, np.where(mask, trial.grad, 0.0))
            if res_try <= (1.0 - 1e-4 * step) * res:
                psi, values, cur, res = psi_try, values_try, trial, res_try
                break
            step *= 0.5
        else:
            return


# the monitor: the sup-norm scale rho_hat in grid spacings at or below which
# two stages in a row are blow-up, and the clamp radius of the barycenter chart
_BLOWUP_SCALE = 1.5
_CLAMP_RADIUS = 10.0


def _stage_diagnostics(values, ws, pole):
    """rho_hat = 1/(Q |psi|^2) at the node where |psi|^2 is largest, that
    largest |psi|^2, its node, the clamped barycenter and min |psi|."""
    nsq = ws.fiber_norm_sq(values)
    peak = int(np.argmax(nsq))
    rho_hat = 1.0 / max(float(ws.q_nodes[peak] * nsq[peak]), 1e-300)
    min_psi = float(np.sqrt(max(nsq.min(), 0.0)))
    bary = barycenter(values, ws, pole, _CLAMP_RADIUS)
    return rho_hat, float(nsq[peak]), ws.grid.xyz[peak], bary, min_psi


def solve_continuation(ws: Workspace, schedule, init: SpectralSpinor,
                       tol_final: float = 1e-7, tol_stage: float = 1e-6,
                       max_outer: int = 200) -> ContinuationResult:
    """Walk the exponent schedule up to the critical p = 4, warm starting.

    ``init`` is the start state; a bubble start is transported first
    (``bubble_to_sphere(..., require_capture=True)``).  Its E^+ part is
    scaled onto the first stage's Nehari set once.  Each stage then makes at
    most ``max_outer`` steps of ``_newton`` on every coefficient of psi, the
    reduction's Newton-MINRES; the residual is the full gradient norm
    ||L_p'(psi)||, and each iterate gets a trace row.  The monitor's
    barycenter chart projects from the node where Q is least.

    Raises BlowUpDetected or StagnationDetected on the corresponding failure
    modes, and SolveFailure when the start's Nehari projection fails (an
    inner reduction misses its tolerance, or its Newton does not converge)
    or an iterate is not finite; each carries the trace.
    """
    schedule = list(schedule)
    if not schedule or abs(schedule[-1] - 4.0) > 1e-12:
        raise ValueError("schedule must end at the critical exponent 4.0")
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or schedule[0] <= 2.0:
        raise ValueError("schedule must be strictly increasing inside (2, 4]")

    basis = ws.basis
    every = np.ones(basis.n_basis, dtype=bool)
    u = np.where(basis.plus_mask, init.coeff, 0.0)
    if not np.any(u):
        raise ValueError("initialization has no E^+ part")
    with np.errstate(over="ignore"):
        unorm = h_norm(basis, u)

    monitor_pole = ws.grid.xyz[int(np.argmin(ws.q_nodes))]
    spacing = ws.grid.mean_spacing()

    trace = SolverTrace()
    if not math.isfinite(unorm):
        raise SolveFailure(f"non-finite iterate in the initial state "
                           f"(H^1/2 norm {unorm})", trace)
    prev_small = False

    try:
        for stage, p in enumerate(schedule):
            tol = tol_final if stage == len(schedule) - 1 else tol_stage
            if stage == 0:
                cur = nehari_project(u, p, ws).reduction
                psi, values = cur.psi, cur.values
            else:
                cur = eval_L(psi, p, ws, values=values)
            for it, (psi, values, cur, res) in zip(
                    range(max_outer + 1), _newton(psi, values, cur, p, ws, every)):
                if not math.isfinite(res):
                    raise SolveFailure(
                        f"non-finite iterate at stage {stage}, iteration {it}")
                defect = nehari_defect(psi, p, ws, cur)
                trace.add_row(kind="iter", stage=stage, p=p, iter=it, value=cur.value,
                              residual=res, nehari_defect=defect)
                if res <= tol:
                    break
            rho_hat, nsq_max, center, bary, min_psi = _stage_diagnostics(
                values, ws, monitor_pole)
            trace.add_row(kind="stage", stage=stage, p=p, iter=it, value=cur.value,
                          residual=res, nehari_defect=defect,
                          rho_hat=rho_hat, bary_x=float(bary[0]),
                          bary_y=float(bary[1]), min_psi=min_psi)

            small = rho_hat <= _BLOWUP_SCALE * spacing
            if small and prev_small:
                center = _local_mass_center(values, p, ws, center, 2.5 * spacing)
                q_at = float(ws.Q.evaluate(center[None])[0])
                rho_at = 1.0 / max(q_at * nsq_max, 1e-300)
                prof_dist = _bubble_profile_distance(psi, center, rho_at, q_at, ws)
                raise BlowUpDetected(
                    f"sup-norm scale 1/(Q |psi|^2max) at most {_BLOWUP_SCALE:g} grid "
                    f"spacings ({_BLOWUP_SCALE * spacing:.3f} rad) at stages "
                    f"p={schedule[stage-1]:.3g}, p={p:.3g} ({rho_hat:.3f} rad at the "
                    f"last)", trace, point=center, stage_p=p, rho_hat=rho_at,
                    profile_distance=prof_dist)
            prev_small = small
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
    xyz, c = ws.grid.xyz, np.asarray(center, dtype=float)
    # xyz @ c as explicit products and sums: no BLAS call, the same bits at any thread count
    mask = xyz[:, 0] * c[0] + xyz[:, 1] * c[1] + xyz[:, 2] * c[2] >= math.cos(radius)
    if not np.any(mask):
        return c
    mean = _weighted_sum(density[mask], xyz[mask])
    nrm = math.sqrt(float(np.sum(mean * mean)))
    return mean / nrm if nrm > 0 else c


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
