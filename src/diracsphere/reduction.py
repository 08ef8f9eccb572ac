"""Reduction couple, Nehari projection, tau estimation and the continuation solver.

The saddle structure of L_p is removed in two steps:

* ``reduce``: for u in E^+, the unique maximizer h_p(u) of the strictly
  concave v -> L_p(u + v) on E^- (Newton-CG; the Hessian satisfies
  L_p'' <= -id there, so the shifted operator is positive definite and CG is
  unconditionally safe).  I_p(u) = L_p(u + h_p(u)).
* ``nehari_project``: the unique t(u) > 0 with d/dt I_p(t u) = 0, landing on
  the natural constraint N_p = {I_p'(u)[u] = 0}.  I_p(t u) has a single
  interior maximum on each ray (Szulkin-Weth), so Newton in t started at the
  incoming scale is safe; its derivative d^2/dt^2 I_p(t u) comes from one
  reduced Hessian product.  Bracketing + Brent is the fallback when the
  Newton safeguard trips.

Critical points of I_p restricted to N_p are found by projected gradient
descent in the spectral H^{1/2} metric with a tangent-space Newton endgame.
The continuation driver walks a schedule p_0 < p_1 < ... < 4, warm starting
each stage, and watches the concentration function

    Theta(r) = max_a integral_{B_r(a)} |psi|^p dvol

together with a clamped barycenter of the |psi|^4 mass; persistent capture of
90% mass at radii of a few grid spacings is declared blow-up and reported
with the concentration point and a fitted bubble profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import Bubble, StereoChart, bubble_to_sphere
from .energy import (Workspace, eval_A, eval_L_parts, eval_rayleigh,
                     hessian_apply, nonlinear_projection, _check_p)
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


def _neg_cg(ws: Workspace, psi_values, p, rhs, tol, max_iter=200, x0=None):
    """Solve (-L_p'' restricted to E^-) x = rhs by CG in the H^{1/2} metric.

    The operator in Riesz form is x + M(x)/|lambda| on E^-, which is
    >= identity, so plain CG converges fast.
    """
    neg = ws.basis.minus_mask
    lam = ws.basis.abs_eigenvalues

    def apply_op(x):
        full = np.zeros_like(rhs)
        full[neg] = x[neg]
        hx = hessian_apply(psi_values, p, ws, full)
        out = np.zeros_like(rhs)
        out[neg] = -hx[neg]
        return out

    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - apply_op(x)
    d = r.copy()
    rr = float(np.sum(lam[neg] * np.abs(r[neg]) ** 2))
    tol_sq = tol * tol
    for it in range(max_iter):
        if rr <= tol_sq:
            break
        Ad = apply_op(d)
        dAd = float(np.sum(lam[neg] * np.real(d[neg] * np.conj(Ad[neg]))))
        if dAd <= 0:
            break
        alpha = rr / dAd
        x = x + alpha * d
        r = r - alpha * Ad
        rr_new = float(np.sum(lam[neg] * np.abs(r[neg]) ** 2))
        d = r + (rr_new / rr) * d
        rr = rr_new
    return x


def reduce_minus(u_coeff, p: float, ws: Workspace, v0=None,
                 tol_inner: float = 1e-10, max_iter: int = 60) -> ReductionResult:
    """h_p(u): the unique E^- maximizer of v -> L_p(u + v).

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
    for it in range(max_iter + 1):
        N = nonlinear_projection(values, p, ws)
        grad = np.sign(basis.eigenvalues) * psi - N / basis.abs_eigenvalues
        g = np.where(neg, grad, 0.0)
        res = h_norm(basis, g)
        finite = math.isfinite(res) and math.isfinite(val)
        if res <= tol_eff or it == max_iter or not finite:
            break
        delta = _neg_cg(ws, values, p, g, tol=min(0.1 * res, res * res, tol_eff))
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
    f_value: float              # F_p from the energy: ((2p/(p-2)) I)^{(p-2)/p}
    f_value_rayleigh: float     # F_p = R_p(tu + h), the independent route
    ray_second_derivative: float  # d^2/dt^2 I_p(t u0) at the root, u0 = u/||u||
    reduction: ReductionResult  # the reduction at u; h and value are its own


def _reduced_hessian(ws: Workspace, psi_values, p: float, w, tol_inner: float):
    """E^+ Riesz representative of I_p''(u)[w, .] at psi = u + h_p(u).

    The inner correction h_p'(u) w solves the E^- block by CG; then
    I_p''(u)[w, .] = L_p''(psi)[w + h_p'(u) w, .] on E^+.
    """
    basis = ws.basis
    full = np.where(basis.plus_mask, w, 0.0)
    rhs_for_corr = hessian_apply(psi_values, p, ws, full)
    corr = _neg_cg(ws, psi_values, p,
                   np.where(basis.minus_mask, rhs_for_corr, 0.0),
                   tol=0.01 * tol_inner ** 0.5)
    tot = full + np.where(basis.minus_mask, corr, 0.0)
    out = hessian_apply(psi_values, p, ws, tot)
    return np.where(basis.plus_mask, out, 0.0)


def _bracket_root(slope, xtol: float, t: float, s: float) -> float:
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

    return brentq(known_slope, min(t, t_next), max(t, t_next), xtol=xtol,
                  rtol=8.8817841970012523e-16)


def nehari_project(u_coeff, p: float, ws: Workspace, tol_t: float = 1e-12,
                   tol_inner: float = 1e-10, h0=None) -> NehariState:
    """Scale u onto the Nehari set: the unique root of s(t) = d/dt I_p(t u0).

    Newton in t from the incoming scale t = ||u||, with s'(t) from one
    reduced Hessian product; it stops once |s/s'| <= tol_t max(t, 1).  A
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
    cache = {"h": None if h0 is None else h0.copy()}

    def slope(t):
        red = reduce_minus(t * u0, p, ws, v0=cache["h"], tol_inner=tol_inner)
        cache["h"] = red.h
        cache["red"] = red
        cache["t"] = t
        return h_inner(ws.basis, red.grad, u0)

    def ray_curvature():
        hess = _reduced_hessian(ws, cache["red"].values, p, u0, tol_inner)
        return h_inner(ws.basis, hess, u0)

    t_root = None
    t = unorm
    for _ in range(8):
        s = slope(t)
        d2 = ray_curvature()
        if not d2 < 0:
            break
        step = s / d2
        if abs(step) <= tol_t * max(t, 1.0):
            t_root = t
            break
        if not 0.5 * t <= t - step <= 2.0 * t:
            break
        t -= step
    if t_root is None:
        t_root = _bracket_root(slope, tol_t, cache["t"], s)
        if cache["t"] != t_root:
            slope(t_root)
        d2 = ray_curvature()
    red = cache["red"]
    I_val = red.value
    f_energy = ((2.0 * p / (p - 2.0)) * max(I_val, 0.0)) ** ((p - 2.0) / p)
    f_ray = eval_rayleigh(red.psi, p, ws)
    return NehariState(t=t_root / unorm, u=t_root * u0, h=red.h, value=I_val,
                       f_value=f_energy, f_value_rayleigh=f_ray,
                       ray_second_derivative=d2, reduction=red)


def nehari_defect(u_coeff, p: float, ws: Workspace, red: ReductionResult) -> float:
    """H_p(u) = I_p'(u)[u], zero on the Nehari set."""
    return h_inner(ws.basis, red.grad, np.where(ws.basis.plus_mask, u_coeff, 0.0))


# -- F_p and tau ----------------------------------------------------------------


@dataclass
class TauEstimate:
    p: float
    values: np.ndarray          # F_p over the sample directions (physical Q)
    values_normalized: np.ndarray
    minimum: float
    minimum_normalized: float


def estimate_tau(p: float, ws: Workspace, samples, tol_inner: float = 1e-10) -> TauEstimate:
    """Upper estimate of tau_p = inf F_p from a fixed set of E^+ directions.

    ``values`` uses the physical Q; ``values_normalized`` rescales to the
    integral-one normalization of Q under which p -> F_p(u) is pointwise
    non-increasing.  (The two differ by the constant (int Q)^{2/p}.)
    """
    out = []
    for u in samples:
        st = nehari_project(u, p, ws, tol_inner=tol_inner)
        out.append(st.f_value_rayleigh)
    vals = np.array(out)
    vals_norm = vals * ws.q_integral ** (2.0 / p)
    return TauEstimate(p=p, values=vals, values_normalized=vals_norm,
                       minimum=float(vals.min()),
                       minimum_normalized=float(vals_norm.min()))


# -- concentration diagnostics ---------------------------------------------------


def concentration_profile(values, p: float, ws: Workspace, radii):
    """Theta(r) = max over centers of the |psi|^p mass in geodesic r-balls.

    Centers range over the grid nodes.  Returns (theta, centers) with the
    maximizing node index per radius.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    nsq = ws.fiber_norm_sq(np.asarray(values))
    density = ws.grid.weights * nsq ** (p / 2.0)
    dist = ws.grid.geodesic_distance_matrix()
    theta = np.empty(radii.size)
    centers = np.empty(radii.size, dtype=int)
    for i, r in enumerate(radii):
        masses = (dist <= r) @ density
        centers[i] = int(np.argmax(masses))
        theta[i] = float(masses[centers[i]])
    return theta, centers


def barycenter(values, ws: Workspace, pole, clamp_radius: float) -> np.ndarray:
    """Clamped barycenter of the |psi|^4 mass in the chart that projects from
    ``pole`` (the chart covers the sphere minus the pole)."""
    pole = np.asarray(pole, dtype=float)
    chart = StereoChart(center=-pole / np.linalg.norm(pole))
    rotated = ws.grid.xyz @ chart.rotation.T
    # nodes at the projection pole would map to infinity; nudge off it,
    # the clamp sends them to the boundary circle anyway
    rotated[:, 2] = np.maximum(rotated[:, 2], -1.0 + 1e-12)
    z = (rotated[:, 0] + 1j * rotated[:, 1]) / (1.0 + rotated[:, 2])
    pts = np.stack([z.real, z.imag], axis=1)
    r = np.linalg.norm(pts, axis=1)
    scalefac = np.where(r > clamp_radius, clamp_radius / np.maximum(r, 1e-300), 1.0)
    zeta = pts * scalefac[:, None]
    nsq = ws.fiber_norm_sq(np.asarray(values))
    density = ws.grid.weights * nsq**2
    total = float(density.sum())
    if total <= 0:
        raise ValueError("barycenter undefined: |psi|^4 mass vanishes")
    return (density @ zeta) / total


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
    nehari_defect: float
    theta_radii: np.ndarray
    theta: np.ndarray
    theta_center: np.ndarray
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
    energy_window: tuple[float, float]
    window_value: float
    window_ok: bool


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
    return theta, cap_r, center, bary, min_psi


def solve_continuation(ws: Workspace, schedule, init: SpectralSpinor | Bubble,
                       tol_final: float = 1e-7, tol_stage: float = 1e-6,
                       tol_inner: float = 1e-10, max_outer: int = 200,
                       newton_switch: float = 1e-3,
                       blowup_capture: float = 0.9,
                       blowup_spacing_factor: float = 5.0,
                       monitor_pole=None, clamp_radius: float = 10.0,
                       config_echo: dict | None = None) -> ContinuationResult:
    """Walk the exponent schedule up to the critical p = 4, warm starting.

    Raises BlowUpDetected or StagnationDetected on the corresponding failure
    modes, and SolveFailure when an inner reduction misses tol_inner or an
    iterate is not finite; each carries the trace.
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
    u = np.where(ws.basis.plus_mask, psi0.coeff, 0.0)
    with np.errstate(over="ignore"):
        unorm = h_norm(ws.basis, u)
    if unorm == 0:
        raise ValueError("initialization has no E^+ part")

    if monitor_pole is None:
        qmin_idx = int(np.argmin(ws.q_nodes))
        monitor_pole = ws.grid.xyz[qmin_idx]
    spacing = ws.grid.mean_spacing()
    radii = np.array(sorted({round(k * spacing, 12) for k in (1, 2, 3, 4, 5, 6, 8)}
                            | {0.3, 0.5, 0.8, 1.2, 1.7, 2.3, math.pi}))
    q_max = float(ws.q_nodes.max())
    tau_sq = 4.0 * math.pi / q_max          # (tau_{2*})^m for m = 2, physical Q
    window = (0.25 * tau_sq, 0.5 * tau_sq)  # on L_p values, Eq. of the monitor

    trace = SolverTrace(schedule=schedule, config=config_echo or {})
    if not math.isfinite(unorm):
        raise SolveFailure(f"non-finite iterate in the initial state "
                           f"(H^1/2 norm {unorm})", trace)
    prev_capture_small = False

    try:
        for stage, p in enumerate(schedule):
            tol = tol_final if stage == len(schedule) - 1 else tol_stage
            st = nehari_project(u, p, ws, tol_inner=tol_inner)
            # red is always the reduction at u: each projection hands over the
            # one it ends on, so no point is reduced twice
            u, red = st.u, st.reduction
            warm_I = st.value
            step = 1.0
            it = 0
            for it in range(max_outer):
                gplus = np.where(ws.basis.plus_mask, red.grad, 0.0)
                res = h_norm(ws.basis, gplus)
                if not math.isfinite(res):
                    raise SolveFailure(
                        f"non-finite iterate at stage {stage}, iteration {it}")
                defect = nehari_defect(u, p, ws, red)
                trace.add_row(kind="iter", stage=stage, p=p, iter=it, value=red.value,
                              residual=res, nehari_defect=defect)
                if res <= tol:
                    break
                if res <= newton_switch:
                    delta = _tangent_newton_step(u, p, ws, red, gplus, tol_inner)
                else:
                    delta = None
                moved = False
                if delta is not None:
                    st_try = nehari_project(u + delta, p, ws, tol_inner=tol_inner, h0=red.h)
                    if st_try.value <= red.value + 1e-12 * abs(red.value):
                        u, red = st_try.u, st_try.reduction
                        moved = True
                if not moved:
                    for _ in range(25):
                        st_try = nehari_project(u - step * gplus, p, ws,
                                                tol_inner=tol_inner, h0=red.h)
                        if st_try.value < red.value - 1e-4 * step * res * res:
                            u, red = st_try.u, st_try.reduction
                            step = min(step * 1.4, 1e3)
                            moved = True
                            break
                        step *= 0.4
                    if not moved:
                        break
            res = h_norm(ws.basis, np.where(ws.basis.plus_mask, red.grad, 0.0))
            defect = nehari_defect(u, p, ws, red)
            values = red.values
            theta, cap_r, center, bary, min_psi = _stage_diagnostics(
                values, p, ws, radii, monitor_pole, clamp_radius, blowup_capture)
            trace.add_row(kind="stage", stage=stage, p=p, iter=it, value=red.value,
                          residual=res, nehari_defect=defect,
                          capture_radius=cap_r, bary_x=float(bary[0]),
                          bary_y=float(bary[1]), min_psi=min_psi)
            trace.stages.append(StageSummary(
                p=p, iterations=it + 1, value=red.value, residual=res,
                nehari_defect=defect, theta_radii=radii,
                theta=theta, theta_center=center, capture_radius=cap_r,
                barycenter=bary, min_psi=min_psi, warm_start_value=warm_I))

            capture_small = cap_r <= blowup_spacing_factor * spacing
            if capture_small and prev_capture_small:
                center = _local_mass_center(values, p, ws, center, 2.5 * spacing)
                nsq_max = float(ws.fiber_norm_sq(values).max())
                q_at = float(ws.Q.evaluate(center[None])[0])
                rho_hat = 1.0 / max(q_at * nsq_max, 1e-300)
                prof_dist = _bubble_profile_distance(red.psi, center, rho_hat, q_at, ws)
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

    psi = SpectralSpinor(ws.basis, red.psi)
    wv = red.value
    ok = window[0] < wv < window[1]
    return ContinuationResult(psi=psi, trace=trace, final_residual=res,
                              energy_window=window, window_value=wv, window_ok=ok)


def _tangent_newton_step(u, p, ws, red: ReductionResult, gplus, tol_inner):
    """One inexact Newton step for I_p on the tangent space of the Nehari set.

    Each reduced Hessian product solves the inner E^- correction h'(u) w by
    CG; curvature failures return None and the caller falls back to gradient.
    """
    pos = ws.basis.plus_mask
    psi_values = red.values

    # Nehari normal direction: Riesz vector of H_p'(u)
    un = np.where(pos, u, 0.0)
    n_vec = (np.where(pos, red.grad, 0.0)
             + _reduced_hessian(ws, psi_values, p, un, tol_inner))
    nn = h_inner(ws.basis, n_vec, n_vec)

    def project_t(w):
        if nn <= 0:
            return w
        return w - (h_inner(ws.basis, n_vec, w) / nn) * n_vec

    b = project_t(-gplus)
    x = np.zeros_like(u)
    r = b.copy()
    d = r.copy()
    rr = h_inner(ws.basis, r, r)
    tol_cg = max(1e-4 * math.sqrt(rr), 1e-14)
    for _ in range(40):
        if math.sqrt(rr) <= tol_cg:
            break
        Ad = project_t(_reduced_hessian(ws, psi_values, p, d, tol_inner))
        dAd = h_inner(ws.basis, d, Ad)
        if dAd <= 1e-14 * h_inner(ws.basis, d, d):
            return None if h_inner(ws.basis, x, x) == 0 else x
        alpha = rr / dAd
        x = x + alpha * d
        r = r - alpha * Ad
        rr_new = h_inner(ws.basis, r, r)
        d = r + (rr_new / rr) * d
        rr = rr_new
    return x


def _local_mass_center(values, p, ws, center, radius) -> np.ndarray:
    """Sub-grid concentration point: |psi|^p-weighted mean near the peak node."""
    nsq = ws.fiber_norm_sq(np.asarray(values))
    density = ws.grid.weights * nsq ** (p / 2.0)
    dots = ws.grid.xyz @ np.asarray(center, dtype=float)
    mask = dots >= math.cos(radius)
    if not np.any(mask):
        return np.asarray(center, dtype=float)
    mean = density[mask] @ ws.grid.xyz[mask]
    nrm = np.linalg.norm(mean)
    return mean / nrm if nrm > 0 else np.asarray(center, dtype=float)


def _bubble_profile_distance(psi_coeff, center, rho_hat, q_at, ws) -> float:
    """Relative L^2 distance between an iterate and the fitted bubble profile."""
    rho = min(max(rho_hat, 1e-3), 2.0)
    try:
        bub, _ = bubble_to_sphere(Bubble(center=center, rho=rho, q_center=q_at),
                                  ws.basis)
    except Exception:
        return float("nan")
    a = np.asarray(psi_coeff)
    b = bub.coeff
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return float("nan")
    # compare shapes modulo scale and global phase
    inner = np.vdot(b, a)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a / na - phase * b / nb))
