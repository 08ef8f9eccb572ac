import math

import numpy as np
import pytest

from diracsphere.conformal import Bubble, bubble_to_sphere
from diracsphere import energy, reduction
from diracsphere.energy import PolynomialCurvature
from diracsphere.reduction import (BlowUpDetected, SolveFailure,
                                   StagnationDetected, solve_continuation)
from diracsphere.spectral import SpectralSpinor
from conftest import SCHEDULE, bubble_start, make_workspace, zero_spinor


def stage_rows(trace):
    return [r for r in trace.rows if r["kind"] == "stage"]


def test_constant_q_converges_to_killing(const_solution):
    ws, result = const_solution
    assert result.final_residual <= 1e-6
    values = ws.synthesize(result.psi.coeff)
    nsq = ws.fiber_norm_sq(values)
    assert abs(float(ws.grid.integrate(nsq**2)) - 4 * math.pi) <= 1e-3
    assert np.abs(np.sqrt(nsq) - 1.0).max() <= 1e-4
    # the limit value sits at the lower window edge (1/4) tau^2 = pi
    assert result.value == pytest.approx(math.pi, abs=1e-6)


def test_constant_q_stage_energies_monotone(const_solution):
    # I_p of the ground state grows along the schedule toward pi
    _, result = const_solution
    vals = [r["value"] for r in stage_rows(result.trace)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(math.pi, abs=1e-6)


def test_warm_start_continuity(const_solution):
    """L_{p_{n+1}}(psi_n), the value a stage starts from, stays within a
    small gap of the converged level once the previous stage residual is
    small."""
    _, result = const_solution
    warm = {r["stage"]: r["value"] for r in result.trace.rows
            if r["kind"] == "iter" and r["iter"] == 0}
    for r in stage_rows(result.trace)[1:]:
        assert abs(warm[r["stage"]] - r["value"]) <= 1e-3 * max(1.0, abs(r["value"]))


def test_trace_content_and_csv(tmp_path, const_solution):
    _, result = const_solution
    trace = result.trace
    assert all(r["kind"] in ("iter", "stage") for r in trace.rows)
    iters = [r for r in trace.rows if r["kind"] == "iter"]
    assert len(iters) >= len(SCHEDULE)           # residual recorded per iteration
    path = tmp_path / "trace.csv"
    trace.to_csv(path, {"J": 8})
    text = path.read_text().splitlines()
    assert text[0].startswith("# diracsphere-trace")
    assert text[1] == '# config {"J": 8}'
    assert text[2].split(",")[0] == "kind"
    assert len(text) == 3 + len(trace.rows)


def test_blowup_on_obstruction_family():
    """Affine Q = 1 + 0.8 x3 (the known obstruction family): the continuation
    concentrates at the resolution floor and the monitor reports a point next
    to a critical point of Q."""
    ws = make_workspace(10, PolynomialCurvature([(0, 0, 0, 1.0), (0, 0, 1, 0.8)]))
    with pytest.raises(BlowUpDetected) as info:
        solve_continuation(ws, [3.0, 3.5, 3.8, 3.95, 4.0],
                           bubble_start(ws, center=[0, 0, 1], rho=0.35, q_center=1.8),
                           tol_final=1e-6, max_outer=100)
    exc = info.value
    north = np.array([0.0, 0.0, 1.0])       # the only max of Q, a critical point
    assert math.acos(np.clip(exc.point @ north, -1, 1)) <= 0.1
    assert stage_rows(exc.trace)              # trace travels with the failure
    assert 0 < exc.rho_hat < 1.0
    assert exc.profile_distance < 0.5         # close to the fitted bubble shape


def test_stagnation_reported():
    ws = make_workspace(8, PolynomialCurvature([(0, 0, 0, 1.0), (0, 0, 2, 0.3)]))
    with pytest.raises(StagnationDetected) as info:
        solve_continuation(ws, [3.0, 4.0],
                           bubble_start(ws, center=[0, 0, 1], rho=0.4, q_center=1.3),
                           tol_final=1e-13, tol_stage=1e-13, max_outer=2)
    assert info.value.trace is not None
    assert info.value.residual > 1e-13


def test_schedule_validation(ws8):
    bubble = bubble_start(ws8, center=[0, 0, 1], rho=0.4)
    for bad in ([3.0, 3.5], [4.0, 3.0, 4.0], [2.0, 4.0], []):
        with pytest.raises(ValueError):
            solve_continuation(ws8, bad, bubble)


def test_init_requires_positive_part(ws8):
    with pytest.raises(ValueError):
        solve_continuation(ws8, [3.0, 4.0],
                           zero_spinor(ws8.basis))


def test_start_scale_does_not_change_the_solve(ws8q):
    """The Nehari start is found from the direction of the initial state
    alone: the J=8 bubble coefficients times 2^-300, 1e-100 and 2^300 end
    within 1e-13 of the unscaled solve's L_value."""
    psi0, _ = bubble_to_sphere(Bubble(center=[0, 0, 1], rho=0.35, q_center=1.3),
                               ws8q.basis)

    def value(scale):
        init = SpectralSpinor(ws8q.basis, scale * psi0.coeff)
        return solve_continuation(ws8q, [3.0, 3.5, 4.0], init, tol_final=1e-6).value

    ref = value(1.0)
    for scale in (2.0 ** -300, 1e-100, 2.0 ** 300):
        assert value(scale) == pytest.approx(ref, rel=0, abs=1e-13)


def test_lossy_bubble_init_refused(ws8):
    """The start path refuses a bubble the J=8 basis cannot hold."""
    with pytest.raises(ValueError):
        bubble_start(ws8, center=[0, 0, 1], rho=0.05)


def _nan_gradient(monkeypatch):
    """Projections hand the outer loop a reduction with a NaN gradient."""
    project = reduction.nehari_project

    def corrupt(*args, **kwargs):
        st = project(*args, **kwargs)
        st.reduction.grad[:] = np.nan
        return st

    monkeypatch.setattr(reduction, "nehari_project", corrupt)


@pytest.mark.parametrize("case, message", [
    ("tol_inner", "inner reduction did not reach"),
    ("huge_init", "non-finite iterate in the initial state"),
    ("nan_reduction", "non-finite iterate in the inner reduction"),
    ("nan_gradient", "non-finite iterate at stage 0, iteration 0"),
])
def test_solver_failures_are_reported_with_the_trace(tmp_path, monkeypatch, case,
                                                     message):
    """An inner reduction that misses its tolerance (``_TOL_INNER`` set to
    1e-30), and a non-finite start, or a non-finite iterate in reduce_minus
    or in the outer loop, end in a SolveFailure with the trace."""
    ws = make_workspace(4)
    init = bubble_start(ws, center=[0, 0, 1], rho=0.5)
    if case == "tol_inner":
        monkeypatch.setattr(reduction, "_TOL_INNER", 1e-30)
    elif case == "huge_init":
        init = SpectralSpinor(ws.basis, np.full(ws.basis.n_basis, 1e200 + 0j))
    elif case == "nan_reduction":
        monkeypatch.setattr(energy, "nonlinear_projection",
                            lambda values, p, ws: np.full(ws.basis.n_basis, np.nan))
    else:
        _nan_gradient(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(SolveFailure) as info:
        solve_continuation(ws, [3.0, 4.0], init)
    assert type(info.value) is SolveFailure
    assert message in str(info.value)
    path = tmp_path / "trace.csv"
    info.value.trace.to_csv(path, {"case": case})
    assert path.read_text().startswith(
        f'# diracsphere-trace v2\n# config {{"case": "{case}"}}\n')


def _minres_residual(d, x, b, lam):
    r = b - d * x
    return math.sqrt(float(np.sum(lam * np.abs(r) ** 2)))


def test_minres_solves_an_indefinite_system_to_its_tolerance():
    """An operator that is diagonal in the metric sum lam |x|^2 with both
    signs on its diagonal (the shape of L_p'' in the H^{1/2} metric, where CG
    would break down): each requested relative tolerance is met."""
    rng = np.random.default_rng(41)
    n = 80
    lam = rng.uniform(0.5, 6.0, n)
    d = rng.uniform(0.05, 3.0, n) * np.where(np.arange(n) % 3, 1.0, -1.0)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    bnorm = _minres_residual(d, 0.0, b, lam)
    for rtol in (1e-2, 1e-6, 1e-10):
        x = reduction._minres(lambda v: d * v, b, lam, rtol, 400)
        assert _minres_residual(d, x, b, lam) <= rtol * bnorm


def test_minres_singular_consistent_system():
    """A diagonal operator with a null space and a right-hand side in its
    range: the solution is finite, meets the tolerance and has no component
    along the null space (the Krylov space never leaves the range)."""
    rng = np.random.default_rng(42)
    n = 60
    lam = rng.uniform(0.5, 6.0, n)
    d = rng.uniform(0.1, 2.0, n) * np.where(np.arange(n) % 2, 1.0, -1.0)
    null = np.arange(n) % 7 == 0
    d[null] = 0.0
    b = np.where(null, 0.0, rng.normal(size=n) + 1j * rng.normal(size=n))
    bnorm = _minres_residual(d, 0.0, b, lam)
    x = reduction._minres(lambda v: d * v, b, lam, 1e-9, 400)
    assert np.all(np.isfinite(x))
    assert _minres_residual(d, x, b, lam) <= 1e-9 * bnorm
    assert not np.any(x[null])


# calls inside solve_continuation for the criterion-9 J=8 solve, recorded
# after the Nehari projection became one Newton in t^(p-2) from the ray's
# L_p root, the CLI took over the bubble transport, reduce_minus took its
# tolerance scale from A at its start, and reduce_minus became the stages'
# Newton-MINRES on E^-, with the reduced Hessian's E^- solve to a relative
# tolerance
WORK_COUNTS = {"hessian_apply": 173, "synthesize": 200, "analyze": 201,
               "reduce_minus": 4}


@pytest.fixture(scope="module")
def criterion9_work(tmp_path_factory):
    """Run the criterion-9 J=8 solve through the CLI once, counting the calls
    made inside solve_continuation; returns (counts, the number of Hessian
    products of an all-zero vector)."""
    import json

    from diracsphere import cli
    from diracsphere.spectral import SphereBasis

    counts = dict.fromkeys(WORK_COUNTS, 0)
    zero_products = [0]
    inside = [False]
    monkeypatch = pytest.MonkeyPatch()

    def counted(owner, name, key=None):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if inside[0]:
                counts[key or name] += 1
                if name == "hessian_apply" and not np.any(args[1]):
                    zero_products[0] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(reduction, "hessian_apply")
    counted(reduction, "reduce_minus")
    counted(SphereBasis, "synthesize")
    counted(SphereBasis, "analyze")
    solve = cli.solve_continuation

    def solve_counted(*args, **kwargs):
        inside[0] = True
        try:
            return solve(*args, **kwargs)
        finally:
            inside[0] = False
    monkeypatch.setattr(cli, "solve_continuation", solve_counted)

    cfg = {
        "schema_version": 1, "J": 8,
        "Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 2, 0.3]]},
        "schedule": [3.0, 3.5, 4.0],
        "init": {"type": "bubble", "rho": 0.35, "center": [0.0, 0.0, 1.0]},
        "tolerances": {"final": 1e-6}, "seed": 7,
    }
    tmp_path = tmp_path_factory.mktemp("criterion9")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        assert cli.main(["solve", str(path), "--output", str(tmp_path / "out")]) == 0
    finally:
        monkeypatch.undo()
    return counts, zero_products[0]


def test_criterion_9_solve_work_counts(criterion9_work):
    """The criterion-9 J=8 solve makes exactly the recorded numbers of
    Hessian products, transforms and inner reductions, so a faster product
    cannot silently change the work."""
    counts, _ = criterion9_work
    assert counts == WORK_COUNTS


def test_no_hessian_product_of_the_zero_vector(criterion9_work):
    """Every MINRES starts from v = b / ||b||: no product inside the solve is
    spent on an all-zero vector."""
    _, zero_products = criterion9_work
    assert zero_products == 0
