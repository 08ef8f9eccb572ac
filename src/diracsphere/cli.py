"""Command-line driver: spectrum tables, bubble reports, the continuation
solve, diagnostics on saved states, and immersion export.

Run configuration is a single JSON document (schema_version 1); every run
echoes the full configuration into its JSON report and the trace header, and
identical configs, with the same numpy build, give bit-identical trace
and state files at any BLAS thread count (checked at 1 and 2 threads).

Exit codes: 0 success, 2 configuration or command-line argument error,
3 blow-up detected, 4 stagnation, 5 postcondition failure (zero-free or
energy-window check), 6 solver failure (an inner reduction missed its
tolerance or an iterate is not finite).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .conformal import (Bubble, bubble_energy_flat, bubble_grid_degree,
                        bubble_to_sphere)
from .energy import (PolynomialCurvature, Workspace, check_q_hypothesis,
                     constant_curvature, eval_L, spherical_harmonic_curvature)
from .geometry import (export_obj, export_ply, nodal_analysis,
                       reconstruct_immersion, scal_identity_check)
from .grid import QuadratureGrid
from .reduction import (BlowUpDetected, SolveFailure, StagnationDetected,
                        solve_continuation)
from .spectral import (SphereBasis, dirac_eigenvalue, dirac_multiplicity,
                       load_spinor, save_spinor)


def _log(level: str, msg: str, *args) -> None:
    """One ``LEVEL diracsphere: message`` line on the current ``sys.stderr``."""
    print(f"{level} diracsphere: {msg % args if args else msg}", file=sys.stderr)


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_STAGNATION = 4
EXIT_POSTCONDITION = 5
EXIT_SOLVE_FAILURE = 6

CONFIG_KEYS = ("schema_version", "J", "grid_degree", "Q", "schedule", "init",
               "tolerances", "max_outer", "output_dir", "seed",
               "allow_hypothesis_failure")
DEFAULT_SCHEDULE = [3.0, 3.4, 3.7, 3.9, 3.97, 4.0]
DEFAULT_INIT = {"type": "bubble", "rho": 0.3, "center": "argmax"}
INIT_KEYS = {"bubble": ("type", "rho", "center"), "state": ("type", "path")}
# config "tolerances" keys -> solve_continuation keyword arguments; the key
# "blowup_spacing_factor" names a retired monitor factor that no longer acts,
# accepted only at its old fixed value
SOLVER_TOLERANCES = {"final": "tol_final", "stage": "tol_stage"}


class ConfigError(ValueError):
    pass


def _is_number(x, kind=(int, float)) -> bool:
    """A finite JSON number of the given kind; bools are ints to Python, not
    here."""
    return (isinstance(x, kind) and not isinstance(x, bool)
            and (isinstance(x, int) or math.isfinite(x)))


def _number_rows(rows, width: int, n_int: int = 0) -> bool:
    """A nonempty list of lists of ``width`` numbers each, the first
    ``n_int`` of them integers."""
    return isinstance(rows, list) and len(rows) > 0 and all(
        isinstance(r, list) and len(r) == width and all(map(_is_number, r))
        and all(_is_number(x, int) for x in r[:n_int]) for r in rows)


def curvature_from_spec(spec) -> PolynomialCurvature:
    """Build a curvature field from its JSON specification."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("Q spec must be an object with a 'family' key")
    fam = spec["family"]
    if fam == "constant":
        if not _is_number(spec.get("value", 1.0)):
            raise ConfigError("constant Q value must be a number")
        return constant_curvature(float(spec.get("value", 1.0)))
    if fam == "polynomial":
        terms = spec.get("terms")
        if not (_number_rows(terms, 4, n_int=3)
                and all(min(t[:3]) >= 0 for t in terms)):
            raise ConfigError("polynomial Q needs a nonempty 'terms' list of "
                              "[i, j, k, coeff] numbers with non-negative "
                              "integer exponents i, j, k")
        return PolynomialCurvature([tuple(t) for t in terms])
    if fam == "sph_harm":
        coeffs = spec.get("coeffs")
        if not _number_rows(coeffs, 3, n_int=2):
            raise ConfigError("sph_harm Q needs a nonempty 'coeffs' list of "
                              "[l, m, coeff] numbers with integers l, m")
        try:
            return spherical_harmonic_curvature([tuple(c) for c in coeffs])
        except ValueError as exc:
            raise ConfigError(f"sph_harm Q: {exc}") from None
    raise ConfigError(f"unknown Q family '{fam}'")


def _read(load, path, *args):
    """``load(path, *args)``; a missing or malformed file is a ConfigError."""
    try:
        return load(path, *args)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path) -> dict:
    """Read and validate a JSON config."""
    cfg = _read(lambda p: json.loads(Path(p).read_text()), path)
    validate_config(cfg)
    return cfg


def _check_keys(what: str, obj: dict, known) -> None:
    """Refuse the first key of ``obj`` that is not in ``known``."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown {what} '{key}' (known: {', '.join(known)})")


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict) or cfg.get("schema_version") != 1:
        raise ConfigError("config schema_version must be 1")
    _check_keys("config key", cfg, CONFIG_KEYS)
    J = cfg.get("J")
    if not _is_number(J, int) or J < 4:
        raise ConfigError("J must be an integer >= 4")
    degree = cfg.get("grid_degree", 3 * J)
    if not _is_number(degree, int) or degree < 3 * J:
        raise ConfigError(f"grid_degree must be an integer >= the de-aliasing "
                          f"bound 3J={3*J}")
    sched = cfg.get("schedule", DEFAULT_SCHEDULE)
    if (not isinstance(sched, list) or not all(map(_is_number, sched))
            or len(sched) == 0 or abs(sched[-1] - 4.0) > 1e-12):
        raise ConfigError("schedule must be a list of numbers ending at 4.0")
    if sched[0] <= 2.0 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise ConfigError("schedule must be strictly increasing inside (2, 4]")
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be an object")
    _check_keys("tolerance", tols, [*SOLVER_TOLERANCES, "blowup_spacing_factor"])
    for key, value in tols.items():
        if not (_is_number(value) and value > 0):
            raise ConfigError(f"tolerance '{key}' must be a positive number")
    if tols.get("blowup_spacing_factor", 5.0) != 5.0:
        raise ConfigError("tolerance 'blowup_spacing_factor' is fixed at 5.0")
    if "max_outer" in cfg and not (_is_number(cfg["max_outer"], int)
                                   and cfg["max_outer"] > 0):
        raise ConfigError("max_outer must be a positive integer")
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigError("output_dir must be a string")
    if not isinstance(cfg.get("allow_hypothesis_failure", False), bool):
        raise ConfigError("allow_hypothesis_failure must be true or false")
    curvature_from_spec(cfg.get("Q", {"family": "constant"}))
    init = cfg.get("init", DEFAULT_INIT)
    if not isinstance(init, dict) or init.get("type") not in ("bubble", "state"):
        raise ConfigError("init.type must be 'bubble' or 'state'")
    _check_keys("init key", init, INIT_KEYS[init["type"]])
    if init["type"] == "state" and not isinstance(init.get("path"), str):
        raise ConfigError("init.path must name a state file")
    if init["type"] == "bubble":
        _check_rho("init.rho", init.get("rho", 0.3), J)
        center = init.get("center", "argmax")
        if center != "argmax" and not (_number_rows([center], 3) and any(center)):
            raise ConfigError("init.center must be 'argmax' or three numbers, "
                              "not all zero")


def _check_rho(name: str, rho, J: int) -> None:
    """A bubble scale is a positive number whose analysis grid is under the cap."""
    if not (_is_number(rho) and rho > 0):
        raise ConfigError(f"{name} must be a positive number")
    try:
        bubble_grid_degree(rho, J)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def build_workspace(cfg: dict) -> Workspace:
    J = cfg["J"]
    degree = cfg.get("grid_degree", 3 * J)
    basis = SphereBasis(J)
    grid = QuadratureGrid(degree=degree)
    Q = curvature_from_spec(cfg.get("Q", {"family": "constant"}))
    try:
        return Workspace(basis, grid, Q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def hypothesis_report_dict(rep) -> dict:
    """Every field of the report, the critical points as position, value,
    kind and Hessian eigenvalues, the first 64 of them."""
    def points(ps):
        return [{"position": p.position, "value": p.value, "kind": p.kind,
                 "hess_eigs": p.hess_eigs} for p in ps]

    return _json_ready({**rep._asdict(), "max_points": points(rep.max_points),
                        "critical_points": points(rep.critical_points[:64])})


# -- subcommands -----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    m, J = args.m, args.j_max
    if m < 2:
        raise ConfigError("--m must be an integer >= 2")
    if J < 0:
        raise ConfigError("--j-max must be an integer >= 0")
    print(f"# Dirac spectrum on S^{m}, levels j <= {J}")
    print("# lambda  multiplicity")
    total = 0
    for j in range(J + 1):
        lam = dirac_eigenvalue(m, j, +1)
        mult = dirac_multiplicity(m, j)
        total += 2 * mult
        print(f"  +-{lam:g}  {mult}")
    print(f"# total basis size through level {J}: {total}")
    if m == 2 and not args.skip_validation:
        basis = SphereBasis(min(J, 8))
        grid = QuadratureGrid(degree=3 * basis.J + 3)
        S = basis.evaluate_matrix(grid.z_pref, grid.use_a)
        wf = (grid.weights / grid.f_pref)[:, None, None]
        G = np.tensordot(np.conj(S) * wf, S, axes=([0, 1], [0, 1]))
        err = float(np.abs(G - np.eye(basis.n_basis)).max())
        print(f"# Gram residual at J={basis.J}: {err:.3e}")
        if err > 1e-10:
            _log("ERROR", "Gram validation failed")
            return EXIT_POSTCONDITION
    return EXIT_OK


def cmd_bubble(args) -> int:
    center = np.array(args.center, dtype=float)
    _check_rho("--rho", args.rho, args.J)
    if not (_is_number(args.q) and args.q > 0):
        raise ConfigError("--q must be a positive number")
    if args.J < 1:
        raise ConfigError("--J must be an integer >= 1")
    if not (np.isfinite(center).all() and center.any()):
        raise ConfigError("--center must be three finite numbers, not all zero")
    bub = Bubble(center=center, rho=args.rho, q_center=args.q)
    quad, ana = bubble_energy_flat(args.rho, args.q)
    print(f"flat critical energy: quadrature {quad!r}, analytic {ana!r} "
          f"(4 pi / Q(y)^2 = {4 * math.pi / args.q ** 2!r})")
    basis = SphereBasis(args.J)
    psi, rep = bubble_to_sphere(bub, basis)
    print(f"transport at J={args.J}: captured L2 mass {rep.l2_mass_captured!r} "
          f"of {rep.l2_mass_exact!r} (loss {rep.truncation_loss:.3e})")
    ws = Workspace(basis, QuadratureGrid(degree=3 * args.J), constant_curvature(args.q))
    er = eval_L(psi.coeff, 4.0, ws)
    print(f"sphere energies: int Q|psi|^4 = {er.nonlinear!r}, L(psi) = {er.value!r}")
    if rep.truncation_loss > 0.01:
        _log("WARNING", "truncation loss %.2f%% exceeds 1%%", 100 * rep.truncation_loss)
    return EXIT_OK


def _solve_pipeline(cfg: dict, outdir: Path) -> int:
    t_start = time.time()
    ws = build_workspace(cfg)
    report = {"config": cfg, "version": __version__}

    hyp = check_q_hypothesis(ws.Q)
    report["hypothesis"] = hypothesis_report_dict(hyp)
    if not (hyp.constant or hyp.admissible_d is not None):
        msg = "curvature field fails the analytic hypothesis checks"
        if cfg.get("allow_hypothesis_failure", False):
            _log("WARNING", "%s (continuing on explicit override)", msg)
        else:
            _log("ERROR", "%s; set allow_hypothesis_failure to proceed", msg)
            report["status"] = "config-error"
            outdir.mkdir(parents=True, exist_ok=True)
            _write_report(outdir, report)
            return EXIT_CONFIG

    init_cfg = cfg.get("init", DEFAULT_INIT)
    if init_cfg["type"] == "state":
        init = _read(load_spinor, init_cfg["path"], ws.basis)
    else:
        center = init_cfg.get("center", "argmax")
        if center == "argmax":
            center = (hyp.max_points[0].position if hyp.max_points
                      else ws.grid.xyz[int(np.argmax(ws.q_nodes))])
        try:
            # Bubble puts the centre on the sphere, and Q is read there
            center = Bubble(center=center).center
            qy = float(ws.Q.evaluate(center[None])[0])
            bubble = Bubble(center=center, rho=float(init_cfg.get("rho", 0.3)),
                            q_center=qy)
            init, _ = bubble_to_sphere(bubble, ws.basis, require_capture=True)
        except ValueError as exc:
            raise ConfigError(f"init: {exc}") from None
        report["init"] = _json_ready({"type": "bubble", "center": center,
                                      "rho": bubble.rho, "q_center": qy})
    if not np.any(init.coeff[ws.basis.plus_mask]):
        raise ConfigError("init: the initial state has no E^+ part")
    outdir.mkdir(parents=True, exist_ok=True)

    # settings absent from the config keep solve_continuation's defaults
    tols = cfg.get("tolerances", {})
    options = {kw: tols[key] for key, kw in SOLVER_TOLERANCES.items() if key in tols}
    if "max_outer" in cfg:
        options["max_outer"] = cfg["max_outer"]
    try:
        result = solve_continuation(
            ws, cfg.get("schedule", DEFAULT_SCHEDULE), init, **options)
    except SolveFailure as exc:
        if isinstance(exc, BlowUpDetected):
            _log("ERROR", "blow-up detected: %s", exc)
            code = EXIT_BLOWUP
            report.update(status="blow-up", blowup=_json_ready({
                "point": exc.point, "stage_p": exc.stage_p, "rho_hat": exc.rho_hat,
                "profile_distance": exc.profile_distance,
                "nearest_critical_point": _nearest_critical(hyp, exc.point)}))
        elif isinstance(exc, StagnationDetected):
            _log("ERROR", "stagnation: %s", exc)
            code = EXIT_STAGNATION
            report.update(status="stagnation",
                          stagnation={"stage_p": exc.stage_p, "residual": exc.residual})
        else:
            _log("ERROR", "solver failure: %s", exc)
            code = EXIT_SOLVE_FAILURE
            report.update(status="solve-failure", solve_failure=str(exc))
        exc.trace.to_csv(outdir / "trace.csv", cfg)
        _write_report(outdir, report)
        return code

    result.trace.to_csv(outdir / "trace.csv", cfg)
    save_spinor(outdir / "state.txt", result.psi)

    nodal, diag = _diagnostics(result.psi, ws)
    diag["nodal"]["window_chain"] = nodal.window_chain
    e4 = nodal.int_q_psi4
    q_max = hyp.q_max
    window = (4.0 * math.pi / q_max, 8.0 * math.pi / q_max)
    margin = min(e4 - window[0], window[1] - e4)
    window_ok = margin > -1e-9 * max(1.0, e4)

    report.update(_json_ready({
        "status": "ok",
        "final_residual": result.final_residual,
        "stages": _stage_reports(result.trace.rows),
        "energy": {"int_Q_psi4": e4, "window": window, "window_margin": margin,
                   "window_ok": window_ok, "L_value": result.value},
        **diag,
        "runtime_seconds": time.time() - t_start,
    }))
    _write_report(outdir, report)
    if nodal.verdict != "zero-free" or not window_ok:
        _log("ERROR", "postcondition failed: nodal=%s window_ok=%s", nodal.verdict,
             window_ok)
        return EXIT_POSTCONDITION
    _log("INFO", "solve finished: residual %.2e, int Q|psi|^4 = %.6f, W = %.6f",
         result.final_residual, e4, diag["willmore"]["value"])
    return EXIT_OK


def _stage_reports(rows) -> list:
    """The report's stages: one per ``kind="stage"`` trace row, with the
    stage's Newton steps plus one and the value of its ``iter`` 0 row."""
    warm = {r["stage"]: r["value"] for r in rows
            if r["kind"] == "iter" and r["iter"] == 0}
    return [{"p": r["p"], "iterations": r["iter"] + 1, "value": r["value"],
             "residual": r["residual"], "min_psi": r["min_psi"],
             "rho_hat": r["rho_hat"],
             "barycenter": [r["bary_x"], r["bary_y"]],
             "warm_start_value": warm[r["stage"]]}
            for r in rows if r["kind"] == "stage"]


def _diagnostics(psi, ws: Workspace):
    """What solve and diagnose report on a state: the nodal report (which
    holds int Q |psi|^4 and W = int Q^2 |psi|^4) and the nodal, Willmore (W
    and the Li-Yau flag W < 8 pi) and scal-identity report blocks."""
    nodal = nodal_analysis(psi, ws)
    scal = scal_identity_check(psi, ws)
    W = nodal.int_q2_psi4
    return nodal, {"nodal": {"verdict": nodal.verdict, "min_psi": nodal.min_psi_grid,
                             "bound": nodal.zero_count_bound, "note": nodal.note},
                   "willmore": {"value": W, "embedded": W < 8.0 * math.pi},
                   "scal_identity": {"l1_residual": scal.l1_residual,
                                     "pde_residual": scal.pde_residual}}


def _nearest_critical(hyp, point):
    best = None
    for p in hyp.critical_points:
        d = float(np.arccos(np.clip(np.dot(p.position, point), -1, 1)))
        if best is None or d < best["distance"]:
            best = {"distance": d, "value": p.value, "kind": p.kind,
                    "position": p.position}
    return best


def _write_report(outdir: Path, report: dict) -> None:
    with open(outdir / "report.json", "w") as fh:
        json.dump(_json_ready(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.output or cfg.get("output_dir", "run-out"))
    return _solve_pipeline(cfg, outdir)


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config)
    ws = build_workspace(cfg)
    psi = _read(load_spinor, args.state, ws.basis)
    nodal, diag = _diagnostics(psi, ws)
    out = _json_ready({"config": cfg, "energy": {"int_Q_psi4": nodal.int_q_psi4}, **diag})
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK


def cmd_immerse(args) -> int:
    out = Path(args.out)
    fmt = args.format or out.suffix.lstrip(".").lower() or "ply"
    if fmt not in ("obj", "ply"):
        raise ConfigError(f"unknown mesh format '{fmt}'")
    if args.subdivisions < 0:
        raise ConfigError("--subdivisions must be an integer >= 0")
    cfg = load_config(args.config)
    ws = build_workspace(cfg)
    psi = _read(load_spinor, args.state, ws.basis)
    # the immersion reads no grid table; held until the mesh is built, the
    # gate's table raised an `immerse --subdivisions 6` peak by 0.2-0.5 MB
    with ws.basis._one_off_tables():
        nodal = nodal_analysis(psi, ws)
    if nodal.verdict != "zero-free":
        _log("ERROR", "refusing to immerse: nodal verdict '%s' (min |psi| %.3e, "
             "bound %.3f); %s", nodal.verdict, nodal.min_psi_grid,
             nodal.zero_count_bound, nodal.note)
        return EXIT_POSTCONDITION
    mesh = reconstruct_immersion(psi, ws, subdivisions=args.subdivisions,
                                 nodal=nodal)
    out.parent.mkdir(parents=True, exist_ok=True)
    (export_obj if fmt == "obj" else export_ply)(out, mesh)
    rel = np.abs(mesh.mean_curvature - mesh.target_q) / mesh.target_q
    rel_l2 = float(np.sqrt(np.mean(rel ** 2)))
    summary = _json_ready({
        "vertices": mesh.vertices.shape[0],
        "euler_characteristic": mesh.euler_characteristic,
        "closure_defect": mesh.closure_defect,
        "gauss_bonnet_defect": mesh.gauss_bonnet_defect,
        "edge_length_rel_error": mesh.edge_length_rel_error,
        "mean_curvature_rel_l2": rel_l2,
        "mean_curvature_rel_max": float(rel.max()),
    })
    with open(out.with_suffix(out.suffix + ".json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _log("INFO", "wrote %s (%d vertices, H vs Q rel L2 %.3f%%)", out,
         mesh.vertices.shape[0], 100 * rel_l2)
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="diracsphere",
        description="Nonlinear Dirac solver on S^2 with prescribed-mean-"
                    "curvature immersion output")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print the Dirac spectrum table")
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--j-max", type=int, default=5)
    sp.add_argument("--skip-validation", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    bp = sub.add_parser("bubble", help="evaluate and transport a bubble")
    bp.add_argument("--rho", type=float, default=0.5)
    bp.add_argument("--center", type=float, nargs=3, default=[0.0, 0.0, 1.0])
    bp.add_argument("--q", type=float, default=1.0, help="Q value at the center")
    bp.add_argument("--J", type=int, default=16)
    bp.set_defaults(func=cmd_bubble)

    sv = sub.add_parser("solve", help="run the continuation solve")
    sv.add_argument("config", help="JSON run configuration")
    sv.add_argument("--output", help="output directory (overrides config)")
    sv.set_defaults(func=cmd_solve)

    dg = sub.add_parser("diagnose", help="re-run diagnostics on a state file")
    dg.add_argument("state")
    dg.add_argument("--config", required=True)
    dg.set_defaults(func=cmd_diagnose)

    im = sub.add_parser("immerse", help="reconstruct and export the immersion")
    im.add_argument("state")
    im.add_argument("--config", required=True)
    im.add_argument("--out", required=True)
    im.add_argument("--subdivisions", type=int, default=4)
    im.add_argument("--format", choices=["obj", "ply"])
    im.set_defaults(func=cmd_immerse)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _log("ERROR", "configuration error: %s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
