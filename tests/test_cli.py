import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import diracsphere
from diracsphere.cli import ConfigError, build_workspace, main, validate_config
from diracsphere.energy import check_q_hypothesis
from diracsphere.grid import QuadratureGrid
from diracsphere.spectral import SphereBasis

CONFIG = {
    "schema_version": 1,
    "J": 8,
    "Q": {"family": "constant", "value": 1.0},
    "schedule": [3.0, 3.4, 3.7, 3.9, 3.97, 4.0],
    "init": {"type": "bubble", "rho": 0.3, "center": [0.0, 0.0, 1.0]},
    "tolerances": {"final": 1e-7},
    "seed": 0,
}


def write_config(tmp_path, **overrides) -> Path:
    cfg = json.loads(json.dumps(CONFIG))
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def no_large_grid(monkeypatch):
    """Fail, instead of exhausting memory, on any grid above degree 1000."""
    build = QuadratureGrid.__post_init__

    def guarded(grid):
        assert grid.degree <= 1000, f"allocated a degree-{grid.degree} grid"
        build(grid)

    monkeypatch.setattr(QuadratureGrid, "__post_init__", guarded)


def error_messages(capsys) -> list[str]:
    """The messages of the ``ERROR`` lines the CLI wrote to stderr since the
    last read.  Every stderr line must be one whole ``LEVEL diracsphere:``
    message, so a message holds no newline and no traceback follows it."""
    lines = capsys.readouterr().err.splitlines()
    levels = tuple(f"{level} diracsphere: " for level in ("INFO", "WARNING", "ERROR"))
    assert all(line.startswith(levels) for line in lines), lines
    return [line.removeprefix(levels[2]) for line in lines if line.startswith(levels[2])]


def cli_env(**overrides) -> dict:
    """Environment of a fresh CLI process that imports this checkout's package."""
    src = str(Path(diracsphere.__file__).resolve().parents[1])
    return dict(os.environ, **overrides, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_spectrum_table(capsys):
    assert main(["spectrum", "--j-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "+-1  2" in out and "+-2  4" in out and "+-3  6" in out
    assert "total basis size through level 2: 24" in out


def test_spectrum_general_m(capsys):
    assert main(["spectrum", "--m", "3", "--j-max", "0", "--skip-validation"]) == 0
    out = capsys.readouterr().out
    assert "+-1.5  2" in out


def test_spectrum_failed_gram_check_exits_5(monkeypatch, capsys):
    """A failed Gram check is a postcondition failure, exit 5."""
    good = SphereBasis.evaluate_matrix
    monkeypatch.setattr(SphereBasis, "evaluate_matrix",
                        lambda self, *a, **k: 1.01 * good(self, *a, **k))
    assert main(["spectrum", "--j-max", "2"]) == 5


def test_bubble_command(capsys):
    assert main(["bubble", "--rho", "0.5", "--J", "8"]) == 0
    out = capsys.readouterr().out
    assert "flat critical energy" in out
    assert repr(4 * math.pi)[:8] in out


def test_config_schedule_validation(tmp_path):
    bad = write_config(tmp_path, schedule=[3.0, 3.5])
    assert main(["solve", str(bad)]) == 2          # config error before compute
    bad2 = write_config(tmp_path, J=2)
    assert main(["solve", str(bad2)]) == 2
    bad3 = write_config(tmp_path, Q={"family": "nope"})
    assert main(["solve", str(bad3)]) == 2


def test_sph_harm_bad_index_is_config_error(tmp_path, capsys):
    """(l, m) = (2, 3) has |m| > l: exit 2 before any compute."""
    bad = write_config(tmp_path, Q={"family": "sph_harm",
                                    "coeffs": [[0, 0, 3.5], [2, 3, 0.1]]})
    assert main(["solve", str(bad)]) == 2
    assert "|m| <= l" in capsys.readouterr().err


def test_solve_diagnose_immerse_pipeline(tmp_path):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["solve", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "trace.csv").exists()
    assert (out / "state.txt").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["J"] == 8              # config echoed, audit trail
    assert report["nodal"]["verdict"] == "zero-free"
    assert abs(report["willmore"]["value"] - 4 * math.pi) < 1e-3
    assert report["energy"]["window_ok"]
    assert report["status"] == "ok"

    assert main(["diagnose", str(out / "state.txt"), "--config", str(cfg)]) == 0

    mesh_path = tmp_path / "mesh.ply"
    assert main(["immerse", str(out / "state.txt"), "--config", str(cfg),
                 "--out", str(mesh_path), "--subdivisions", "2"]) == 0
    assert mesh_path.exists()
    summary = json.loads((tmp_path / "mesh.ply.json").read_text())
    assert summary["vertices"] == 162
    assert summary["euler_characteristic"] == 2
    assert summary["mean_curvature_rel_l2"] <= 0.02


def test_immerse_refuses_state_with_zero(tmp_path, ws8):
    from diracsphere.spectral import SpectralSpinor, save_spinor

    cfg = write_config(tmp_path)
    basis = ws8.basis
    coeff = np.zeros(basis.n_basis, complex)
    i = next(k for k, ix in enumerate(basis.indices)
             if ix.j == 1 and ix.sigma == 1 and ix.k == 1)
    coeff[i] = 2.0
    state = tmp_path / "zero_state.txt"
    save_spinor(state, SpectralSpinor(basis, coeff))
    rc = main(["immerse", str(state), "--config", str(cfg),
               "--out", str(tmp_path / "m.ply")])
    assert rc == 5


def test_immerse_builds_the_edge_list_once(tmp_path, monkeypatch, ws8):
    """One immerse call builds the icosphere's edge list once: the Euler
    characteristic it reports comes from the reconstruction's edge list."""
    from diracsphere import geometry
    from diracsphere.spectral import SpectralSpinor, save_spinor

    basis = ws8.basis
    coeff = np.zeros(basis.n_basis, complex)
    i = next(k for k, ix in enumerate(basis.indices) if ix.j == 0 and ix.sigma == 1)
    coeff[i] = math.sqrt(4 * math.pi)          # a unit Killing spinor, zero-free
    state = tmp_path / "killing.txt"
    save_spinor(state, SpectralSpinor(basis, coeff))
    calls = []
    mesh_edges = geometry.mesh_edges
    monkeypatch.setattr(geometry, "mesh_edges",
                        lambda faces: calls.append(len(faces)) or mesh_edges(faces))
    assert main(["immerse", str(state), "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path / "m.ply"), "--subdivisions", "2"]) == 0
    assert calls == [320]
    assert json.loads((tmp_path / "m.ply.json").read_text())["euler_characteristic"] == 2


def test_ring_tables_are_built_once_and_immerse_holds_none(tmp_path, monkeypatch):
    """A solve builds each ring table degree once: the bubble's analysis
    grid (degree 54 for rho 0.3) and the solve grid (24), kept for the
    diagnostics.  A diagnose of the state builds the grid's table once for
    the nodal and scal-identity reads, and an immerse builds it once for
    the nodal gate and drops it: the reconstruction runs with no table
    cached."""
    from diracsphere import cli

    builds, held = [], []
    synthesis_matrix = SphereBasis.synthesis_matrix
    reconstruct = cli.reconstruct_immersion

    def counted(basis, grid):
        if grid.degree not in basis._matrix_cache:
            builds.append(grid.degree)
        return synthesis_matrix(basis, grid)

    def reconstruct_holding(psi, *args, **kwargs):
        held.append(list(psi.basis._matrix_cache))
        return reconstruct(psi, *args, **kwargs)

    monkeypatch.setattr(SphereBasis, "synthesis_matrix", counted)
    monkeypatch.setattr(cli, "reconstruct_immersion", reconstruct_holding)
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == 0
    assert builds == [54, 24]
    builds.clear()
    assert main(["diagnose", str(out / "state.txt"), "--config", str(cfg)]) == 0
    assert builds == [24]
    builds.clear()
    assert main(["immerse", str(out / "state.txt"), "--config", str(cfg),
                 "--out", str(tmp_path / "m.ply"), "--subdivisions", "1"]) == 0
    assert builds == [24] and held == [[]]


def test_blowup_case_exits_3_with_default_spacing_factor(tmp_path):
    """The obstruction family Q = 1 + 0.8 x3 must be reported as blow-up
    by the monitor's sup-norm scale rule, with no
    ``blowup_spacing_factor`` in the config."""
    cfg = write_config(
        tmp_path, J=10, grid_degree=30,
        Q={"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 1, 0.8]]},
        schedule=[3.0, 3.5, 3.8, 3.95, 4.0], max_outer=100,
        init={"type": "bubble", "rho": 0.35, "center": "argmax"},
        tolerances={"final": 1e-6}, output_dir=str(tmp_path / "out"))
    assert main(["solve", str(cfg)]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "blow-up"


def test_obstruction_family_at_j16_exits_3(tmp_path):
    """The same obstruction family at J=16: at p = 3.8 and 3.95 the
    sup-norm scale is at most 1.5 grid spacings, so the monitor flags it and
    the solve does not certify a curvature that has no solution."""
    cfg = write_config(
        tmp_path, J=16, grid_degree=48,
        Q={"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 1, 0.8]]},
        schedule=[3.0, 3.5, 3.8, 3.95, 4.0], max_outer=100,
        init={"type": "bubble", "rho": 0.35, "center": "argmax"},
        tolerances={"final": 1e-6}, output_dir=str(tmp_path / "out"))
    assert main(["solve", str(cfg)]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "blow-up"
    assert report["blowup"]["stage_p"] == 3.95


_FOUND_AFFINE = {
    "a0.05-J8-default": dict(J=8, grid_degree=24, a=0.05,
                             schedule=[3.0, 3.4, 3.7, 3.9, 3.97, 4.0]),
    "a0.6-J16-5stage": dict(J=16, grid_degree=48, a=0.6,
                            schedule=[3.0, 3.5, 3.8, 3.95, 4.0]),
}


@pytest.mark.parametrize("case", sorted(_FOUND_AFFINE))
def test_affine_curvature_without_solution_exits_3(tmp_path, case):
    """Q = 1 + a x3 with 0 < a < 1 has no solution (Kazdan-Warner).  With a
    bubble of rho 0.3 at argmax and max_outer 100, these two configs exited
    0 under the cap-mass monitor; the sup-norm scale flags both."""
    c = _FOUND_AFFINE[case]
    cfg = write_config(
        tmp_path, J=c["J"], grid_degree=c["grid_degree"], schedule=c["schedule"],
        Q={"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 1, c["a"]]]},
        max_outer=100, init={"type": "bubble", "rho": 0.3, "center": "argmax"},
        output_dir=str(tmp_path / "out"))
    assert main(["solve", str(cfg)]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "blow-up"


def test_generic_curvature_at_j8_exits_0_with_one_small_stage(tmp_path):
    """The generic Q = 1 + 0.3 x3^2 + 0.1 x1 + 0.1 x1 x2 + 0.05 x2 x3 at J=8
    concentrates as p -> 4, and only its last stage has a sup-norm scale at
    or below 1.5 grid spacings: one stage is not two in a row, so it exits 0
    at its value."""
    terms = [[0, 0, 0, 1.0], [0, 0, 2, 0.3], [1, 0, 0, 0.1], [1, 1, 0, 0.1],
             [0, 1, 1, 0.05]]
    cfg = write_config(tmp_path, Q={"family": "polynomial", "terms": terms},
                       init={"type": "bubble", "rho": 0.3, "center": "argmax"})
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["energy"]["L_value"] == pytest.approx(2.7658546998963818, rel=1e-12)
    threshold = 1.5 * QuadratureGrid(degree=24).mean_spacing()
    small = [s["rho_hat"] <= threshold for s in report["stages"]]
    assert small == [False] * 5 + [True]


def test_solve_builds_no_cap_mass_table(tmp_path, monkeypatch):
    """The monitor reads the sup-norm scale: a J=8 solve never calls
    ``concentration_profile``."""
    from diracsphere import reduction

    def refused(*args, **kwargs):
        raise AssertionError("concentration_profile called by a solve")

    monkeypatch.setattr(reduction, "concentration_profile", refused)
    cfg = write_config(tmp_path)
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out")]) == 0


def _bench_workloads():
    """The benchmark's workload module, which defines the solve-j16 configs
    and their reference L_value."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_blowup_config_restates_the_fixed_spacing_factor():
    """The benchmark's blow-up config sets ``blowup_spacing_factor`` to the
    solver's fixed 5.0; the validator accepts that restatement as it is."""
    cfg = _bench_workloads().blowup_j10_config(0)
    assert cfg["tolerances"]["blowup_spacing_factor"] == 5.0
    text = json.dumps(cfg)
    validate_config(cfg)
    assert json.dumps(cfg) == text


def _solve_j16(tmp_path, cfg):
    """Exit code and report.json of a CLI solve of ``cfg``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", str(path), "--output", str(out)])
    return code, json.loads((out / "report.json").read_text())


def test_grid_node_start_reaches_the_reference(tmp_path):
    """The solve-j16 config of rotation seed 5, started from the grid node
    nearest the maximum of Q (0.0095 rad from it), ends at the reference
    value.  Projected descent on the Nehari set left the reference branch
    there for a saddle and exited 0 at the concentrated state, L 2.4935."""
    bench = _bench_workloads()
    cfg = bench.solve_j16_config(5)
    ws = build_workspace(cfg)
    y = check_q_hypothesis(ws.Q).max_points[0].position
    cfg["init"]["center"] = ws.grid.xyz[int(np.argmax(ws.grid.xyz @ y))].tolist()
    code, report = _solve_j16(tmp_path, cfg)
    assert code == 0
    ref = bench.REF_L_VALUE
    assert abs(report["energy"]["L_value"] - ref) <= 1e-9 * ref


def test_direct_critical_stage_does_not_pass_a_concentrated_state(tmp_path):
    """The seed-0 solve-j16 config with the single stage p = 4 converged to
    the concentrated state (L 2.4935) and exited 0; a solve of it that exits
    0 must end at the reference value."""
    bench = _bench_workloads()
    cfg = dict(bench.solve_j16_config(0), schedule=[4.0])
    code, report = _solve_j16(tmp_path, cfg)
    ref = bench.REF_L_VALUE
    assert code != 0 or abs(report["energy"]["L_value"] - ref) <= 1e-9 * ref


def test_report_stages_are_the_trace_stage_rows(tmp_path):
    """report.json's stages are the trace's stage rows: the stage row's
    iter plus one Newton steps, and the value of the stage's iter-0 row as
    its warm start."""
    cfg = write_config(tmp_path, J=4, schedule=[3.0, 3.5, 4.0])
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == 0
    lines = [l for l in (out / "trace.csv").read_text().splitlines()
             if not l.startswith("#")]
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    warm = {r["stage"]: float(r["value"]) for r in rows
            if r["kind"] == "iter" and r["iter"] == "0"}
    expected = [{"p": float(r["p"]), "iterations": int(r["iter"]) + 1,
                 "value": float(r["value"]), "residual": float(r["residual"]),
                 "min_psi": float(r["min_psi"]),
                 "rho_hat": float(r["rho_hat"]),
                 "barycenter": [float(r["bary_x"]), float(r["bary_y"])],
                 "warm_start_value": warm[r["stage"]]}
                for r in rows if r["kind"] == "stage"]
    stages = json.loads((out / "report.json").read_text())["stages"]
    assert len(stages) == 3 and stages == expected


def test_determinism_bit_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["solve", str(cfg), "--output", str(tmp_path / "r1")]) == 0
    assert main(["solve", str(cfg), "--output", str(tmp_path / "r2")]) == 0
    t1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    s1 = (tmp_path / "r1" / "state.txt").read_bytes()
    s2 = (tmp_path / "r2" / "state.txt").read_bytes()
    assert t1 == t2
    assert s1 == s2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "diracsphere.cli", "--version"],
                          env=cli_env(), capture_output=True, text=True)
    assert proc.returncode == 0


def _minus_only_state(tmp_path) -> dict:
    """Config override: a J=4 state file whose E^+ coefficients are all 0."""
    from diracsphere.spectral import SpectralSpinor, save_spinor

    basis = SphereBasis(4)
    path = tmp_path / "minus.txt"
    save_spinor(path, SpectralSpinor(basis, np.where(basis.minus_mask, 1.0 + 0j, 0.0)))
    return {"J": 4, "init": {"type": "state", "path": str(path)}}


@pytest.mark.parametrize("override", [
    {"grid_degree": "12"},
    {"init": {"type": "state"}},
    {"schedule": [3.0, "3.5", 4.0]},
    {"init": {"type": "bubble", "rho": 0.3, "center": [0.0, 1.0]}},
    {"tolerances": {"final": "a"}},
    {"Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 1.0]]}},
    {"init": {"type": "bubble", "rho": "x"}},
    {"tolerances": 5},
    {"tolerances": ["final"]},
    {"max_outer": "a"},
    {"clamp_radius": "x"},
    {"Q": {"family": "polynomial", "terms": [[0.5, 0, 0, 1.0]]}},
    {"Q": {"family": "constant", "value": -1}},
    {"Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 1, -2.0]]}},
    {"output_dir": 5},
    {"init": {"type": "bubble", "rho": 0.3, "center": [0.0, 0.0, 0.0]}},
    {"init": {"type": "bubble", "rho": 1e-4}},
    {"tolerances": {"final": 1e-6, "finall": 3}},
    {"J": 4, "init": {"type": "bubble", "rho": 0.05}},
    _minus_only_state,
    {"max_outr": 5},
    {"init": {"type": "bubble", "rho": 0.3, "centre": [0, 0, 1]}},
    {"allow_hypothesis_failure": "no"},
    {"clamp_radius": 10.0},
    {"tolerances": {"blowup_capture": 0.9}},
    {"tolerances": {"inner": 1e-10}},
    {"tolerances": {"blowup_spacing_factor": 3.0}},
], ids=["grid_degree", "state_path", "schedule", "center", "tolerance",
        "poly_term", "rho", "tolerances_number", "tolerances_list",
        "max_outer", "clamp_radius", "poly_exponent", "q_negative",
        "q_sign_change", "output_dir", "zero_center", "rho_tiny",
        "tolerance_unknown_key", "lossy_transport", "state_minus_only",
        "unknown_key", "init_unknown_key", "allow_hypothesis_failure_string",
        "removed_clamp_radius", "removed_blowup_capture", "removed_inner",
        "fixed_blowup_spacing_factor"])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, no_large_grid,
                                                override):
    """Wrongly typed, unknown or missing config fields, a curvature that is
    not positive at the nodes, a bubble too narrow for a bounded analysis
    grid or for the basis, and a start with no E^+ part are configuration
    errors: exit 2 with a one-line message, before the solve and with no
    traceback, from solve and from diagnose."""
    if callable(override):
        override = override(tmp_path)
    bad = write_config(tmp_path, **override)
    for argv in (["solve", str(bad), "--output", str(tmp_path / "out")],
                 ["diagnose", str(tmp_path / "state.txt"), "--config", str(bad)]):
        assert main(argv) == 2
        assert len(error_messages(capsys)) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["bubble", "--rho", "0"], "--rho"),
    (["bubble", "--rho", "1e-4"], "--rho"),
    (["bubble", "--q", "-1"], "--q"),
    (["bubble", "--J", "-2"], "--J"),
    (["bubble", "--center", "0", "0", "0"], "--center"),
    (["spectrum", "--m", "1"], "--m"),
    (["spectrum", "--j-max", "-1"], "--j-max"),
    (["immerse", "missing-state.txt", "--config", "missing.json",
      "--out", "mesh.stl"], "mesh format 'stl'"),
    (["immerse", "missing-state.txt", "--config", "missing.json",
      "--out", "mesh.ply", "--subdivisions=-5"], "--subdivisions"),
], ids=["rho_zero", "rho_tiny", "q_negative", "J_negative", "zero_center",
        "m_one", "j_max_negative", "stl_out", "subdivisions_negative"])
def test_bad_argument_exits_2_with_one_line(capsys, no_large_grid, argv, message):
    """Out-of-range command-line arguments are configuration errors: exit 2
    with a one-line message naming the argument and no traceback.  The mesh
    format and the subdivision count are checked before the config or the
    state is read, and a bubble scale before its analysis grid is built."""
    assert main(argv) == 2
    errors = error_messages(capsys)
    assert len(errors) == 1
    assert message in errors[0]


def test_stagnation_exits_4_with_report(tmp_path, capsys):
    """A stage that cannot reach its tolerance within max_outer iterations
    exits 4 with the stagnation block in report.json, the trace written,
    and one error line."""
    cfg = write_config(
        tmp_path, J=8, grid_degree=24,
        Q={"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 2, 0.3]]},
        schedule=[3.0, 4.0], max_outer=2,
        tolerances={"stage": 1e-13, "final": 1e-13},
        init={"type": "bubble", "rho": 0.4, "center": "argmax"})
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "stagnation"
    assert set(report["stagnation"]) == {"stage_p", "residual"}
    assert report["stagnation"]["residual"] > 1e-13
    assert (out / "trace.csv").read_text().startswith("# diracsphere-trace")
    assert len(error_messages(capsys)) == 1


FUZZ_BASE = {
    "schema_version": 1, "J": 4, "grid_degree": 12,
    "Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 2, 0.3]]},
    "schedule": [3.0, 3.5, 4.0],
    "init": {"type": "bubble", "rho": 0.3, "center": [0.0, 0.0, 1.0]},
    "tolerances": {"final": 1e-6, "stage": 1e-6},
    "max_outer": 50, "output_dir": "out",
}


def _leaf_paths(node, path=()):
    """Every key or index path into a JSON document, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _leaf_paths(child, path + (key,))


FUZZ_PATHS = list(_leaf_paths(FUZZ_BASE))
# negative, zero, non-finite, huge and wrongly typed values; DROP deletes.
# No huge integer: J or grid_degree at 10**6 is a valid request for a grid
# that does not fit in memory, not a malformed config.
DROP = "<drop>"
FUZZ_VALUES = [DROP, None, True, "x", [], {}, -1, 0, 1, -2.5, 0.0, 0.5,
               math.nan, math.inf, -math.inf, 1e300, -1e300]


def _has(node, key) -> bool:
    return (key in node if isinstance(node, dict)
            else isinstance(node, list) and isinstance(key, int) and key < len(node))


def _mutate(cfg, path, value):
    """Set (or drop) cfg at path; a path that no longer exists is skipped."""
    node = cfg
    for key in path[:-1]:
        if not _has(node, key):
            return
        node = node[key]
    if _has(node, path[-1]):
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(strategies.lists(strategies.tuples(strategies.sampled_from(FUZZ_PATHS),
                                          strategies.sampled_from(FUZZ_VALUES)),
                        min_size=1, max_size=3))
def test_config_fuzzer_raises_only_config_errors(mutations):
    """A J=4 config with dropped keys, swapped types and negative, zero,
    non-finite or huge values either validates and builds its workspace or
    raises ConfigError; anything else would be a traceback on the CLI."""
    cfg = json.loads(json.dumps(FUZZ_BASE))
    for path, value in mutations:
        _mutate(cfg, path, value)
    try:
        validate_config(cfg)
        build_workspace(cfg)
    except ConfigError:
        pass


@pytest.mark.parametrize("case", ["tol_inner", "huge_state"])
def test_solver_failure_exits_6_with_report(tmp_path, capsys, monkeypatch, case):
    """A SolveFailure (an inner reduction missing its tolerance, set to 1e-30
    in-process; a non-finite iterate) exits 6 with a report and the trace,
    and no traceback; the non-finite case also in a fresh process, with one
    line on stderr."""
    from diracsphere import reduction
    from diracsphere.spectral import SphereBasis, SpectralSpinor, save_spinor

    if case == "tol_inner":
        monkeypatch.setattr(reduction, "_TOL_INNER", 1e-30)
        cfg = write_config(tmp_path, J=4)
    else:
        state = tmp_path / "state.txt"
        basis = SphereBasis(4)
        save_spinor(state, SpectralSpinor(basis, np.full(basis.n_basis, 1e200 + 0j)))
        cfg = write_config(tmp_path, J=4, init={"type": "state", "path": str(state)})
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == 6
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "solve-failure"
    assert report["solve_failure"].startswith(
        "inner reduction did not reach" if case == "tol_inner" else "non-finite iterate")
    assert (out / "trace.csv").read_text().startswith("# diracsphere-trace")
    assert len(error_messages(capsys)) == 1
    if case == "tol_inner":
        return
    # in a fresh process stderr holds that one line and no numpy warning
    proc = subprocess.run([sys.executable, "-m", "diracsphere.cli", "solve", str(cfg),
                           "--output", str(tmp_path / "p")],
                          env=cli_env(), capture_output=True, text=True)
    assert proc.returncode == 6
    assert proc.stderr.startswith("ERROR diracsphere: solver failure: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_unreadable_config_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["diagnose", "state.txt", "--config", str(broken)]) == 2


def _edit_rows(text, edit):
    head = [line for line in text.splitlines() if line.startswith("#")]
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return "\n".join(head + edit(rows)) + "\n"


@pytest.mark.parametrize("edit", [
    None,
    lambda rows: rows[:7] + [" ".join(rows[7].split()[:3] + ["nan", "0.0"])] + rows[8:],
    lambda rows: rows[:1],
    lambda rows: rows[:-1] + rows[:1],
], ids=["missing", "nan_row", "one_of_60_rows", "duplicate_row"])
def test_bad_state_file_exits_2_with_one_line(tmp_path, capsys, edit):
    """A missing or malformed state file, as init.path or as the diagnose
    and immerse argument, is a configuration error: exit 2, one line."""
    from diracsphere.spectral import SphereBasis, SpectralSpinor, save_spinor

    state = tmp_path / "state.txt"
    if edit is not None:
        basis = SphereBasis(4)
        save_spinor(state, SpectralSpinor(basis, np.ones(basis.n_basis, complex)))
        state.write_text(_edit_rows(state.read_text(), edit))
    cfg = write_config(tmp_path, J=4, init={"type": "state", "path": str(state)})
    for argv in (["solve", str(cfg), "--output", str(tmp_path / "out")],
                 ["diagnose", str(state), "--config", str(cfg)],
                 ["immerse", str(state), "--config", str(cfg),
                  "--out", str(tmp_path / "m.ply")]):
        assert main(argv) == 2
        errors = error_messages(capsys)
        assert len(errors) == 1
        assert "state.txt" in errors[0]


def test_determinism_across_blas_threads(tmp_path):
    """The criterion-9 solve gives byte-identical trace and state files with
    one and with two BLAS threads."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "J": 8,
        "Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 2, 0.3]]},
        "schedule": [3.0, 3.5, 4.0],
        "init": {"type": "bubble", "rho": 0.35, "center": [0.0, 0.0, 1.0]},
        "tolerances": {"final": 1e-6}}))
    outputs = []
    for threads in ("1", "2"):
        env = cli_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "diracsphere.cli", "solve",
                               str(cfg), "--output", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("trace.csv", "state.txt")])
    assert outputs[0] == outputs[1]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(J=strategies.sampled_from([4, 5]),
       points=strategies.lists(strategies.floats(2.05, 3.99), max_size=2, unique=True),
       terms=strategies.lists(strategies.tuples(
           *[strategies.integers(0, 2)] * 3, strategies.floats(-0.3, 0.3)), max_size=3),
       rho=strategies.floats(0.4, 1.0),
       direction=strategies.tuples(*[strategies.floats(-1.0, 1.0)] * 3).filter(any),
       scale=strategies.integers(-200, 2))
def test_fuzzed_solves_exit_with_a_known_code(tmp_path_factory, J, points, terms,
                                              rho, direction, scale):
    """Whole CLI solves at J = 4, 5 with one to three schedule points ending at
    4.0, Q = 1 plus small monomials and a bubble start of random scale and
    centre (of any length) exit with a documented code, and every code but
    2 leaves a report."""
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = dict(CONFIG, J=J, schedule=sorted(points) + [4.0],
               Q={"family": "polynomial", "terms": [[0, 0, 0, 1.0]] + list(map(list, terms))},
               init={"type": "bubble", "rho": rho,
                     "center": [c * 10.0 ** scale for c in direction]})
    (tmp / "config.json").write_text(json.dumps(cfg))
    code = main(["solve", str(tmp / "config.json"), "--output", str(tmp / "out")])
    assert code in (0, 2, 3, 4, 5, 6)
    assert code == 2 or (tmp / "out" / "report.json").is_file()


def test_bubble_command_reads_a_tiny_centre_on_the_sphere(capsys):
    """The bubble subcommand puts a centre of length 1e-200 on the sphere:
    it prints what the unit centre prints, with no NaN."""
    outputs = []
    for length in ("1e-200", "1"):
        assert main(["bubble", "--center", length, "0", "0", "--J", "4"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "nan" not in outputs[0]


def test_bubble_centre_of_any_length_is_read_on_the_sphere(tmp_path):
    """An explicit bubble centre is put on the sphere before Q is read at it:
    centres 1, 3 and 1e-200 times the north pole give the same start and
    the same state."""
    states = []
    for i, length in enumerate((1.0, 3.0, 1e-200)):
        cfg = write_config(tmp_path, J=4, schedule=[3.5, 4.0],
                           Q={"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 2, 0.3]]},
                           init={"type": "bubble", "rho": 0.5, "center": [0.0, 0.0, length]})
        out = tmp_path / f"out{i}"
        assert main(["solve", str(cfg), "--output", str(out)]) == 0
        init = json.loads((out / "report.json").read_text())["init"]
        assert init["center"] == [0.0, 0.0, 1.0] and init["q_center"] == 1.3
        states.append((out / "state.txt").read_bytes())
    assert states[0] == states[1] == states[2]
