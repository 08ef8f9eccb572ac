import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracsphere
from diracsphere.cli import main

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


def test_sph_harm_bad_index_is_config_error(tmp_path, caplog):
    """(l, m) = (2, 3) has |m| > l: exit 2 before any compute."""
    bad = write_config(tmp_path, Q={"family": "sph_harm",
                                    "coeffs": [[0, 0, 3.5], [2, 3, 0.1]]})
    assert main(["solve", str(bad)]) == 2
    assert "|m| <= l" in caplog.text


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


def test_blowup_case_exits_3_with_default_spacing_factor(tmp_path):
    """The obstruction family Q = 1 + 0.8 x3 must be reported as blow-up
    under the solver's default capture threshold, with no override."""
    cfg = write_config(
        tmp_path, J=10, grid_degree=30,
        Q={"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 1, 0.8]]},
        schedule=[3.0, 3.5, 3.8, 3.95, 4.0], max_outer=100,
        init={"type": "bubble", "rho": 0.35, "center": "argmax"},
        tolerances={"final": 1e-6}, output_dir=str(tmp_path / "out"))
    assert main(["solve", str(cfg)]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "blow-up"


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


@pytest.mark.parametrize("override", [
    {"grid_degree": "12"},
    {"init": {"type": "state"}},
    {"schedule": [3.0, "3.5", 4.0]},
    {"init": {"type": "bubble", "rho": 0.3, "center": [0.0, 1.0]}},
    {"tolerances": {"final": "a"}},
    {"Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 1.0]]}},
    {"init": {"type": "bubble", "rho": "x"}},
], ids=["grid_degree", "state_path", "schedule", "center", "tolerance",
        "poly_term", "rho"])
def test_malformed_config_exits_2_with_one_line(tmp_path, caplog, override):
    """Wrongly typed or missing config fields are configuration errors: exit
    2 with a one-line message, before any compute and with no traceback."""
    bad = write_config(tmp_path, **override)
    assert main(["solve", str(bad), "--output", str(tmp_path / "out")]) == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert "\n" not in errors[0].getMessage()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["tol_inner", "huge_state"])
def test_solver_failure_exits_6_with_report(tmp_path, caplog, case):
    """A SolveFailure (an inner reduction missing tol_inner, a non-finite
    iterate) exits 6 with a report and the trace, and no traceback."""
    from diracsphere.spectral import SphereBasis, SpectralSpinor, save_spinor

    if case == "tol_inner":
        cfg = write_config(tmp_path, J=4, tolerances={"inner": 1e-30})
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
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
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
def test_bad_state_file_exits_2_with_one_line(tmp_path, caplog, edit):
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
        caplog.clear()
        assert main(argv) == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "state.txt" in errors[0].getMessage()
        assert "\n" not in errors[0].getMessage()


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
