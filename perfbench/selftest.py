"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py                 # J=8 solve and immerse, ~1 min
    python3 perfbench/selftest.py --workload solve-j16

Runs each command plain, then through ``cli_entry.py`` traced and stamped,
and checks that the wrappers count calls, that every wrapper target exists,
that every command wrote a set-up stamp, that the outputs (trace.csv,
state.txt, mesh files) are byte-identical across the three, and that the
per-layer metric names match ``BENCHMARK.json``.  For the J=8 solve it also
checks that a set-up-only run stops at the solver with exit code 0.  With ``--workload`` it does
the same for a benchmark workload at seed 0 and prints the calls made inside
``solve_continuation`` next to the baseline in ``baseline.json``.
Run from the repository root; exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import child_env, cli_command, entry_command, read_spans, read_stamp
from tracer import per_layer_metrics, solve_counts, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SMALL_CONFIG = {"schema_version": 1, "J": 8, "grid_degree": 24,
                "Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 2, 0.3]]},
                "init": {"type": "bubble", "rho": 0.3, "center": "argmax"},
                "tolerances": {"final": 1e-7}}
COMPARED = ("trace.csv", "state.txt", "mesh.ply")
MUST_COUNT = ("spectral.synthesize", "spectral.analyze", "energy.hessian_apply",
              "reduction.nehari_project", "reduction.reduce_minus",
              "reduction.solve_continuation", "reduction.monitor",
              "conformal.bubble_to_sphere", "energy.check_q_hypothesis",
              "cli.build_workspace", "cli.io", "grid.build", "chartexpr.call",
              "geometry.nodal_analysis", "geometry.scal_identity_check")
IMMERSE_COUNT = ("spectral.evaluate", "geometry.reconstruct_immersion",
                 "geometry.export")


def run_modes(commands, work: Path, root: Path, env) -> tuple[list, list[str]]:
    """Run the commands plain, traced and stamped, each into work/<mode>."""
    dumps, fails = [], []
    for mode in ("plain", "trace", "stamp"):
        for i, cmd in enumerate(commands):
            cmd = [a.replace("{out}", str(work / mode)) for a in cmd]
            path = work / f"{mode}-{i}.out"
            argv = cli_command(cmd) if mode == "plain" else entry_command(mode, path, cmd)
            (work / mode).mkdir(parents=True, exist_ok=True)
            code = subprocess.run(argv, env=env, cwd=root, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            if mode == "trace":
                dumps.append(read_spans(path, fails))
            if mode == "stamp" and read_stamp(path) is None:
                fails.append(f"stamped {cmd[0]} wrote no set-up stamp")
            if code not in (0, 3):
                fails.append(f"{mode} {cmd[0]} exit code {code}")
    for mode in ("trace", "stamp"):
        for name in COMPARED:
            a, b = work / "plain" / name, work / mode / name
            if a.is_file() != b.is_file() or (a.is_file() and a.read_bytes() != b.read_bytes()):
                fails.append(f"{name} differs between the plain and the {mode} run")
    return [d for d in dumps if d is not None], fails


def check_setup_only(cmd, work: Path, root: Path, env) -> list[str]:
    """A set-up-only run exits 0 at the solver entry, before any output."""
    out, stamp = work / "setup", work / "setup-stamp.out"
    code = subprocess.run(entry_command("setup", stamp, cmd + ["--output", str(out)]),
                          env=env, cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    fails = [] if code == 0 else [f"set-up-only run exit code {code}"]
    if read_stamp(stamp) is None:
        fails.append("set-up-only run wrote no stamp")
    if (out / "state.txt").exists():
        fails.append("set-up-only run went on past the solver entry")
    return fails


def check_counts(dumps, names) -> list[str]:
    s = summarize(dumps)
    return [f"no calls recorded for {n}" for n in names if s.get(n, {}).get("calls", 0) == 0]


def check_metric_names(dumps) -> list[str]:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    printed = set(per_layer_metrics(dumps, 0)) | {"trace.wall_s"}
    return [f"per-layer metric {n} declared but not printed" for n in declared - printed] \
        + [f"per-layer metric {n} printed but not declared" for n in printed - declared]


def small(root, env, work) -> list[str]:
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    dumps, fails = run_modes([["solve", str(cfg), "--output", "{out}"]],
                             work / "solve", root, env)
    fails += check_setup_only(["solve", str(cfg)], work / "solve", root, env)
    fails += check_counts(dumps, MUST_COUNT)
    fails += check_metric_names(dumps)
    if not summarize(dumps)["table_build_s"] > 0:
        fails.append("no table build recorded")
    state = work / "solve" / "plain" / "state.txt"
    dumps, f2 = run_modes([["immerse", str(state), "--config", str(cfg),
                            "--out", "{out}/mesh.ply", "--subdivisions", "2"]],
                          work / "immerse", root, env)
    return fails + f2 + check_counts(dumps, IMMERSE_COUNT)


def workload(name, root, env, work) -> list[str]:
    wl = WORKLOADS[name]
    work.mkdir(parents=True)
    wl.prepare(0, work)
    commands = [[a.replace(str(work / "out"), "{out}") for a in c] for c in wl.commands(work)]
    dumps, fails = run_modes(commands, work, root, env)
    if name != "immerse-j16":
        counts = solve_counts(dumps)
        with open(HERE / "baseline.json") as fh:
            expected = json.load(fh)["solve_counts"].get(name)
        print(json.dumps({"solve_counts": counts, "baseline": expected}))
        if expected is not None and counts != expected:
            fails.append("calls inside solve_continuation differ from baseline.json")
    return fails


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    root = Path.cwd()
    env = child_env(root)
    work = root / ".perfbench_out" / f"selftest-{args.workload or 'small'}"
    shutil.rmtree(work, ignore_errors=True)
    fails = workload(args.workload, root, env, work) if args.workload else small(root, env, work)
    for f in fails:
        print("FAIL", f)
    print("selftest", "failed" if fails else "passed")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
