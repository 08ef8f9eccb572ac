"""Benchmark of the ``diracsphere`` CLI on seeded workloads.

    python3 perfbench/run.py --workload solve-j16 --seed 3 --seconds 10 --trace 0

Run from the repository root.  The program is used from ``src/`` as is
(nothing to build); every CLI command runs in a fresh process with the BLAS
thread count pinned to ``BLAS_THREADS``, through ``cli_entry.py``, which
behaves like ``python3 -m diracsphere.cli``.  Workloads, inputs and output
checks live in ``workloads.py``; the reason for each is in ``BENCHMARK.json``.
``BENCHMARK.json`` lists ``solve-j16`` and ``immerse-j16``; ``blowup-j10``
(small tables, many calls, the failure path) runs with the same command but
is left out there because the three together overrun the time budget of a
full comparison.  Run it by hand for a change to the transform or the solver.

``--trace 0`` measures the end-to-end metrics with tracing off.  It runs
closed-loop passes of the workload's commands, one after the other, until
``--seconds`` have passed (at least one pass; a ``solve-j16`` pass alone takes
longer than any allowed run length).  ``wall_s`` and ``cpu_s`` (user plus
system) are per-pass medians; ``peak_rss_mb`` is the median over passes of
the largest resident set of a command.  ``setup_s`` of a pass is the time
from starting each command's process to its first entry to the solver or to
the first evaluation of the loaded state (see ``cli_entry.py``), summed over
the pass's commands; it is the median over the passes, topped up to
``SETUP_SAMPLES`` values by passes that stop each command at that entry.

``--trace 1`` makes exactly one pass with the tracer installed, which wraps
the public functions of each module from outside the package
(``tracer.py``), and prints the per-layer metrics.
``trace.wall_s`` minus the untraced ``wall_s`` is the tracing overhead.

Every pass is checked; a pass that fails any check counts in ``failed``
(``failed / attempted`` is the failure fraction).  The last line of standard
output is the JSON result; the line before it records the environment.
Scratch files go to ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0


def child_env(root: Path) -> dict:
    """Environment of every program process: package from ``src/``, BLAS pinned."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "diracsphere.cli", *args]


def entry_command(mode: str, path: Path, args: list[str]) -> list[str]:
    """A CLI command run through ``cli_entry.py`` in ``mode``."""
    return [sys.executable, str(HERE / "cli_entry.py"), mode, str(path), *args]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": metadata.version("scipy")}


@dataclass
class Measured:
    code: int
    spawn: float
    wall: float
    cpu: float
    rss_mb: float


def run_measured(argv, env, cwd, out_path, err_path, deadline) -> Measured:
    """Run one process to completion; its own rusage comes from wait4."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(proc.returncode, spawn, wall, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024.0)


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mb: float
    setup: float
    fails: list


def read_stamp(path: Path) -> float | None:
    try:
        return float(path.read_text())
    except (OSError, ValueError):
        return None


def read_spans(path: Path, fails: list) -> dict | None:
    """A command's span dump; a missing dump or wrapper target is a failure."""
    try:
        dump = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        fails.append(f"no spans from {path.name}: {exc!r}")
        return None
    fails += [f"wrapper target missing: {m}" for m in dump["missing"]]
    return dump


def run_pass(wl, seed, work, root, env, deadline, mode) -> tuple[Pass, list]:
    """One pass of the workload's commands run through ``cli_entry.py`` in
    ``mode``; also returns the span dumps of a traced pass."""
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()
    codes, wall, cpu, rss, setup, fails, dumps = [], 0.0, 0.0, 0.0, 0.0, [], []
    for i, args in enumerate(wl.commands(work)):
        path = work / (f"spans-{i}.json" if mode == "trace" else f"stamp-{i}.txt")
        path.unlink(missing_ok=True)
        m = run_measured(entry_command(mode, path, args), env, root,
                         work / f"stdout-{i}.txt", work / f"stderr-{i}.txt", deadline)
        codes.append(m.code)
        wall += m.wall
        cpu += m.cpu
        rss = max(rss, m.rss_mb)
        if mode == "trace":
            dumps.append(read_spans(path, fails))
            continue
        stamp = read_stamp(path)
        if stamp is None:
            fails.append(f"command {i} ({args[0]}) wrote no set-up stamp")
        else:
            setup += stamp - m.spawn
    if mode == "setup":
        if any(codes):
            fails.append(f"set-up exit codes {codes}, expected 0")
    else:
        try:
            fails += wl.check(seed, work, codes)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            fails.append(f"unreadable output: {exc!r}")
    return Pass(wall, cpu, rss, setup, fails), dumps


def count_outer_iterations(trace_csv: Path) -> int:
    if not trace_csv.is_file():
        return 0
    with open(trace_csv) as fh:
        return sum(1 for line in fh if line.startswith("iter,"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="diracsphere CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "diracsphere" / "cli.py").is_file():
        print(f"no diracsphere sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.prepare(args.seed, work)
    env = child_env(root)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "env": environment()}))

    if args.trace:
        p, dumps = run_pass(wl, args.seed, work, root, env, deadline, "trace")
        outer = count_outer_iterations(work / "out" / "trace.csv")
        metrics = per_layer_metrics([d for d in dumps if d is not None], outer)
        metrics["trace.wall_s"] = {"value": p.wall, "unit": "s"}
        passes, setups = [p], []
    else:
        passes = []
        loop_start = time.perf_counter()
        while True:
            p, _ = run_pass(wl, args.seed, work, root, env, deadline, "stamp")
            passes.append(p)
            now = time.perf_counter()
            if p.fails or now - loop_start >= args.seconds or now + 2 * p.wall > deadline:
                break
        setups = []
        while not any(q.fails for q in passes + setups) \
                and len(passes) + len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(wl, args.seed, work, root, env, deadline, "setup")[0])
        metrics = {
            "wall_s": {"value": statistics.median(q.wall for q in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(q.cpu for q in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(q.setup for q in passes + setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(q.rss_mb for q in passes),
                            "unit": "MB"},
        }
    for i, q in enumerate(passes + setups):
        kind = "pass" if i < len(passes) else "set-up pass"
        for f in q.fails:
            print(f"{kind} {i}: {f}", file=sys.stderr)
    failed = sum(1 for q in passes + setups if q.fails)
    attempted = len(passes) + len(setups)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
