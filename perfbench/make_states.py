"""Regenerate the stored ``immerse-j16`` inputs under ``perfbench/states/``.

Runs the ``solve-j16`` workload once per rotation of the pool, checks its
outputs, and copies each ``state.txt`` to ``states/solve-j16-r<k>.txt``.
The stored files are inputs: regenerate them only in a change that
redefines the benchmark, never in one that claims a gain.

    python3 perfbench/make_states.py

Run from the repository root.  It runs one solve per CPU at a time; each
takes about a minute at one BLAS thread.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import child_env, cli_command
from workloads import POOL, STATES, WORKLOADS, state_path


def main() -> int:
    jobs = os.cpu_count() or 1
    root = Path.cwd()
    env = child_env(root)
    wl = WORKLOADS["solve-j16"]
    work_root = root / ".perfbench_out" / "make-states"
    shutil.rmtree(work_root, ignore_errors=True)
    STATES.mkdir(exist_ok=True)
    pending = list(range(POOL))
    running = []
    failed = 0
    while pending or running:
        while pending and len(running) < jobs:
            k = pending.pop(0)
            work = work_root / f"r{k}"
            work.mkdir(parents=True)
            wl.prepare(k, work)
            (cmd,) = wl.commands(work)
            with open(work / "stderr-0.txt", "w") as err:
                proc = subprocess.Popen(cli_command(cmd), env=env, cwd=root,
                                        stdout=subprocess.DEVNULL, stderr=err)
            running.append((k, work, proc))
        k, work, proc = running.pop(0)
        code = proc.wait()
        fails = wl.check(k, work, [code])
        if fails:
            failed += 1
            print(f"rotation {k}: FAILED {'; '.join(fails)}", file=sys.stderr)
            continue
        shutil.copyfile(work / "out" / "state.txt", state_path(k))
        print(f"rotation {k}: stored {state_path(k).name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
