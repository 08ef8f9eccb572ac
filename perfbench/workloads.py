"""Seeded inputs and output checks of the three benchmark workloads.

For ``solve-j16`` and ``immerse-j16`` a seed picks one of ``POOL`` rigid
rotations R (seed 0 and every multiple of ``POOL`` give the identity, i.e.
the reference configuration).  The curvature becomes Q o R, written out as a
``polynomial`` spec, and the initial bubble's ``center: "argmax"`` follows
it; the rotation keeps the J=16 work exactly (same iteration counts, same
L_value to 1e-14) while blocking tuning to the axisymmetric case.  The pool
is finite so that the ``immerse-j16`` input, the ``solve-j16`` state of the
same rotation, can be stored under ``states/`` once (see ``make_states.py``):
the parent and the change of a comparison then read identical bytes.

``blowup-j10`` is not rotated.  Its concentration falls below the grid
scale, so a rotation changes the work (50 to 53 outer iterations, up to 20%
more CPU time, measured on rotations 1 to 5; every rotated case passes the
checks); rotating it would make the spread across seeds a property of the
inputs rather than of the program.

Each workload is a list of ``diracsphere`` CLI invocations plus a check of
their exit codes and output files.  The checks return a list of failure
messages; an empty list means the pass is correct.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

POOL = 8
STATES = Path(__file__).resolve().parent / "states"

# seed-0 value of the ROADMAP reference solve; rotations leave it unchanged
REF_L_VALUE = 2.8455319296803
SUBDIVISIONS = 4
ICOSPHERE_VERTICES = 10 * 4 ** SUBDIVISIONS + 2


def rotation(seed: int) -> list[list[float]]:
    """Rotation matrix of a seed: identity for index 0, else a uniformly
    random rotation from a unit quaternion drawn with the stdlib generator."""
    index = seed % POOL
    if index == 0:
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    rng = random.Random(index)
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / n for c in q)
    return [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]


def _rotated_x3(seed: int) -> list[float]:
    """Coefficients r of (R x)_3 = r . x."""
    return rotation(seed)[2]


def _square_terms(r, scale):
    """Monomial terms of scale * (r . x)^2."""
    terms = []
    for i in range(3):
        for j in range(i, 3):
            c = scale * r[i] * r[j] * (1.0 if i == j else 2.0)
            if c != 0.0:
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                terms.append(e + [c])
    return terms


def solve_j16_config(seed: int) -> dict:
    """The ROADMAP reference solve Q = 1 + 0.3 (R x)_3^2 at J=16."""
    terms = [[0, 0, 0, 1.0]] + _square_terms(_rotated_x3(seed), 0.3)
    return {"schema_version": 1, "J": 16, "grid_degree": 48,
            "Q": {"family": "polynomial", "terms": terms},
            "init": {"type": "bubble", "rho": 0.3, "center": "argmax"},
            "tolerances": {"final": 1e-7}, "seed": seed % POOL}


def blowup_j10_config(seed: int) -> dict:
    """The obstruction family Q = 1 + 0.8 x_3, which must blow up; the same
    input for every seed.

    ``blowup_spacing_factor`` is set to the library's 5.0: with the CLI's
    default of 3.0 this case exits 0 with status "ok".
    """
    return {"schema_version": 1, "J": 10, "grid_degree": 30,
            "Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 1, 0.8]]},
            "schedule": [3.0, 3.5, 3.8, 3.95, 4.0], "max_outer": 100,
            "init": {"type": "bubble", "rho": 0.35, "center": "argmax"},
            "tolerances": {"final": 1e-6, "blowup_spacing_factor": 5.0},
            "seed": 0}


def state_path(seed: int) -> Path:
    return STATES / f"solve-j16-r{seed % POOL}.txt"


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _angle(a, b) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    return math.acos(max(-1.0, min(1.0, dot / (na * nb))))


class Workload:
    """One workload: its inputs for a seed, its CLI commands and its checks."""

    name = ""

    def prepare(self, seed: int, work: Path) -> None:
        """Write the inputs of ``seed`` into ``work``."""
        raise NotImplementedError

    def commands(self, work: Path) -> list[list[str]]:
        """CLI argument lists run in order for one pass."""
        raise NotImplementedError

    def check(self, seed: int, work: Path, codes: list[int]) -> list[str]:
        raise NotImplementedError


class _Solve(Workload):
    make_config = staticmethod(solve_j16_config)

    def prepare(self, seed, work):
        with open(work / "config.json", "w") as fh:
            json.dump(self.make_config(seed), fh, indent=1)

    def commands(self, work):
        return [["solve", str(work / "config.json"), "--output", str(work / "out")]]


class SolveJ16(_Solve):
    name = "solve-j16"

    def check(self, seed, work, codes):
        fails = []
        if codes != [0]:
            return [f"solve exit codes {codes}, expected [0]"]
        rep = _load_json(work / "out" / "report.json")
        if rep.get("status") != "ok":
            fails.append(f"status {rep.get('status')!r}")
        if not rep["final_residual"] <= 1e-7:
            fails.append(f"final_residual {rep['final_residual']:.3e} > 1e-7")
        lval = rep["energy"]["L_value"]
        if not abs(lval - REF_L_VALUE) <= 1e-9 * REF_L_VALUE:
            fails.append(f"L_value {lval!r} off the reference {REF_L_VALUE!r}")
        if rep["nodal"]["verdict"] != "zero-free":
            fails.append(f"nodal verdict {rep['nodal']['verdict']!r}")
        if not rep["willmore"]["value"] < 8.0 * math.pi:
            fails.append(f"Willmore {rep['willmore']['value']!r} >= 8 pi")
        for name in ("trace.csv", "state.txt"):
            if not (work / "out" / name).is_file():
                fails.append(f"missing {name}")
        return fails


class BlowupJ10(_Solve):
    name = "blowup-j10"
    make_config = staticmethod(blowup_j10_config)

    def check(self, seed, work, codes):
        if codes != [3]:
            return [f"solve exit codes {codes}, expected [3]"]
        rep = _load_json(work / "out" / "report.json")
        fails = []
        if rep.get("status") != "blow-up":
            fails.append(f"status {rep.get('status')!r}")
        b = rep["blowup"]
        dist = _angle(b["point"], [0.0, 0.0, 1.0])
        if not dist <= 0.1:
            fails.append(f"blow-up point {dist:.3f} rad from argmax Q, the north pole")
        if not 0.0 < b["rho_hat"] < 1.0:
            fails.append(f"rho_hat {b['rho_hat']!r} outside (0, 1)")
        if not b["profile_distance"] < 0.5:
            fails.append(f"profile_distance {b['profile_distance']!r} >= 0.5")
        if not (work / "out" / "trace.csv").is_file():
            fails.append("missing trace.csv")
        return fails


class ImmerseJ16(Workload):
    name = "immerse-j16"

    def prepare(self, seed, work):
        with open(work / "config.json", "w") as fh:
            json.dump(solve_j16_config(seed), fh, indent=1)
        shutil.copyfile(state_path(seed), work / "state.txt")

    def commands(self, work):
        state, cfg = str(work / "state.txt"), str(work / "config.json")
        return [["diagnose", state, "--config", cfg],
                ["immerse", state, "--config", cfg, "--out",
                 str(work / "out" / "mesh.ply"), "--subdivisions", str(SUBDIVISIONS)]]

    def check(self, seed, work, codes):
        if codes != [0, 0]:
            return [f"diagnose/immerse exit codes {codes}, expected [0, 0]"]
        fails = []
        diag = _load_json(work / "stdout-0.txt")
        if diag["nodal"]["verdict"] != "zero-free":
            fails.append(f"diagnose nodal verdict {diag['nodal']['verdict']!r}")
        if not (work / "out" / "mesh.ply").is_file():
            fails.append("missing mesh.ply")
        s = _load_json(work / "out" / "mesh.ply.json")
        if s["vertices"] != ICOSPHERE_VERTICES:
            fails.append(f"{s['vertices']} vertices, expected {ICOSPHERE_VERTICES}")
        if s["euler_characteristic"] != 2:
            fails.append(f"Euler characteristic {s['euler_characteristic']}")
        if not s["closure_defect"] <= 1e-6:
            fails.append(f"closure_defect {s['closure_defect']:.3e} > 1e-6")
        if not s["mean_curvature_rel_l2"] <= 0.05:
            fails.append(f"mean_curvature_rel_l2 {s['mean_curvature_rel_l2']:.4f} > 0.05")
        return fails


WORKLOADS = {w.name: w for w in (SolveJ16(), BlowupJ10(), ImmerseJ16())}
