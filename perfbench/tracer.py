"""Outside-in tracer: spans around the public functions of each module.

Nothing inside the package changes.  ``Tracer.install`` replaces each target
with a wrapper that records a span ``[name, start, end, parent, size]``.  A
function is patched in every ``diracsphere`` module namespace that holds it,
because ``cli``, ``reduction`` and the package ``__init__`` import functions
by name and look them up there; a method is patched once on its class.
Spans stay in memory and are written out when the process ends.

A span's self time is its duration minus the durations of its direct
children; spans of one thread nest strictly, so the children never overlap.

``clifford`` has no target: no runtime module calls it, and the benchmark
reports no metric for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _points(args, kwargs):
    z = kwargs.get("z", args[2] if len(args) > 2 else None)
    return int(getattr(z, "size", 1))


def _tables_built(args, kwargs):
    """Tables added to the basis' matrix cache by the call, read after it."""
    cache = args[0]._matrix_cache
    before = len(cache)
    return lambda: len(cache) - before


# (module, attribute, span name, size of a call); "Class.method" patches the
# class.  Several targets may share a span name.  A size hook runs before the
# call; if it returns a callable, that is called after the call instead.
TARGETS = [
    ("cli", "build_workspace", "cli.build_workspace", None),
    ("cli", "_write_report", "cli.io", None),
    ("spectral", "save_spinor", "cli.io", None),
    ("spectral", "load_spinor", "cli.io", None),
    ("reduction", "SolverTrace.to_csv", "cli.io", None),
    ("spectral", "SphereBasis.synthesize", "spectral.synthesize", None),
    ("spectral", "SphereBasis.analyze", "spectral.analyze", None),
    ("spectral", "SphereBasis.evaluate", "spectral.evaluate", _points),
    ("spectral", "SphereBasis.synthesis_matrix", "spectral.synthesis_matrix",
     _tables_built),
    ("chartexpr", "ChartExpr.__call__", "chartexpr.call", None),
    ("grid", "QuadratureGrid.__post_init__", "grid.build", None),
    ("energy", "hessian_apply", "energy.hessian_apply", None),
    ("energy", "check_q_hypothesis", "energy.check_q_hypothesis", None),
    ("reduction", "solve_continuation", "reduction.solve_continuation", None),
    ("reduction", "nehari_project", "reduction.nehari_project", None),
    ("reduction", "reduce_minus", "reduction.reduce_minus", None),
    ("reduction", "concentration_profile", "reduction.monitor", None),
    ("reduction", "barycenter", "reduction.monitor", None),
    ("conformal", "bubble_to_sphere", "conformal.bubble_to_sphere", None),
    ("geometry", "nodal_analysis", "geometry.nodal_analysis", None),
    ("geometry", "scal_identity_check", "geometry.scal_identity_check", None),
    ("geometry", "reconstruct_immersion", "geometry.reconstruct_immersion", None),
    ("geometry", "export_obj", "geometry.export", None),
    ("geometry", "export_ply", "geometry.export", None),
]


def package_modules() -> list:
    """The loaded ``diracsphere`` modules, after importing the CLI."""
    importlib.import_module("diracsphere.cli")
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "diracsphere" or k.startswith("diracsphere."))]


def patch(modules, mod_name: str, attr: str, make_wrapper) -> bool:
    """Replace ``diracsphere.<mod_name>.<attr>`` by ``make_wrapper(fn)``:
    a method on its class, a function in every module namespace that holds
    it.  Returns False if the target does not exist."""
    mod = sys.modules.get(f"diracsphere.{mod_name}")
    owner_name, _, meth = attr.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    fn = owner and vars(owner).get(meth)
    if fn is None:
        return False
    wrapper = make_wrapper(fn)
    if owner_name:
        setattr(owner, meth, wrapper)
        return True
    for m in modules:
        for key, val in list(vars(m).items()):
            if val is fn:
                setattr(m, key, wrapper)
    return True


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = size(args, kwargs) if size else 0
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, n]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if callable(n):
                    rec[4] = n()

        return traced

    def install(self) -> None:
        """Import the package and wrap every target that exists."""
        modules = package_modules()
        for mod_name, attr, name, size in TARGETS:
            if not patch(modules, mod_name, attr,
                         lambda fn: self._wrap(fn, name, size)):
                self.missing.append(f"{mod_name}.{attr}")

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing},
                      fh, separators=(",", ":"))


# span names whose nesting the per-layer ratios need
_NEHARI = "reduction.nehari_project"
_REDUCE = "reduction.reduce_minus"
_SOLVE = "reduction.solve_continuation"


def summarize(dumps) -> dict:
    """Per span name: calls, total and self seconds, summed size, calls
    nested under a Nehari projection, a reduction or the continuation solve,
    and the time of table builds (synthesis_matrix calls that added a table
    to the cache)."""
    agg = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "size": 0,
                               "in_nehari": 0, "in_reduce": 0, "in_solve": 0})
    table_build = 0.0
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        under = [frozenset()] * len(spans)
        for i, (name, t0, t1, parent, size) in enumerate(spans):
            if parent >= 0:
                under[i] = under[parent] | {spans[parent][0]}
            a = agg[name]
            a["calls"] += 1
            a["total"] += t1 - t0
            a["self"] += t1 - t0 - child[i]
            a["size"] += size
            a["in_nehari"] += _NEHARI in under[i]
            a["in_reduce"] += _REDUCE in under[i]
            a["in_solve"] += _SOLVE in under[i]
            if name == "spectral.synthesis_matrix" and size > 0:
                table_build += t1 - t0
    out = {k: dict(v) for k, v in agg.items()}
    out["table_build_s"] = table_build
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(dumps, outer_iterations: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from the span dumps of a pass."""
    s = summarize(dumps)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "size": 0,
             "in_nehari": 0, "in_reduce": 0, "in_solve": 0}

    def g(name):
        return s.get(name, empty)

    nehari, reduce_, hess = g(_NEHARI), g(_REDUCE), g("energy.hessian_apply")
    values = {
        "spectral.synthesize.calls": (g("spectral.synthesize")["calls"], "count"),
        "spectral.synthesize.self_s": (g("spectral.synthesize")["self"], "s"),
        "spectral.analyze.calls": (g("spectral.analyze")["calls"], "count"),
        "spectral.analyze.self_s": (g("spectral.analyze")["self"], "s"),
        "spectral.evaluate.points": (g("spectral.evaluate")["size"], "count"),
        "spectral.evaluate.self_s": (g("spectral.evaluate")["self"], "s"),
        "spectral.table_build_s": (s["table_build_s"], "s"),
        "energy.hessian_apply.calls": (hess["calls"], "count"),
        "energy.hessian_apply.self_s": (hess["self"], "s"),
        "energy.check_q_hypothesis_s": (g("energy.check_q_hypothesis")["total"], "s"),
        "reduction.nehari_project.calls": (nehari["calls"], "count"),
        "reduction.reduce_minus.calls": (reduce_["calls"], "count"),
        "reduction.reductions_per_projection":
            (_ratio(reduce_["in_nehari"], nehari["calls"]), "ratio"),
        "reduction.hessian_per_reduction":
            (_ratio(hess["in_reduce"], reduce_["calls"]), "ratio"),
        "reduction.outer_iterations": (outer_iterations, "count"),
        "reduction.projections_per_outer_iteration":
            (_ratio(nehari["calls"], outer_iterations), "ratio"),
        "reduction.monitor_s": (g("reduction.monitor")["total"], "s"),
        "conformal.bubble_to_sphere.calls": (g("conformal.bubble_to_sphere")["calls"], "count"),
        "conformal.bubble_to_sphere_s": (g("conformal.bubble_to_sphere")["total"], "s"),
        "geometry.nodal_analysis_s": (g("geometry.nodal_analysis")["total"], "s"),
        "geometry.scal_identity_check_s": (g("geometry.scal_identity_check")["total"], "s"),
        "geometry.reconstruct_immersion_s":
            (g("geometry.reconstruct_immersion")["total"], "s"),
        "geometry.export_s": (g("geometry.export")["total"], "s"),
        "chartexpr.call.calls": (g("chartexpr.call")["calls"], "count"),
        "chartexpr.call.self_s": (g("chartexpr.call")["self"], "s"),
        "grid.build_s": (g("grid.build")["total"], "s"),
        "cli.build_workspace_s": (g("cli.build_workspace")["total"], "s"),
        "cli.io_s": (g("cli.io")["total"] + g("geometry.export")["total"], "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def solve_counts(dumps) -> dict:
    """Calls made inside ``solve_continuation``, by layer."""
    s = summarize(dumps)
    names = {"nehari_project": _NEHARI, "reduce_minus": _REDUCE,
             "hessian_apply": "energy.hessian_apply",
             "synthesize": "spectral.synthesize", "analyze": "spectral.analyze"}
    return {k: s[v]["in_solve"] if v in s else 0 for k, v in names.items()}
