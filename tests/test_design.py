"""Design guards: the public surface and the settable options do not grow
unnoticed.  Raising a pinned number needs a caller that sets the new value
to something other than its default."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import diracsphere

# the modules whose options are counted
MODULES = ("spectral", "energy", "reduction", "geometry", "conformal", "cli", "grid")
SETTABLE_OPTIONS = 37
PUBLIC_NAMES = 34


def _defaults(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def settable_options() -> list[str]:
    """Every parameter with a default of the modules' functions and of their
    classes' own methods, plus every dataclass field with a default or a
    default factory.  A method counts only when its code is in the module's
    file, so a dataclass's generated ``__init__`` is not counted again."""
    found = []
    for name in MODULES:
        mod = importlib.import_module(f"diracsphere.{name}")
        path = inspect.getfile(mod)
        for key, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found += [f"{name}.{key}({p})" for p in _defaults(obj)]
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)
                    if inspect.isfunction(fn) and fn.__code__.co_filename == path:
                        found += [f"{name}.{key}.{meth}({p})" for p in _defaults(fn)]
                if dataclasses.is_dataclass(obj):
                    found += [f"{name}.{key}.{f.name}" for f in dataclasses.fields(obj)
                              if f.default is not dataclasses.MISSING
                              or f.default_factory is not dataclasses.MISSING]
    return found


def test_settable_options_pinned():
    options = settable_options()
    assert len(options) == SETTABLE_OPTIONS, options


def test_public_names_pinned():
    assert len(diracsphere.__all__) == PUBLIC_NAMES


def test_solve_process_loads_no_scipy(tmp_path):
    """A fresh process that runs the criterion-9 J=8 solve through the CLI
    exits 0 and holds no scipy module: the transforms and the Newton-MINRES
    solve are numpy only, and scipy's two users (the Nehari bracketing
    fallback and the nodal zero polish) import it when first called.  Nor
    does it hold ``numpy.ma``, which ``np.median`` imports on first use."""
    src = str(Path(diracsphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "J": 8,
        "Q": {"family": "polynomial", "terms": [[0, 0, 0, 1.0], [0, 0, 2, 0.3]]},
        "schedule": [3.0, 3.5, 4.0],
        "init": {"type": "bubble", "rho": 0.35, "center": [0.0, 0.0, 1.0]},
        "tolerances": {"final": 1e-6}, "seed": 7}))
    probe = ("import sys, diracsphere.cli\n"
             "code = diracsphere.cli.main(['solve', sys.argv[1], '--output', sys.argv[2]])\n"
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
             "                   or m.split('.')[:2] == ['numpy', 'ma']))")
    run = subprocess.run([sys.executable, "-c", probe, str(cfg), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "0 []"


def _listed_targets(path: Path, name: str) -> list[tuple[str, str]]:
    """The (module, attribute) pairs of the module-level list ``name`` in the
    file at ``path``, read from its syntax tree (the file is not run)."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError(f"{name} not found in {path}")


def test_benchmark_wrapper_targets_resolve():
    """Every function the benchmark's tracer wraps and every set-up end its
    entry point stamps exists in the package, as the tracer looks it up:
    a function in its module, a method in its class's own namespace."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    targets = (_listed_targets(bench / "tracer.py", "TARGETS")
               + _listed_targets(bench / "cli_entry.py", "SETUP_END"))
    assert len(targets) > 20
    missing = []
    for mod_name, attr in targets:
        owner = importlib.import_module(f"diracsphere.{mod_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(leaf) is None:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
