"""Design guards: the public surface, the settable options and the source
size do not grow unnoticed.  Raising a pinned number needs a caller that
sets the new value to something other than its default; the line count of
``src/`` has a ceiling, lowered as code goes."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import diracsphere
from diracsphere.grid import QuadratureGrid

# the modules whose options are counted
MODULES = ("spectral", "energy", "reduction", "geometry", "conformal", "cli", "grid")
SETTABLE_OPTIONS = 19
PUBLIC_NAMES = 32
SRC_LINES_CEILING = 3082


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


def test_src_line_count_ceiling():
    """The package's source lines, every ``.py`` file under ``src/`` counted
    as ``wc -l`` counts it."""
    src = Path(diracsphere.__file__).resolve().parents[1]
    lines = sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py"))
    assert lines <= SRC_LINES_CEILING, lines


def test_quadrature_grid_keeps_no_lazy_cache():
    """The frozen grid holds what ``__post_init__`` sets and nothing more:
    calling each of its public methods adds no attribute, as a lazy cache
    would."""
    grid = QuadratureGrid(12)
    before = set(vars(grid))
    args = {"integrate": (np.ones(grid.n_nodes),)}
    for name in [n for n in vars(QuadratureGrid) if not n.startswith("_")]:
        attr = getattr(grid, name)
        if callable(attr):
            attr(*args.get(name, ()))
    assert set(vars(grid)) == before


def test_no_src_module_imports_scipy():
    """No ``import scipy...`` or ``from scipy... import`` anywhere in a file
    under ``src/``, imports inside functions included."""
    src = Path(diracsphere.__file__).resolve().parents[1]
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.split(".")[0] == "scipy"]
    assert not found, found


def test_no_src_call_sorts():
    """No file under ``src/`` calls a ``.sort()`` or ``.argsort()`` method or
    numpy's sorting and selection functions (the process below refuses the
    functions; an array's methods cannot be refused at run time)."""
    src = Path(diracsphere.__file__).resolve().parents[1]
    sorting = {"sort", "argsort", "partition", "argpartition", "lexsort", "unique",
               "median", "percentile", "quantile"}
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and (
                    func.attr in ("sort", "argsort") or func.attr in sorting
                    and isinstance(func.value, ast.Name) and func.value.id == "np"):
                found.append(f"{path.name}:{node.lineno} {func.attr}")
    assert not found, found


def test_process_that_refuses_scipy_runs_every_command(tmp_path):
    """A fresh process whose import system refuses scipy, whose LAPACK entry
    points raise (``numpy.linalg``'s, and the names ``np.polyfit`` and its
    module bound at import), and whose numpy ``sort``, ``argsort``,
    ``unique``, ``partition`` and ``median`` raise, runs the criterion-9
    J=8 solve and ``diagnose`` of its state through the CLI, a Nehari
    projection of a random direction scaled by 1e3, the nodal analysis of a
    state with exact zeros at both poles (which polishes both and fits
    their vanishing orders), ``immerse`` of the solved state, ``spectrum``
    and ``bubble``; every command exits 0, so no command calls LAPACK (the
    hypothesis check's 2x2 algebra and the vanishing-order fit are in closed
    form) or a numpy sort (the icosphere, its edges and the nodal median
    are sort-free).  The process holds no scipy module and, after all of
    them, no ``numpy.ma``, which ``np.median`` and ``np.unique`` import on
    first use, and no ``numpy.polynomial``: every grid, the flat bubble
    energy's included, builds its Gauss-Legendre rule from its own
    recurrence."""
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
    probe = ("import contextlib, io, sys\n"
             "class RefuseScipy:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name.split('.')[0] == 'scipy':\n"
             "            raise ImportError('scipy is refused')\n"
             "sys.meta_path.insert(0, RefuseScipy())\n"
             "import numpy as np\n"
             "import numpy.lib._polynomial_impl as polynomial_impl\n"
             "def refuse(name, why):\n"
             "    def call(*args, **kwargs):\n"
             "        raise RuntimeError(f'{name} {why}')\n"
             "    return call\n"
             "for module in (np.linalg, polynomial_impl):\n"
             "    for name in ('solve', 'eigvalsh', 'eigh', 'eig', 'eigvals', 'inv', 'lstsq',\n"
             "                 'svd', 'det', 'slogdet', 'qr', 'cholesky', 'pinv'):\n"
             "        if hasattr(module, name):\n"
             "            setattr(module, name, refuse(name, 'calls LAPACK'))\n"
             "for name in ('sort', 'argsort', 'unique', 'partition', 'median'):\n"
             "    setattr(np, name, refuse(name, 'runs a sort kernel'))\n"
             "import diracsphere.cli as cli\n"
             "from diracsphere.geometry import nodal_analysis\n"
             "from diracsphere.reduction import nehari_project\n"
             "from diracsphere.spectral import SpectralSpinor\n"
             "def loaded(top):\n"
             "    return sorted(m for m in sys.modules if m.split('.')[:len(top)] == top)\n"
             "cfg, out = sys.argv[1], sys.argv[2]\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [cli.main(['solve', cfg, '--output', out]),\n"
             "             cli.main(['diagnose', out + '/state.txt', '--config', cfg])]\n"
             "ws = cli.build_workspace(cli.load_config(cfg))\n"
             "rng = np.random.default_rng(112)\n"
             "u = rng.normal(size=ws.basis.n_basis) + 1j * rng.normal(size=ws.basis.n_basis)\n"
             "nehari_project(1e3 * np.where(ws.basis.plus_mask, u, 0), 3.0, ws)\n"
             "i = next(n for n, ix in enumerate(ws.basis.indices)\n"
             "         if ix.j == 1 and ix.sigma == 1 and ix.k == 1)\n"
             "zeros = SpectralSpinor(ws.basis, np.where(np.arange(ws.basis.n_basis) == i, 2.0, 0j))\n"
             "polished = sum(c.value < 1e-18 for c in nodal_analysis(zeros, ws).candidates)\n"
             "codes.append(cli.main(['immerse', out + '/state.txt', '--config', cfg,\n"
             "                       '--out', out + '/mesh.ply', '--subdivisions', '2']))\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes += [cli.main(['spectrum', '--j-max', '3']),\n"
             "              cli.main(['bubble', '--J', '8'])]\n"
             "print(codes, polished, loaded(['numpy', 'ma']), loaded(['scipy']),\n"
             "      loaded(['numpy', 'polynomial']))")
    run = subprocess.run([sys.executable, "-c", probe, str(cfg), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "[0, 0, 0, 0, 0] 2 [] [] []"


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
