"""Run one ``diracsphere`` CLI command with the benchmark's wrappers.

    python3 perfbench/cli_entry.py MODE PATH solve config.json --output out

Behaves like ``python3 -m diracsphere.cli`` with the same arguments and exit
code.  MODE is one of:

* ``stamp``: at the first entry to a function in ``SETUP_END`` (the solver,
  or the first evaluation of a loaded state) write ``time.monotonic()`` to
  PATH; the command then runs on.  Everything before that entry is the
  command's set-up: imports, config load, ``build_workspace`` and, for a
  solve, the hypothesis check and the initial bubble.
* ``setup``: the same, but the process exits with code 0 right after
  writing PATH, so only the set-up runs.
* ``trace``: install the outside-in tracer (``tracer.py``) and write the
  recorded spans to PATH when the command ends.

``time.monotonic()`` reads the system-wide monotonic clock on Linux, so the
stamp compares with the parent's reading taken before it started this process.
"""

import functools
import os
import sys
import time

from tracer import Tracer, package_modules, patch

SETUP_END = [("reduction", "solve_continuation"), ("geometry", "nodal_analysis")]


def install_stamp(path: str, then_exit: bool) -> None:
    stamped = []

    def make_wrapper(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stamped:
                stamped.append(time.monotonic())
                with open(path, "w") as fh:
                    fh.write(repr(stamped[0]))
                if then_exit:
                    os._exit(0)
            return fn(*args, **kwargs)

        return wrapper

    modules = package_modules()
    for mod_name, attr in SETUP_END:
        if not patch(modules, mod_name, attr, make_wrapper):
            raise SystemExit(f"set-up end diracsphere.{mod_name}.{attr} not found")


def main() -> int:
    mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("stamp", "setup", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    else:
        install_stamp(path, then_exit=mode == "setup")
    from diracsphere import cli

    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
