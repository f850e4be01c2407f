#!/usr/bin/env python3
"""Which functions under ``src/repro`` does anything but a unit test reach?

In a temporary directory, under a ``sys.setprofile`` hook that records
every code object entered (a fresh record per phase), this runs three
phases:

1. ``experiments``: each ``REGISTRY`` id through the experiment CLI's
   ``main`` at seed 42 and full duration, with ``--out``; then the CLI's
   ``--list``, one ``--seeds 2`` replica run, and the golden CLI's
   ``--verify short`` (CI's gate; its cells run in worker processes, so
   only the CLI side is recorded);
2. ``benchmarks``: ``pytest benchmarks --benchmark-disable``;
3. ``examples``: each ``examples/*.py``, run as ``__main__``.

It then prints every ``def`` under ``src/repro`` that only the examples
reached, and every one that nothing reached, each as ``file:line``,
qualified name and line count (decorators and docstring included),
followed by the two totals. The first list serves no result the
reproduction reports; the second runs, if at all, only in unit tests.

    python3 tools/reach.py

It takes several minutes (every call pays for the hook) and exits 1 if a
run fails. Standard library only; pytest-benchmark must be installed for
the second phase, as for ``pytest benchmarks`` itself.
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEED = "42"


def functions() -> dict[tuple[str, int, str], tuple[str, int]]:
    """{(file, first line, name): (qualified name, line count)} for every
    ``def`` under ``src/repro``. A decorated function's first line is its
    first decorator's, as in its code object's ``co_firstlineno``."""
    found = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found[(path, first, child.name)] = (qualname, child.end_lineno - first + 1)
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return found


def experiments(log) -> None:
    from repro.experiments import REGISTRY
    from repro.experiments.__main__ import main
    from repro.experiments.golden import main as golden_main

    runs = [[name, "--seed", SEED, "--out", "out"] for name in REGISTRY]
    runs.append(["--list"])
    runs.append(["figure9", "chaos", "--seeds", "2", "--duration", "10000000", "--out", "sweep"])
    for argv in runs:
        _run_main(["python -m repro.experiments", *argv], log, lambda: sys.exit(main(argv)))
    golden = ["--verify", "short"]
    _run_main(["python -m repro.experiments.golden", *golden], log,
              lambda: sys.exit(golden_main(golden)))


def _run_main(argv: list[str], log, run) -> None:
    """Call *run* with ``sys.argv`` set to *argv* and its output in *log*;
    raise unless it returns or exits 0."""
    saved = sys.argv[:], sys.path[:]
    sys.argv = argv
    start = time.perf_counter()
    code = 0
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            run()
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.argv, sys.path[:] = saved
    print(f"  {' '.join(argv)}: exit {code}, {time.perf_counter() - start:.0f} s", file=sys.stderr)
    if code:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def benchmarks(log) -> None:
    argv = ["pytest", str(ROOT / "benchmarks"), "--benchmark-disable", "-q",
            "-p", "no:cacheprovider", "--rootdir", str(ROOT)]
    _run_main(argv, log, lambda: runpy.run_module("pytest", run_name="__main__", alter_sys=True))


def examples(log) -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        _run_main([str(path)], log, lambda: runpy.run_path(str(path), run_name="__main__"))


PHASES = {"experiments": experiments, "benchmarks": benchmarks, "examples": examples}


def trace() -> dict[str, set[tuple[str, int, str]]]:
    """{phase: the (file, first line, name) of every code object entered}."""
    reached = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("run.log", "w", encoding="utf-8") as log:
                for phase, run in PHASES.items():
                    print(f"{phase}:", file=sys.stderr)
                    seen = set()
                    sys.setprofile(_hook(seen.add))
                    try:
                        run(log)
                    finally:
                        sys.setprofile(None)
                    reached[phase] = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}
        finally:
            os.chdir(cwd)
    return reached


def _hook(add):
    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    return hook


def report(found, reached) -> None:
    served = reached["experiments"] | reached["benchmarks"]
    groups = {
        "examples only": [k for k in found if k in reached["examples"] and k not in served],
        "unreached": [k for k in found if k not in reached["examples"] and k not in served],
    }
    for title, keys in groups.items():
        print(f"{title}:")
        for path, line, name in sorted(keys):
            qualname, length = found[(path, line, name)]
            print(f"  {Path(path).relative_to(ROOT)}:{line}  {qualname}  {length}")
    for title, keys in groups.items():
        lines = sum(found[k][1] for k in keys)
        print(f"{title}: {len(keys)} functions, {lines} lines")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    found = functions()
    try:
        reached = trace()
    except RuntimeError as exc:
        print(f"reach: {exc}", file=sys.stderr)
        return 1
    report(found, reached)
    return 0


if __name__ == "__main__":
    sys.exit(main())
