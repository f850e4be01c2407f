"""Every backticked ``repro`` name and repository path in the docs
resolves to code.

A name counts when a whole backtick span is a dotted identifier (a
trailing ``()`` allowed) whose first part is ``repro`` or one of its
subpackages, such as ``repro.hw.pci.PCISegment`` or ``core.dwcs``. The
test imports the longest importable prefix, with ``repro.`` put in front
where it is missing, and resolves the rest with ``getattr``. A DVCM
instruction is a call string, not a Python name, so the docs quote it
inside the backticks (``"ha.restore_stream"``), which the scan skips.

A path counts when a whole backtick span is a relative file path with at
least one directory and an extension, a ``::Name`` suffix allowed, such
as ``examples/quickstart.py`` or
``benchmarks/test_tables_bench.py::test_table1_microbench_cache_disabled``.
The file must exist under the repository root, and each ``::`` part must
name a ``def`` or ``class`` in it. Paths under ``out/`` are run
artifacts, absent from a clean checkout, and are skipped. README's
examples list names every ``examples/*.py`` and nothing else.
"""

import ast
import importlib
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
PACKAGES = {"repro"} | {
    p.name for p in Path(repro.__path__[0]).iterdir() if (p / "__init__.py").exists()
}
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
PATH = re.compile(r"`((?:[\w.-]+/)+[\w.-]+\.\w+)((?:::\w+)*)`")


def doc_names() -> dict[str, str]:
    """{dotted name: the first ``file:line`` that names it}."""
    names: dict[str, str] = {}
    for doc in DOCS:
        for lineno, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            for match in NAME.finditer(line):
                name = match.group(1)
                if name.split(".")[0] in PACKAGES:
                    names.setdefault(name, f"{doc.name}:{lineno}")
    return names


def resolves(name: str) -> bool:
    parts = name.split(".")
    if parts[0] != "repro":
        parts.insert(0, "repro")
    for k in range(len(parts), 0, -1):
        module_name = ".".join(parts[:k])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            # skip only a module the name itself spells, not a broken import
            if not f"{module_name}.".startswith(f"{exc.name}."):
                raise
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_backticked_repro_name_in_the_docs_resolves():
    names = doc_names()
    # the scan finds the docs' names at all
    assert {"core.dwcs", "repro.hw.nic.I960RDCard", "repro.sim.Tracer"} <= set(names)
    unresolved = {name: where for name, where in names.items() if not resolves(name)}
    assert not unresolved, f"doc names that resolve to nothing: {unresolved}"


def doc_paths(docs: list[Path] = DOCS) -> dict[str, str]:
    """{path, with any ``::Name`` suffix: the first ``file:line`` naming it}."""
    paths: dict[str, str] = {}
    for doc in docs:
        for lineno, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            for match in PATH.finditer(line):
                if not match.group(1).startswith("out/"):
                    paths.setdefault(match.group(0).strip("`"), f"{doc.name}:{lineno}")
    return paths


def path_exists(spec: str) -> bool:
    path, *names = spec.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    if not names:
        return True
    defined = {
        node.name
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return set(names) <= defined


def test_every_backticked_repo_path_in_the_docs_exists():
    paths = doc_paths()
    # the scan finds the docs' paths at all, suffixed ones too
    assert {
        "examples/quickstart.py",
        "benchmarks/test_tables_bench.py::test_table1_microbench_cache_disabled",
    } <= set(paths)
    missing = {spec: where for spec, where in paths.items() if not path_exists(spec)}
    assert not missing, f"doc paths that name nothing: {missing}"


def test_readme_lists_every_example():
    listed = {p for p in doc_paths([ROOT / "README.md"]) if p.startswith("examples/")}
    present = {f"examples/{f.name}" for f in (ROOT / "examples").glob("*.py")}
    assert listed == present
