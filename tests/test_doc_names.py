"""Every backticked ``repro`` name in the docs resolves to code.

A name counts when a whole backtick span is a dotted identifier (a
trailing ``()`` allowed) whose first part is ``repro`` or one of its
subpackages, such as ``repro.hw.pci.PCISegment`` or ``core.dwcs``. The
test imports the longest importable prefix, with ``repro.`` put in front
where it is missing, and resolves the rest with ``getattr``. A DVCM
instruction is a call string, not a Python name, so the docs quote it
inside the backticks (``"ha.restore_stream"``), which the scan skips.
"""

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
