"""Every name a ``repro`` module exports in ``__all__`` resolves, and
every name a module or test module imports is used.

Deleting a class or function while leaving its ``__all__`` string behind
breaks ``from module import *`` only; a direct import of the other names
still works, so no other test notices the stale entry. Deleting the last
use of an imported name leaves the import behind, which nothing notices
either.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro


def test_every_all_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        # a package's __main__ runs its CLI on import
        if not info.name.endswith(".__main__")
    ]
    assert {"repro.sim", "repro.core.engine", "repro.dvcm.runtime"} <= set(names)
    stale = {}
    for name in names:
        module = importlib.import_module(name)
        missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
        if missing:
            stale[name] = missing
    assert not stale, f"__all__ names undefined attributes: {stale}"


def unused_imports(path: Path) -> list[str]:
    """Names *path* imports (at any depth) that it never uses. A name is
    used if it appears as a name, as an attribute, or as a word inside any
    string (an ``__all__`` entry or a quoted annotation)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    used: set[str] = set()
    strings: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
    text = "\n".join(strings)
    return [
        f"{name} (line {lineno})"
        for name, lineno in imported.items()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", text)
    ]


def test_every_imported_name_is_used():
    # a package's __init__ imports names to re-export them
    roots = (Path(repro.__path__[0]), Path(__file__).parent)  # src/repro, tests
    modules = []
    for root in roots:
        found = [p for p in root.rglob("*.py") if p.name != "__init__.py"]
        assert len(found) > 50, root
        modules += found
    unused = {}
    for path in modules:
        names = unused_imports(path)
        if names:
            unused[str(path)] = names
    assert not unused, f"imported names never used: {unused}"
