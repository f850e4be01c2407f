"""Every name a ``repro`` module exports in ``__all__`` resolves.

Deleting a class or function while leaving its ``__all__`` string behind
breaks ``from module import *`` only; a direct import of the other names
still works, so no other test notices the stale entry.
"""

import importlib
import pkgutil

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
