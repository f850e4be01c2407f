"""Golden digests: compact fingerprints of experiment outputs.

The perf work on the simulation kernel claims to be *bit-identical*: a
faster event loop, hook table, or memoized cost conversion must not move a
single scheduling decision or delivered byte. The proof is a digest — a
SHA-256 over a canonical serialization of everything an experiment
reports (rows, series arrays, notes) — checked into the repository
(``golden_digests.json`` next to this module) and recomputed by the
regression tests and by :func:`verify`.

Two digest sets are kept:

* ``full`` — every id in ``GOLDEN_IDS`` at the paper's full
  100-simulated-second duration, seed 42. Verified by
  ``python -m repro.experiments.golden --verify full``.
* ``short`` — every id in ``SHORT_IDS`` at a 10-simulated-second
  duration, seed 42. Cheap enough for the tier-1 test suite
  (``tests/experiments/test_golden_digests.py``).

Both sets are computed through :func:`run_cells`, the one fan-out that
runs registry cells across worker processes (``python -m
repro.experiments`` uses it too).

Refreshing after an *intentional* behaviour change::

    PYTHONPATH=src python -m repro.experiments.golden --refresh short
    PYTHONPATH=src python -m repro.experiments.golden --refresh full
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .report import ExperimentResult

__all__ = [
    "GOLDEN_IDS",
    "SHORT_IDS",
    "SHORT_DURATION_US",
    "GOLDEN_SEED",
    "result_digest",
    "compute_result",
    "run_cells",
    "usable_cores",
    "load_goldens",
    "save_goldens",
    "verify",
]

#: every experiment pinned byte-for-byte at full duration
GOLDEN_IDS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "headline",
    "ext_stream_scaling",
    "ext_jitter",
    "ext_admission",
    "ext_ni_balance",
    "chaos",
    "cluster",
    "failover",
    "observe",
    "sens_costs",
    "sens_knockouts",
    "transport",
)

#: the scaled-down set the tier-1 suite recomputes on every run
SHORT_IDS = (
    "figure9",
    "ext_jitter",
    "chaos",
    "failover",
    "cluster",
    "observe",
    "sens_costs",
    "sens_knockouts",
    "transport",
)

#: 10 simulated seconds: long enough for streams to settle and every
#: chaos/failover fault window to open and clear, short enough for CI
SHORT_DURATION_US = 10_000_000.0

#: the one seed both sets are pinned and verified at
GOLDEN_SEED = 42

_GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def result_digest(result: "ExperimentResult") -> str:
    """SHA-256 over a canonical serialization of *result*.

    Floats go through ``repr`` (exact round-trip), series arrays as raw
    float64 bytes — any single-bit drift in a computed value changes the
    digest.
    """
    h = hashlib.sha256()

    def feed(text: str) -> None:
        h.update(text.encode("utf-8"))
        h.update(b"\x00")

    feed(result.exp_id)
    feed(result.title)
    for r in result.rows:
        feed(r.label)
        feed(repr(r.measured))
        feed(r.unit)
        feed(repr(r.paper))
        feed(r.note)
    for s in result.series:
        feed(s.name)
        feed(s.x_label)
        feed(s.y_label)
        h.update(s.x.astype(float).tobytes())
        h.update(s.y.astype(float).tobytes())
    for note in result.notes:
        feed(note)
    return h.hexdigest()


def compute_result(
    name: str,
    seed: Optional[int] = 42,
    duration_us: Optional[float] = None,
    **overrides,
) -> "ExperimentResult":
    """Run one registered experiment.

    ``seed`` and ``duration_us`` reach the runner only if it takes them,
    and only when not ``None``: the runner then keeps its own default.
    Any other override the runner's signature does not name raises
    ``ValueError`` with the accepted names spelled out: dropping it would
    run a different cell than the caller asked for. The one exception is
    ``out_dir``, dropped for runners that write no artifacts, so digest
    runs can pass ``out_dir=None`` to every id.
    """
    from . import REGISTRY

    runner = REGISTRY[name]
    params = inspect.signature(runner).parameters
    if "out_dir" not in params:
        overrides.pop("out_dir", None)
    unknown = sorted(k for k in overrides if k not in params)
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(map(repr, unknown))} for "
            f"experiment {name!r}; accepted parameters: "
            f"{', '.join(sorted(params)) or '(none)'}"
        )
    if seed is not None and "seed" in params:
        overrides["seed"] = seed
    if duration_us is not None and "duration_us" in params:
        overrides["duration_us"] = duration_us
    return runner(**overrides)


def _run_cell(cell: tuple) -> tuple:
    """One cell of :func:`run_cells`; a raising cell reports, never raises."""
    name, seed, duration_us, config = cell
    t0 = time.perf_counter()
    try:
        result = compute_result(name, seed, duration_us, **config)
        error = None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - t0


def run_cells(cells: Sequence[tuple], workers: int) -> list[tuple]:
    """Run ``(experiment, seed, duration_us, config)`` cells on *workers*
    processes; returns ``(result, error, compute_s)`` per cell, in input
    order.

    Each cell's ``config`` reaches :func:`compute_result` as given, so a
    cell that must write no artifacts carries ``out_dir=None``.
    ``error`` is ``None`` for a cell that returned and
    ``"<Type>: <message>"`` for one that raised. With one worker (or
    one cell) the cells run in this process; otherwise spawn-fresh
    workers compute them and pickle the results back, which carries
    every float and float64 array bit for bit, so the digests do not
    depend on the worker count. A worker process that dies ends the
    batch with ``BrokenProcessPool``.
    """
    workers = min(workers, len(cells))
    if workers <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(_run_cell, cells))


def load_goldens() -> dict:
    """The checked-in digest file ({} when absent, e.g. mid-refresh)."""
    if not _GOLDEN_PATH.exists():
        return {}
    return json.loads(_GOLDEN_PATH.read_text())


def save_goldens(goldens: dict) -> None:
    _GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")


def usable_cores() -> int:
    """Cores this process may run on: the size of its affinity mask,
    falling back to ``os.cpu_count()`` (or 1) where the platform has
    none. The golden digest sets run this many workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _compute_set(which: str) -> tuple[Optional[float], dict]:
    """Recompute one digest set at ``GOLDEN_SEED`` on every usable core;
    returns ``(duration_us, {id: digest})``."""
    if which == "short":
        ids, duration = SHORT_IDS, SHORT_DURATION_US
    elif which == "full":
        ids, duration = GOLDEN_IDS, None
    else:
        raise ValueError("which must be 'short' or 'full'")
    # artifacts stay off disk: a digest covers the result object only
    outcomes = run_cells(
        [(name, GOLDEN_SEED, duration, {"out_dir": None}) for name in ids],
        usable_cores(),
    )
    failed = [
        f"{name} ({error})" for name, (_, error, _) in zip(ids, outcomes) if error
    ]
    if failed:
        raise RuntimeError(f"{which} set failed: {', '.join(failed)}")
    return duration, {
        name: result_digest(result) for name, (result, _, _) in zip(ids, outcomes)
    }


def refresh(which: str = "short", verbose: bool = True) -> dict:
    """Recompute and store one digest set; returns the updated file dict."""
    duration, digests = _compute_set(which)
    if verbose:
        for name, digest in digests.items():
            print(f"{which}:{name} = {digest}")
    goldens = load_goldens()
    goldens[which] = {
        "seed": GOLDEN_SEED,
        "duration_us": duration,
        "digests": digests,
    }
    save_goldens(goldens)
    return goldens


def verify(which: str = "short", verbose: bool = True) -> list[str]:
    """Recompute one digest set and compare against the pinned file.

    Returns the ids whose digests do not match (empty list == verified);
    an id with no pinned digest counts as a mismatch.
    """
    _, digests = _compute_set(which)
    pinned = load_goldens().get(which, {}).get("digests", {})
    mismatches = []
    for name, digest in digests.items():
        ok = digest == pinned.get(name)
        if not ok:
            mismatches.append(name)
        if verbose:
            status = "OK" if ok else f"MISMATCH (pinned {pinned.get(name)})"
            print(f"{which}:{name} = {digest} {status}")
    return mismatches


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The maintenance CLI; returns 1 when a verified set mismatches."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="refresh or verify golden digests"
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--refresh", choices=["short", "full"])
    group.add_argument(
        "--verify", choices=["short", "full"],
        help="recompute the set and compare against the pinned digests "
        "(exit 1 on any mismatch)",
    )
    args = parser.parse_args(argv)
    if args.refresh:
        refresh(args.refresh)
        return 0
    bad = verify(args.verify)
    if bad:
        print(f"MISMATCHED: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - maintenance CLI
    raise SystemExit(main())
