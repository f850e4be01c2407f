"""Partition bench: the cluster workload's wall clock, serial vs partitioned.

The ``pdescluster`` workload runs on the serial reference executor and
across N spawn workers. The two result digests must be byte-identical,
and ``{"partitions": section}`` is written to ``BENCH_sim.json``. The
verdict (``target_met``) is the *measured* speedup; a critical-path
model rides next to it (see :func:`run_partition_bench`). The
simulator's wall clock per workload and per layer is measured by
``python3 perfbench/run.py``, not here.

Usage::

    PYTHONPATH=src python -m repro.experiments bench --partitions 2 --nodes 8
    PYTHONPATH=src python -m repro.experiments bench --quick --partitions 2  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import golden

__all__ = [
    "PARTITION_TARGET_SPEEDUP",
    "usable_cores",
    "critical_path_seconds",
    "run_partition_bench",
    "main",
]

#: seed the partition bench is pinned to (matches the golden set)
BENCH_SEED = 42

#: repo root (src/repro/experiments/bench.py -> three parents up from src/)
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: default output path for the benchmark report
DEFAULT_OUT = _REPO_ROOT / "BENCH_sim.json"

#: the measured speedup the partitioned cluster workload must clear
PARTITION_TARGET_SPEEDUP = 1.3


def usable_cores() -> int:
    """Cores this process may run on: the size of its affinity mask,
    falling back to ``os.cpu_count()`` (or 1) where the platform has
    none. ``sweep`` and the golden digest sets run this many workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def critical_path_seconds(timing: dict) -> tuple[float, float]:
    """Fold a coordinator timing dict into ``(critical_path_s, coord_s)``.

    ``timing`` is the digest-exempt measurement block a partitioned
    :func:`repro.experiments.pdescluster.pdescluster` run emits:
    ``wall_s`` (coordinator wall), ``startup_s`` (spawn-pool bring-up
    wall), ``worker_build_cpu_s`` (per-worker interpreter-import +
    topology-build CPU) and ``worker_cpu_s`` (per-worker window-phase
    CPU), both measured in-worker with ``time.process_time``.

    The critical path is the wall-clock a worker-per-partition run
    attains once the machine has at least as many cores as workers.
    Worker bring-ups are independent processes, so they overlap and
    contribute only the *slowest* worker's build CPU; the lockstep
    window rounds likewise advance at the pace of the slowest worker,
    modeled here by the largest total window-phase CPU (exact when the
    same partition dominates every round, as the static round-robin
    assignment makes typical). The coordinator's own protocol CPU
    overlaps with neither and is recovered by subtraction: on a
    saturated box the measured wall is startup + the *sum* of window
    CPU + the coordinator share, so ``coord_s = wall - startup -
    sum(worker_cpu)``, clamped at zero for machines where the workers
    genuinely ran in parallel and the subtraction would double-count
    the overlap.
    """
    worker_cpu = timing.get("worker_cpu_s", {}) or {}
    build_cpu = timing.get("worker_build_cpu_s", {}) or {}
    startup = float(timing.get("startup_s", 0.0))
    coord_s = max(
        0.0, float(timing.get("wall_s", 0.0)) - startup - sum(worker_cpu.values())
    )
    critical = (
        max(build_cpu.values(), default=startup)
        + max(worker_cpu.values(), default=0.0)
        + coord_s
    )
    return critical, coord_s


def run_partition_bench(
    partitions: int,
    quick: bool = False,
    n_nodes: int = 4,
    out_path: Optional[Path] = None,
) -> dict:
    """Time the pdescluster workload serial vs partitioned; write report.

    Runs the cluster-scale partitioned workload (front door + *n_nodes*
    node partitions across the SAN seam) twice — serial reference
    executor, then *partitions* spawn workers — under the same seed and
    duration, and proves the two byte-identical with the same digest
    oracle the sweep engine uses (:func:`golden.result_digest`). When
    the run matches a pinned golden configuration (the default node
    count), the digest is additionally checked against the checked-in
    set.

    The report at *out_path* (default ``BENCH_sim.json``) is replaced by
    ``{"partitions": section}``, and the section is returned. Its
    ``target_met`` judges ``speedup_measured``; ``speedup_critical_path``
    is a model (see :func:`critical_path_seconds`) and never the verdict.

    Raises :class:`RuntimeError` on any digest mismatch — a partitioned
    run that changes one byte is a broken coordinator, and its timings
    are meaningless.
    """
    if partitions < 1:
        raise ValueError(
            f"partitions must be a positive worker count, got {partitions!r}; "
            "valid values are 1..N"
        )
    out_path = Path(out_path) if out_path is not None else DEFAULT_OUT
    from repro.experiments.pdescluster import pdescluster

    from .calibration import SIM_DURATION_US

    duration = golden.SHORT_DURATION_US if quick else SIM_DURATION_US
    logical = n_nodes + 1  # front door + one partition per node

    print(
        f"partition bench: pdescluster, {n_nodes} nodes ({logical} logical "
        f"partitions), {duration / 1e6:.0f} simulated seconds"
    )
    print("  serial reference executor...")
    serial_timing: dict = {}
    t0 = time.perf_counter()
    serial_result = pdescluster(
        duration_us=duration,
        seed=BENCH_SEED,
        n_nodes=n_nodes,
        partitions=None,
        out_dir=None,
        timing_sink=serial_timing,
    )
    serial_wall = time.perf_counter() - t0
    serial_digest = golden.result_digest(serial_result)
    print(f"    wall {serial_wall:.2f} s  digest {serial_digest[:12]}...")

    print(f"  {partitions} spawn workers...")
    part_timing: dict = {}
    t0 = time.perf_counter()
    part_result = pdescluster(
        duration_us=duration,
        seed=BENCH_SEED,
        n_nodes=n_nodes,
        partitions=partitions,
        out_dir=None,
        timing_sink=part_timing,
    )
    part_wall = time.perf_counter() - t0
    part_digest = golden.result_digest(part_result)
    print(f"    wall {part_wall:.2f} s  digest {part_digest[:12]}...")

    identical = serial_digest == part_digest

    # when this exact configuration is pinned, hold both runs to the
    # checked-in digest as well (the sweep engine's byte-identity oracle)
    pinned_match: Optional[bool] = None
    if n_nodes == 4:
        section_name = "short" if quick else "full"
        pinned = (
            golden.load_goldens()
            .get(section_name, {})
            .get("digests", {})
            .get("pdescluster")
        )
        if pinned is not None:
            pinned_match = serial_digest == pinned and part_digest == pinned

    critical_s, coord_s = critical_path_seconds(part_timing)
    worker_cpu = part_timing.get("worker_cpu_s", {}) or {}
    build_cpu = part_timing.get("worker_build_cpu_s", {}) or {}
    serial_coord_wall = float(serial_timing.get("wall_s", serial_wall))
    speedup_measured = serial_coord_wall / float(
        part_timing.get("wall_s", part_wall)
    )
    speedup_critical = serial_coord_wall / critical_s if critical_s > 0 else 0.0
    cores = usable_cores()

    section = {
        "workload": "pdescluster",
        "n_nodes": n_nodes,
        "logical_partitions": logical,
        "workers": partitions,
        "seed": BENCH_SEED,
        "duration_us": duration,
        "quick": quick,
        "cores": cores,
        "serial": {"wall_s": serial_coord_wall, "digest": serial_digest},
        "partitioned": {
            "wall_s": float(part_timing.get("wall_s", part_wall)),
            "startup_s": float(part_timing.get("startup_s", 0.0)),
            "worker_build_cpu_s": {
                str(k): v for k, v in sorted(build_cpu.items())
            },
            "worker_cpu_s": {str(k): v for k, v in sorted(worker_cpu.items())},
            "coordinator_s": coord_s,
            "critical_path_s": critical_s,
            "digest": part_digest,
        },
        "identical": identical,
        "pinned_digest_match": pinned_match,
        "speedup_measured": speedup_measured,
        "speedup_critical_path": speedup_critical,
        "target_speedup": PARTITION_TARGET_SPEEDUP,
        "target_met": speedup_measured >= PARTITION_TARGET_SPEEDUP,
        "basis": (
            "target_met judges speedup_measured; speedup_critical_path is "
            "a model: max per-worker bring-up CPU + max per-worker window "
            "CPU + coordinator CPU, the wall-clock a worker-per-partition "
            "run would attain with cores >= workers (independent bring-ups "
            "overlap; lockstep windows advance at the slowest worker's "
            f"pace); measured on {cores} core(s) with {partitions} "
            "worker(s)"
        ),
    }

    out_path.write_text(json.dumps({"partitions": section}, indent=2) + "\n")
    print(f"wrote {out_path}")
    print(
        f"  serial {serial_coord_wall:.2f} s | partitioned wall "
        f"{section['partitioned']['wall_s']:.2f} s (startup "
        f"{section['partitioned']['startup_s']:.2f} s, max bring-up CPU "
        f"{max(build_cpu.values(), default=0.0):.2f} s, max window CPU "
        f"{max(worker_cpu.values(), default=0.0):.2f} s, coordinator "
        f"{coord_s:.2f} s)"
    )
    verdict = "met" if section["target_met"] else "NOT met"
    print(
        f"  speedup: measured {speedup_measured:.2f}x (target "
        f"{PARTITION_TARGET_SPEEDUP}x {verdict}); critical-path model "
        f"{speedup_critical:.2f}x"
    )

    if not identical:
        raise RuntimeError(
            f"partitioned digest {part_digest} != serial digest "
            f"{serial_digest} — the window protocol changed result bytes"
        )
    if pinned_match is False:
        raise RuntimeError(
            "pdescluster digest does not match the checked-in golden set — "
            "run the golden verify CLI to locate the drift"
        )
    return section


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments bench",
        description="Partition bench: pdescluster serial vs partitioned.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short simulated duration + short golden set (CI smoke)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="report path (default: BENCH_sim.json)"
    )
    parser.add_argument(
        "--partitions",
        type=int,
        required=True,
        metavar="N",
        help="run the pdescluster workload serial vs across N spawn "
        "workers, prove the digests byte-identical, and write the "
        "'partitions' report",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=4,
        metavar="M",
        help="node partitions for the --partitions workload (default 4: "
        "front door + 4 nodes = 5 logical partitions)",
    )
    args = parser.parse_args(argv)
    if args.partitions < 1:
        parser.error(
            f"--partitions must be a positive worker count, got "
            f"{args.partitions}; valid values are 1..N"
        )
    try:
        run_partition_bench(
            args.partitions,
            quick=args.quick,
            n_nodes=args.nodes,
            out_path=args.out,
        )
    except RuntimeError as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
