"""Wall-clock benchmark harness for the simulation kernel.

Times the headline workloads (Figure 9, chaos, failover, observe, the
transport comparison) end to end — full duration, pinned seed, warm
median of N repetitions — and writes ``BENCH_sim.json`` at the
repository root. Two guarantees ride
along with the numbers:

* **Fidelity**: before timing is trusted, every golden digest
  (:data:`~repro.experiments.golden.GOLDEN_IDS`) is recomputed and
  compared byte-for-byte against ``golden_digests.json``. A drift in any
  experiment fails the bench — a fast kernel that changes a scheduling
  decision is a broken kernel.
* **Provenance**: the pre-optimization baseline medians (measured with
  the same protocol at the commit before the kernel fast-path work) are
  checked in at ``benchmarks/wallclock_baseline.json`` and
  copied into ``BENCH_sim.json`` next to the current medians, so the
  reported speedup is reproducible arithmetic, not a claim. A speedup is
  only printed when the baseline's interpreter, machine, CPU model and
  core count all match the current run (:func:`baseline_comparability`)
  — otherwise the report says *incomparable baseline* and names the
  fields rather than publishing a bogus ×-figure.

Usage::

    PYTHONPATH=src python -m repro.experiments bench          # full
    PYTHONPATH=src python -m repro.experiments bench --quick  # CI smoke
    PYTHONPATH=src python benchmarks/wallclock.py             # same, script
    PYTHONPATH=src python -m repro.experiments bench --partitions 5

``--quick`` runs the short-duration workload set and verifies only the
short digest set — a couple of seconds, suitable for a CI smoke job.

``--partitions N`` times the partitioned-execution tentpole instead of
the workload set: the ``pdescluster`` cluster workload runs once on the
serial reference executor and once across N spawn workers, the two
result digests are compared byte-for-byte, and a ``partitions`` section
is merged into ``BENCH_sim.json`` (the rest of an existing report is
preserved). The section's verdict (``target_met``) is the *measured*
speedup; a critical-path speedup derived from per-worker CPU seconds
rides next to it, labelled as a model — see :func:`run_partition_bench`
for the arithmetic and its basis.

Machine caveat: wall-clock numbers are only comparable against a baseline
measured on the same machine. The digest verification, by contrast, is
machine-independent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

from repro.obs.profile import PROFILE_ENV_VAR, WallClockProfiler, maybe_profile

from . import golden

__all__ = [
    "WORKLOADS",
    "PARTITION_TARGET_SPEEDUP",
    "baseline_comparability",
    "host_fingerprint",
    "critical_path_seconds",
    "run_partition_bench",
    "run_bench",
    "main",
]

#: seed every benchmark workload is pinned to (matches the golden set)
BENCH_SEED = 42

#: repo root (src/repro/experiments/bench.py -> three parents up from src/)
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: default output path for the benchmark report
DEFAULT_OUT = _REPO_ROOT / "BENCH_sim.json"

#: where the collapsed-stack flamegraph artifact lands when profiling
DEFAULT_FLAMEGRAPH = _REPO_ROOT / "out" / "bench" / "flamegraph.folded"

#: checked-in pre-optimization medians (same machine/protocol provenance)
BASELINE_PATH = _REPO_ROOT / "benchmarks" / "wallclock_baseline.json"

#: the timed workloads: name -> experiment id run at full duration
WORKLOADS = ("figure9", "chaos", "failover", "observe", "transport")

#: the host fields a baseline must share with the current run before
#: their medians may be divided (see :func:`host_fingerprint`)
HOST_FIELDS = ("python", "machine", "cpu_model", "nproc")

#: the workload the >=1.5x acceptance target is pinned to
HEADLINE = "figure9"

#: the measured speedup the partitioned cluster workload must clear
PARTITION_TARGET_SPEEDUP = 1.3


#: the child timing program. Runs in a FRESH interpreter per workload so
#: one workload's heap growth (or the digest verification pass) cannot
#: leak into another's timings. Uses only the experiment REGISTRY +
#: inspect, so the identical program also times historical checkouts
#: (that is how the checked-in baseline was captured — see
#: ``benchmarks/wallclock_baseline.json``).
_CHILD_PROGRAM = r"""
import json, statistics, sys, time
t_import = time.perf_counter()
import inspect
from repro.experiments import REGISTRY
import_s = time.perf_counter() - t_import

name, seed, duration, reps = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
)
runner = REGISTRY[name]
params = inspect.signature(runner).parameters
kwargs = {}
if "seed" in params:
    kwargs["seed"] = seed
if duration != "none" and "duration_us" in params:
    kwargs["duration_us"] = float(duration)
if "out_dir" in params:
    kwargs["out_dir"] = None
runner(**kwargs)  # warm: imports, allocator steady state, branch caches
samples = []
for _ in range(reps):
    t0 = time.perf_counter()
    runner(**kwargs)
    samples.append(time.perf_counter() - t0)
try:
    import resource
    peak_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
except Exception:
    peak_rss_kb = 0
print(json.dumps({
    "median_s": statistics.median(samples),
    "samples_s": samples,
    "reps": reps,
    "import_s": import_s,
    "peak_rss_kb": peak_rss_kb,
}))
"""


def time_workload_isolated(
    name: str,
    reps: int,
    quick: bool = False,
    src_dir: Optional[Path] = None,
) -> dict:
    """Time one workload in a fresh interpreter; returns the timing dict.

    ``src_dir`` points the child at an alternative source tree (used to
    re-capture the baseline from the pre-optimization commit with the
    exact same measurement program).
    """
    duration = str(golden.SHORT_DURATION_US) if quick else "none"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir if src_dir is not None else _REPO_ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_PROGRAM, name, str(BENCH_SEED), duration, str(reps)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _verify_digests(quick: bool, jobs: int = 1) -> dict[str, str]:
    """Recompute the golden digests; returns name -> 'identical'|'drift'.

    ``jobs > 1`` fans the recomputation out over worker processes via the
    sweep runner (cache disabled — verification must recompute). The
    per-experiment digests are independent deterministic evaluations, so
    the fan-out cannot change a verdict, only the wall clock.
    """
    goldens = golden.load_goldens()
    section = "short" if quick else "full"
    duration = golden.SHORT_DURATION_US if quick else None
    wanted = goldens[section]["digests"]
    if jobs > 1:
        from repro.parallel import Job, SweepRunner

        specs = [
            Job(experiment=name, seed=BENCH_SEED, duration_us=duration)
            for name in wanted
        ]
        report = SweepRunner(workers=jobs, cache=None).run(specs)
        return {
            o.job.experiment: (
                "identical"
                if o.ok and o.result_digest == wanted[o.job.experiment]
                else ("drift" if o.ok else f"error: {o.error}")
            )
            for o in report.outcomes
        }
    verdicts: dict[str, str] = {}
    for name, want in wanted.items():
        got = golden.compute_digest(
            name, seed=BENCH_SEED, duration_us=duration, out_dir=None
        )
        verdicts[name] = "identical" if got == want else "drift"
    return verdicts


def host_fingerprint() -> dict:
    """The host a bench run measures on: interpreter version, machine
    architecture, CPU model (the first ``model name`` in
    ``/proc/cpuinfo``) and usable cores — the sources perfbench's own
    host fingerprint reads."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_model": cpu_model,
        "nproc": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
    }


def baseline_comparability(
    baseline: Optional[dict], current: Optional[dict] = None
) -> tuple[bool, str]:
    """Decide whether the checked-in baseline supports a speedup claim.

    Wall-clock medians only divide meaningfully when baseline and current
    run (default: :func:`host_fingerprint`) agree on every
    :data:`HOST_FIELDS` entry. A field the baseline does not record is
    as disqualifying as a mismatched one. Returns ``(comparable,
    reason)`` where ``reason`` names every such field (empty string when
    comparable).
    """
    if baseline is None:
        return False, "no baseline"
    current = current if current is not None else host_fingerprint()
    mismatches = []
    for key in HOST_FIELDS:
        if key not in baseline:
            mismatches.append(f"{key} not recorded in baseline")
        elif baseline[key] != current.get(key):
            mismatches.append(f"{key} {baseline[key]!r} != {current.get(key)!r}")
    if mismatches:
        return False, "; ".join(mismatches)
    return True, ""


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
    """Time the pdescluster workload serial vs partitioned; merge report.

    Runs the cluster-scale partitioned workload (front door + *n_nodes*
    node partitions across the SAN seam) twice — serial reference
    executor, then *partitions* spawn workers — under the same seed and
    duration, and proves the two byte-identical with the same digest
    oracle the sweep engine uses (:func:`golden.result_digest`). When
    the run matches a pinned golden configuration (seed 42, default
    node count), the digest is additionally checked against the
    checked-in set.

    The resulting ``partitions`` section is merged into the report at
    *out_path* (default ``BENCH_sim.json``) without disturbing the
    workload-timing sections a previous full bench wrote. Its
    ``target_met`` judges ``speedup_measured``; ``speedup_critical_path``
    is a model (see :func:`critical_path_seconds`) and never the verdict.

    Raises :class:`RuntimeError` on any digest mismatch — a partitioned
    run that changes one byte is a broken coordinator, and its timings
    are meaningless.
    """
    if partitions < 1:
        raise ValueError(
            f"partitions must be a positive worker count, got {partitions!r}; "
            "valid values are 1..N (or omit the flag for the workload bench)"
        )
    out_path = Path(out_path) if out_path is not None else DEFAULT_OUT
    import time

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
    if n_nodes == 4 and BENCH_SEED == 42:
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
    cores = host_fingerprint()["nproc"]

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

    report = json.loads(out_path.read_text()) if out_path.exists() else {}
    report["partitions"] = section
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path} (partitions section)")
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


def run_bench(
    reps: int = 5,
    quick: bool = False,
    out_path: Optional[Path] = None,
    jobs: int = 1,
    profile: bool = False,
    flamegraph_path: Optional[Path] = None,
) -> dict:
    """Run the benchmark; writes the report and returns it as a dict.

    Raises :class:`RuntimeError` if any golden digest drifts — wall-clock
    numbers for a behaviourally different simulation are meaningless.

    ``jobs`` parallelizes only the digest-verification pass. The timed
    runs stay strictly serial, one fresh interpreter at a time — sharing
    cores between concurrent timed workloads would corrupt the medians.

    ``profile`` (or ``REPRO_PROFILE=1``) arms the wall-clock self-profiler
    around the in-process digest-verification pass — the full workload
    set re-executes under the sampler while the digests are compared
    byte-for-byte, which *is* the bit-identity proof the profiler claims.
    Hotspots land in the report (``hotspots`` / ``profile``) and the
    collapsed stacks in ``out/bench/flamegraph.folded``. Meaningful
    attribution needs the serial pass, so profiling forces ``jobs=1``.
    """
    out_path = Path(out_path) if out_path is not None else DEFAULT_OUT
    profiler = WallClockProfiler() if profile else maybe_profile()
    if profiler.enabled and jobs > 1:
        print("profiling: forcing --jobs 1 (worker processes are unsampled)")
        jobs = 1

    current: dict[str, dict] = {}
    for name in WORKLOADS:
        print(f"timing {name} ({reps} reps{', quick' if quick else ''}, isolated)...")
        current[name] = time_workload_isolated(name, reps, quick=quick)
        print(
            f"  median {current[name]['median_s']:.3f} s"
            f"  (peak RSS {current[name].get('peak_rss_kb', 0) / 1024:.0f} MB,"
            f" cold import {current[name].get('import_s', 0.0):.2f} s)"
        )

    with profiler:
        print(
            f"verifying golden digests ({'short' if quick else 'full'} set"
            f"{f', {jobs} workers' if jobs > 1 else ''})..."
        )
        digests = _verify_digests(quick, jobs=jobs)
        for name, verdict in sorted(digests.items()):
            print(f"  {name:10s} {verdict}")
    drifted = [n for n, v in sorted(digests.items()) if v != "identical"]

    host = host_fingerprint()
    baseline = None
    comparable = False
    why_not = "quick mode (no baseline comparison)" if quick else "no baseline"
    if not quick and BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        comparable, reason = baseline_comparability(baseline, host)
        if not comparable:
            why_not = f"incomparable baseline: {reason}"

    speedup: Optional[dict[str, float]] = None
    if baseline is not None and comparable:
        speedup = {
            name: baseline["workloads"][name]["median_s"] / current[name]["median_s"]
            for name in WORKLOADS
            if name in baseline.get("workloads", {})
        }

    report = {
        "seed": BENCH_SEED,
        "quick": quick,
        "protocol": "fresh interpreter per workload; 1 warm run + median of N reps",
        **host,
        "digests": digests,
        "workloads": current,
        "baseline": baseline,
        "baseline_comparable": comparable,
        "baseline_incomparable_reason": None if comparable else why_not,
        "speedup": speedup,
        "headline": HEADLINE,
    }

    if profiler.enabled:
        flame = (
            Path(flamegraph_path) if flamegraph_path is not None else DEFAULT_FLAMEGRAPH
        )
        flame.parent.mkdir(parents=True, exist_ok=True)
        flame.write_text(profiler.collapsed())
        report["hotspots"] = profiler.hotspots(15)
        report["profile"] = {
            "samples": profiler.samples,
            "wall_s": profiler.wall_s,
            "interval_s": profiler.interval_s,
            "packages": profiler.package_rollup(),
            "flamegraph": str(flame),
            "scope": "digest-verification pass (all workloads, in-process)",
        }
        if profiler.call_counts_enabled:
            top_calls = sorted(profiler.calls.items(), key=lambda kv: (-kv[1], kv[0]))
            report["profile"]["top_calls"] = [
                {"function": fn, "calls": n} for fn, n in top_calls[:15]
            ]
        print(profiler.render_hotspots())
        print(f"wrote {flame}")

    # a previous `bench --partitions` section is provenance worth keeping:
    # the workload bench and the partition bench update disjoint keys
    if out_path.exists():
        try:
            prior = json.loads(out_path.read_text())
        except (OSError, json.JSONDecodeError):
            prior = {}
        if "partitions" in prior:
            report["partitions"] = prior["partitions"]

    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    if baseline is not None and not comparable:
        print(f"  {why_not} — no speedup reported")
    for name, ratio in (speedup or {}).items():
        print(f"  speedup {name:10s} {ratio:.2f}x")

    if drifted:
        raise RuntimeError(
            f"golden digest drift in: {', '.join(drifted)} — simulated outputs "
            "changed; timings are not comparable (and the kernel is wrong)"
        )
    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments bench",
        description="Wall-clock benchmark + golden-digest verification.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short-duration workloads + short digest set (CI smoke)",
    )
    parser.add_argument(
        "--reps", type=int, default=5, metavar="N", help="timed repetitions"
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="report path (default: BENCH_sim.json)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the digest-verification pass "
        "(timed runs always stay serial)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="arm the wall-clock self-profiler around the digest "
        f"verification (equivalent to {PROFILE_ENV_VAR}=1); writes "
        "hotspots into the report and a flamegraph .folded artifact",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=None,
        metavar="N",
        help="bench partitioned execution instead of the workload set: "
        "run the pdescluster workload serial vs across N spawn workers, "
        "prove the digests byte-identical, and merge a 'partitions' "
        "section into the report",
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
    if args.partitions is not None:
        if args.partitions < 1:
            parser.error(
                f"--partitions must be a positive worker count, got "
                f"{args.partitions}; valid values are 1..N (or omit the "
                "flag for the workload bench)"
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
    try:
        run_bench(
            reps=args.reps,
            quick=args.quick,
            out_path=args.out,
            jobs=args.jobs,
            profile=args.profile,
        )
    except RuntimeError as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
