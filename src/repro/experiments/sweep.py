"""The sweep CLI: the evaluation matrix on N cores.

Five matrix presets, each run through :func:`repro.experiments.golden.run_cells`:

* ``replicate`` (default) — experiments × seeds, merged into mean ± 95 %
  CI rows per cell. ``sweep --jobs $(nproc)`` runs the 4-workload ×
  5-seed matrix the acceptance bar names.
* ``sensitivity`` — the cost-constant perturbation grid
  (``sens_costs`` × scales) plus the mechanism-knockout runs
  (``sens_knockouts`` × seeds).
* ``scenarios`` — the chaos, failover and cluster campaign matrices, one
  job per named scenario.
* ``cluster`` — cluster scenarios × node counts (``--nodes``).
* ``transport`` — the transport comparison per media transport, plus the
  chaos campaign over each reliable one.

Two artifacts land in ``--out`` (default ``out/sweep/``):

* ``SWEEP_result.txt`` — the merged :class:`ExperimentResult` rendering
  plus its golden digest. Deterministic: byte-identical across runs and
  worker counts (CI diffs a 1-worker and a 2-worker run).
* ``SWEEP_report.json`` — execution telemetry (wall clock, per-job
  compute seconds, the serial estimate and speedup). Volatile by
  nature; never diffed.

The single summary line printed last (jobs, failures, wall, est.
speedup) is the CI-log breadcrumb.

    python -m repro.experiments sweep --jobs 4
    python -m repro.experiments sweep scenarios --duration 10000000 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from . import CAMPAIGNS, REGISTRY
from .golden import result_digest, run_cells, usable_cores
from .report import ExperimentResult

__all__ = [
    "Job",
    "JobOutcome",
    "SweepReport",
    "DEFAULT_SWEEP_EXPERIMENTS",
    "DEFAULT_SEEDS",
    "DEFAULT_SCALES",
    "replicate_jobs",
    "sensitivity_jobs",
    "scenario_jobs",
    "transport_jobs",
    "cluster_jobs",
    "DEFAULT_NODE_GRID",
    "merge_replicate",
    "merge_matrix",
    "write_sweep_artifacts",
    "main",
]

#: the acceptance matrix: Figure 9 and the chaos, failover and observe
#: campaigns that replay its streaming cell
DEFAULT_SWEEP_EXPERIMENTS = ("figure9", "chaos", "failover", "observe")

#: replication factor for the default matrix
DEFAULT_SEEDS = 5

#: the cost-constant perturbation grid swept by ``sweep sensitivity``
DEFAULT_SCALES = (1.25, 1.5, 1.75, 2.0)

#: the node-count grid swept by ``sweep cluster``
DEFAULT_NODE_GRID = (2, 3, 4)

#: where the sweep artifacts land unless the caller overrides it
DEFAULT_OUT_DIR = os.path.join("out", "sweep")

#: the flags only some modes read, by argparse dest, and those modes; a
#: mode given one it does not read exits 2 before any cell runs
_MODE_FLAGS = {
    "experiments": ("replicate",),
    "seeds": ("replicate", "sensitivity"),
    "scales": ("sensitivity",),
    "nodes": ("cluster",),
    "transports": ("transport",),
}


# -- cells and outcomes ------------------------------------------------------


@dataclass
class Job:
    """One cell of a sweep matrix: a ``REGISTRY`` id at one seed, with an
    optional duration and keyword overrides for its runner (checked by
    :func:`repro.experiments.golden.compute_result`)."""

    experiment: str
    seed: int = 42
    duration_us: Optional[float] = None
    config: dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """The cell's name in the provenance notes and the report. Part of
        the merged digest, so its text is fixed."""
        parts = [self.experiment, f"seed={self.seed}"]
        if self.duration_us is not None:
            parts.append(f"T={self.duration_us:g}us")
        for k in sorted(self.config):
            parts.append(f"{k}={self.config[k]!r}")
        return " ".join(parts)


@dataclass
class JobOutcome:
    """One job's result, or the error it raised."""

    job: Job
    result: Optional[ExperimentResult]
    error: Optional[str]
    compute_s: float

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """Everything one sweep produced, in input job order."""

    outcomes: list[JobOutcome]
    wall_s: float
    workers: int

    @property
    def failed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def serial_estimate_s(self) -> float:
        """Sum of per-job compute seconds: what one core would have paid."""
        return sum(o.compute_s for o in self.outcomes)

    @property
    def speedup_estimate(self) -> float:
        return self.serial_estimate_s / self.wall_s if self.wall_s > 0 else 0.0

    def summary_line(self) -> str:
        """The one-line sweep summary for CI logs."""
        return (
            f"sweep: {len(self.outcomes)} jobs ({len(self.failed)} failed) "
            f"workers={self.workers} wall={self.wall_s:.2f}s "
            f"serial-est={self.serial_estimate_s:.2f}s "
            f"speedup-est={self.speedup_estimate:.2f}x"
        )


# -- job matrices ------------------------------------------------------------


def replicate_jobs(
    experiments: Sequence[str],
    seeds: int,
    seed_base: int = 42,
    duration_us: Optional[float] = None,
) -> list[Job]:
    """experiments × seeds, seed-major per experiment."""
    return [
        Job(experiment=exp, seed=seed_base + k, duration_us=duration_us)
        for exp in experiments
        for k in range(seeds)
    ]


def sensitivity_jobs(
    scales: Sequence[float] = DEFAULT_SCALES,
    seeds: int = 2,
    seed_base: int = 42,
    duration_us: Optional[float] = None,
) -> list[Job]:
    """The perturbation grid: sens_costs × scales + sens_knockouts × seeds."""
    jobs = [
        Job(experiment="sens_costs", seed=seed_base, config={"scale": float(s)})
        for s in scales
    ]
    jobs += [
        Job(experiment="sens_knockouts", seed=seed_base + k, duration_us=duration_us)
        for k in range(seeds)
    ]
    return jobs


def scenario_jobs(
    seed: int = 42, duration_us: Optional[float] = None
) -> list[Job]:
    """The chaos + failover + cluster campaigns, one job per scenario."""
    return [
        Job(
            experiment=exp,
            seed=seed,
            duration_us=duration_us,
            config={"scenarios": [name]},
        )
        for exp, registry in CAMPAIGNS.items()
        for name in registry
    ]


def transport_jobs(
    transports: Optional[Sequence[str]] = None,
    seed: int = 42,
    duration_us: Optional[float] = None,
) -> list[Job]:
    """The media-transport axis: the offload-vs-host comparison per
    transport, plus the full chaos campaign over each reliable transport
    (the zero-leak audit under fire)."""
    from repro.net.transport import VALID_TRANSPORTS, resolve_transport

    names = (
        [resolve_transport(t) for t in transports]
        if transports is not None
        else list(VALID_TRANSPORTS)
    )
    jobs = [
        Job(
            experiment="transport",
            seed=seed,
            duration_us=duration_us,
            config={"transports": [name]},
        )
        for name in names
    ]
    jobs += [
        Job(
            experiment="chaos",
            seed=seed,
            duration_us=duration_us,
            config={"transport": name},
        )
        for name in names
        if name != "udp"  # the raw path's chaos cells are the scenarios mode
    ]
    return jobs


def cluster_jobs(
    nodes: Sequence[int] = DEFAULT_NODE_GRID,
    seed: int = 42,
    duration_us: Optional[float] = None,
    scenarios: Sequence[str] = ("baseline", "node-crash"),
) -> list[Job]:
    """The scale-out axis: served streams vs node count.

    One cluster job per (node count, scenario) cell — ``baseline`` shows
    how many streams the front door serves as nodes are added,
    ``node-crash`` how the recovery metrics hold up at each scale."""
    return [
        Job(
            experiment="cluster",
            seed=seed,
            duration_us=duration_us,
            config={"n_nodes": int(n), "scenarios": [name]},
        )
        for n in nodes
        for name in scenarios
    ]


# -- deterministic merges ----------------------------------------------------


def _provenance_notes(result: ExperimentResult, report: SweepReport) -> None:
    """Pin every job's digest into the merged notes (input job order), so
    the merged result's own digest covers each cell byte for byte."""
    for o in report.outcomes:
        if o.ok:
            result.notes.append(
                f"job {o.job.label}: result digest {result_digest(o.result)}"
            )
        else:
            result.notes.append(f"job {o.job.label}: FAILED ({o.error})")


def merge_replicate(report: SweepReport, title: str) -> ExperimentResult:
    """Mean ± 95 % CI per row label across an experiment's seed replicas.

    Deterministic and order-independent: outcomes arrive in input job
    order regardless of completion order, values are reduced with plain
    float arithmetic, and failed replicas are excluded (and recorded in
    the notes) rather than poisoning the mean.
    """
    merged = ExperimentResult(exp_id="Sweep: replicate", title=title)
    by_exp: dict[str, list] = {}
    order: list[str] = []
    for o in report.outcomes:
        key = o.job.experiment
        if key not in by_exp:
            by_exp[key] = []
            order.append(key)
        if o.ok:
            by_exp[key].append(o.result)
    for exp in order:
        results = by_exp[exp]
        if not results:
            merged.notes.append(f"{exp}: every replica failed")
            continue
        template = results[0]
        for row in template.rows:
            values = []
            for r in results:
                try:
                    values.append(r.row(row.label).measured)
                except KeyError:
                    pass
            n = len(values)
            mean = statistics.fmean(values)
            ci = (
                1.96 * statistics.stdev(values) / math.sqrt(n) if n > 1 else 0.0
            )
            merged.add_row(
                f"{exp}: {row.label}",
                mean,
                unit=row.unit,
                paper=row.paper,
                note=f"mean of {n} seeds, 95% CI +/-{ci:.6g}",
            )
    _provenance_notes(merged, report)
    return merged


def merge_matrix(report: SweepReport, exp_id: str, title: str) -> ExperimentResult:
    """Concatenate each cell's rows, prefixed by its job label."""
    merged = ExperimentResult(exp_id=exp_id, title=title)
    for o in report.outcomes:
        if not o.ok:
            continue
        for row in o.result.rows:
            merged.add_row(
                f"[{o.job.label}] {row.label}",
                row.measured,
                unit=row.unit,
                paper=row.paper,
                note=row.note,
            )
    _provenance_notes(merged, report)
    return merged


# -- artifacts ---------------------------------------------------------------


def write_sweep_artifacts(
    out_dir: str,
    merged: ExperimentResult,
    report: SweepReport,
    argv: Sequence[str],
) -> list[str]:
    """Write SWEEP_result.txt (deterministic) + SWEEP_report.json (telemetry)."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    merged_digest = result_digest(merged)

    result_path = directory / "SWEEP_result.txt"
    result_path.write_text(merged.render() + f"\nmerged digest: {merged_digest}\n")

    report_path = directory / "SWEEP_report.json"
    payload = {
        "argv": list(argv),
        "merged_digest": merged_digest,
        "workers": report.workers,
        "wall_s": report.wall_s,
        "serial_estimate_s": report.serial_estimate_s,
        "speedup_estimate": report.speedup_estimate,
        "summary": report.summary_line(),
        "jobs": [
            {
                "label": o.job.label,
                "experiment": o.job.experiment,
                "seed": o.job.seed,
                "duration_us": o.job.duration_us,
                "config": o.job.config,
                "status": "ran" if o.ok else "failed",
                "compute_s": o.compute_s,
                "result_digest": result_digest(o.result) if o.ok else None,
                "error": o.error,
            }
            for o in report.outcomes
        ],
    }
    report_path.write_text(json.dumps(payload, indent=2) + "\n")
    return [str(result_path), str(report_path)]


# -- CLI ---------------------------------------------------------------------


def _csv(text: str) -> list[str]:
    return [t for t in (s.strip() for s in text.split(",")) if t]


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments sweep",
        description="Multi-core experiment fan-out.",
    )
    parser.add_argument(
        "mode",
        nargs="?",
        choices=["replicate", "sensitivity", "scenarios", "cluster", "transport"],
        default="replicate",
        help="which matrix to sweep (default: replicate)",
    )
    parser.add_argument(
        "--nodes",
        metavar="N,M,...",
        help="cluster mode: node-count grid (served streams vs node count)",
    )
    parser.add_argument(
        "--experiments",
        metavar="A,B,...",
        help="replicate mode: experiment ids to replicate",
    )
    parser.add_argument(
        "--seeds", type=int, metavar="N",
        help="replicate and sensitivity modes: replications per experiment "
        "(seed-base, seed-base+1, ...)",
    )
    parser.add_argument("--seed-base", type=int, default=42, metavar="S")
    parser.add_argument(
        "--scales",
        metavar="X,Y,...",
        help="sensitivity mode: cost-constant scale grid",
    )
    parser.add_argument(
        "--transports",
        metavar="T,U,...",
        help="transport mode: media transports to compare "
        "(default: udp,tcp,ttp)",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="US",
        help="override simulated duration in µs (default: full runs)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: every usable core)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT_DIR, metavar="DIR",
        help="artifact directory; 'none' writes nothing",
    )
    args = parser.parse_args(argv)

    # every flag, count and id is checked before any cell runs
    for dest, modes in _MODE_FLAGS.items():
        if getattr(args, dest) is not None and args.mode not in modes:
            parser.error(
                f"--{dest} is read only by {' and '.join(modes)}, "
                f"not by {args.mode}"
            )
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be a positive worker count, got {args.jobs}")
    if args.seeds is not None and args.seeds < 1:
        parser.error(f"--seeds must be a positive replica count, got {args.seeds}")
    seeds = DEFAULT_SEEDS if args.seeds is None else args.seeds

    def listed(flag: str, text: Optional[str], kind: type = str) -> Optional[list]:
        """A comma-list flag's items, or None when it is absent."""
        if text is None:
            return None
        try:
            items = [kind(t) for t in _csv(text)]
        except ValueError:
            parser.error(f"{flag} takes comma-separated {kind.__name__}s, got {text!r}")
        if not items:
            parser.error(f"{flag} names nothing, got {text!r}")
        return items

    if args.mode == "replicate":
        experiments = (
            listed("--experiments", args.experiments) or DEFAULT_SWEEP_EXPERIMENTS
        )
        unknown = [e for e in experiments if e not in REGISTRY]
        if unknown:
            parser.error(f"--experiments names unknown id(s): {', '.join(unknown)}")
        jobs = replicate_jobs(experiments, seeds, args.seed_base, args.duration)
        title = f"{'x'.join(experiments)} x {seeds} seeds (base {args.seed_base})"
    elif args.mode == "sensitivity":
        jobs = sensitivity_jobs(
            listed("--scales", args.scales, float) or DEFAULT_SCALES,
            seeds=max(1, seeds // 2),
            seed_base=args.seed_base,
            duration_us=args.duration,
        )
        title = "cost-constant grid + mechanism knockouts"
    elif args.mode == "cluster":
        nodes = listed("--nodes", args.nodes, int) or DEFAULT_NODE_GRID
        jobs = cluster_jobs(nodes, seed=args.seed_base, duration_us=args.duration)
        title = (
            "cluster scale-out: nodes x scenarios "
            f"(grid {','.join(map(str, nodes))})"
        )
    elif args.mode == "transport":
        try:
            jobs = transport_jobs(
                listed("--transports", args.transports),
                seed=args.seed_base,
                duration_us=args.duration,
            )
        except ValueError as exc:
            parser.error(str(exc))
        title = "media transport matrix: offload-vs-host + chaos per transport"
    else:
        jobs = scenario_jobs(seed=args.seed_base, duration_us=args.duration)
        title = "chaos + failover + cluster campaign matrix"

    workers = args.jobs if args.jobs is not None else usable_cores()
    t0 = time.perf_counter()
    cells = [(j.experiment, j.seed, j.duration_us, j.config) for j in jobs]
    outcomes = [
        JobOutcome(job, *out) for job, out in zip(jobs, run_cells(cells, workers))
    ]
    report = SweepReport(outcomes, time.perf_counter() - t0, workers)

    if args.mode == "replicate":
        merged = merge_replicate(report, title)
    else:
        merged = merge_matrix(report, f"Sweep: {args.mode}", title)

    print(merged.render())
    if args.out and args.out != "none":
        written = write_sweep_artifacts(args.out, merged, report, argv)
        print(f"wrote {', '.join(written)}")
    print(report.summary_line())

    for outcome in report.failed:
        print(f"FAILED {outcome.job.label}: {outcome.error}", file=sys.stderr)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
