"""Replicated runs of the experiment CLI: cells, outcomes, merge, artifacts.

``python -m repro.experiments`` with ``--seeds`` or ``--set`` plans one
:class:`Job` per replica, runs them through
:func:`repro.experiments.golden.run_cells` and merges the replicas with
:func:`merge_replicate`. Two artifacts land in its ``--out`` directory:

* ``SWEEP_result.txt`` — the merged :class:`ExperimentResult` rendering
  plus its golden digest. Deterministic: byte-identical across runs and
  worker counts (CI diffs a 1-worker and a 2-worker run).
* ``SWEEP_report.json`` — the argv and execution telemetry (wall clock,
  per-job compute seconds, the serial estimate and speedup). Volatile by
  nature; never diffed.

The single summary line printed last (jobs, failures, wall, est.
speedup) is the CI-log breadcrumb.

    python -m repro.experiments figure9 chaos failover observe --seeds 5 --out out/sweep
    python -m repro.experiments cluster --scenarios baseline --set n_nodes=2,3,4
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from .golden import result_digest
from .report import ExperimentResult

__all__ = [
    "Job",
    "JobOutcome",
    "SweepReport",
    "merge_replicate",
    "write_sweep_artifacts",
]


# -- cells and outcomes ------------------------------------------------------


@dataclass
class Job:
    """One cell of the experiment CLI: a ``REGISTRY`` id at one seed, with
    an optional duration and keyword overrides for its runner (checked by
    :func:`repro.experiments.golden.compute_result`). A seed of ``None``
    leaves the runner's own default in place."""

    experiment: str
    seed: Optional[int] = 42
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


def merge_replicate(
    report: SweepReport, title: str, axis: Optional[str] = None
) -> ExperimentResult:
    """Mean ± 95 % CI per row label across each group's seed replicas.

    A group is one experiment id or, with *axis* (a ``--set`` key), one
    id at one value of that key. Deterministic and order-independent:
    outcomes arrive in input job order regardless of completion order,
    values are reduced with plain float arithmetic, and failed replicas
    are excluded (and recorded in the notes) rather than poisoning the
    mean.
    """
    merged = ExperimentResult(exp_id="Sweep: replicate", title=title)
    groups: dict[str, list] = {}
    for o in report.outcomes:
        group = o.job.experiment
        if axis is not None:
            group += f" {axis}={o.job.config[axis]!r}"
        replicas = groups.setdefault(group, [])
        if o.ok:
            replicas.append(o.result)
    for group, results in groups.items():
        if not results:
            merged.notes.append(f"{group}: every replica failed")
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
                f"{group}: {row.label}",
                mean,
                unit=row.unit,
                paper=row.paper,
                note=f"mean of {n} seeds, 95% CI +/-{ci:.6g}",
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
