"""The observe runner: the Figure 9 workload replayed fully instrumented.

Both scheduler placements (host-resident and NI-resident) are rerun with an
:class:`~repro.obs.ObservabilityPlane` installed before the clock starts, so
every datapath hop — disk read, UFS/dosFs block read, bridge transfer, DMA,
scheduler queue, dispatch, firmware, protocol stack, wire — emits spans into
one ring and counters into one registry. The result renders the per-hop
latency-breakdown tables and a representative (median) frame's critical
path for each configuration side by side, and writes the full artifact set
(Perfetto trace JSON, raw JSONL ring, breakdown CSV, metrics snapshot) to
``out/observe/``.

Determinism contract: same seed ⇒ byte-identical stdout and artifacts. The
plane adds no simulated time, so the instrumented run's delivered bytes and
scheduler decisions match the uninstrumented Figure 9 run exactly.

    python -m repro.experiments observe --seed 42
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs import (
    OBSERVE_SLOS,
    LatencyBreakdown,
    ObservabilityPlane,
    evaluate,
    render_slo_report,
    write_observe_artifacts,
    write_slo_report,
)

from .calibration import SIM_DURATION_US
from .figures import LoadedRun, run_loading_experiment
from .report import ExperimentResult

__all__ = ["ObservedRun", "run_observed", "observe", "DEFAULT_OUT_DIR"]

#: where the artifact set lands unless the caller overrides it
DEFAULT_OUT_DIR = os.path.join("out", "observe")


@dataclass
class ObservedRun:
    """One instrumented loading run plus its folded breakdown."""

    kind: str
    run: LoadedRun
    plane: ObservabilityPlane
    breakdown: LatencyBreakdown


def run_observed(
    kind: str,
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    capacity: int = 2_000_000,
) -> ObservedRun:
    """Replay one Figure-9 cell (load level 'none') with the plane attached.

    The plane rides :func:`run_loading_experiment`'s ``chaos`` hook — the
    one call site that sees the assembled topology before the clock starts
    — and additionally hands its tracer to the DWCS scheduler, which holds
    no environment reference and so cannot discover ``env.obs`` itself.
    """
    holder: dict[str, ObservabilityPlane] = {}

    def install(env, service, **_ignored) -> None:
        plane = ObservabilityPlane(env, capacity=capacity).install()
        service.engine.scheduler.tracer = plane.tracer
        holder["plane"] = plane

    run = run_loading_experiment(
        kind, "none", duration_us=duration_us, seed=seed, chaos=install
    )
    plane = holder["plane"]
    breakdown = LatencyBreakdown(plane.span_events(), label=kind)
    return ObservedRun(kind=kind, run=run, plane=plane, breakdown=breakdown)


def observe(
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    out_dir: Optional[str] = DEFAULT_OUT_DIR,
    kinds: Sequence[str] = ("host", "ni"),
) -> ExperimentResult:
    """Run the instrumented host and NI configurations and tabulate them."""
    result = ExperimentResult(
        exp_id="Observe",
        title=f"Instrumented Figure 9 replay: frame-latency breakdown (seed {seed})",
    )
    observed = [
        run_observed(kind, duration_us=duration_us, seed=seed) for kind in kinds
    ]
    for orun in observed:
        kind, bd, tracer = orun.kind, orun.breakdown, orun.plane.tracer
        result.add_row(f"{kind}: trace events emitted", float(tracer.emitted))
        result.add_row(
            f"{kind}: trace events discarded",
            float(tracer.discarded),
            note="ring evictions; 0 means the full run fit",
        )
        result.add_row(f"{kind}: spans completed", float(len(bd.spans)))
        result.add_row(
            f"{kind}: spans unfinished",
            float(bd.unfinished),
            note="open at end of run (frames still in flight)",
        )
        result.add_row(f"{kind}: metric series", float(len(orun.plane.registry)))
        result.add_row(f"{kind}: datapath hops observed", float(len(bd.hops())))
        for sid in bd.streams():
            result.add_row(
                f"{kind}: {sid} frames dispatched",
                orun.plane.registry.value("engine.frames_dispatched", stream=sid),
            )
            path = bd.median_path(sid)
            if path is None:
                continue
            result.add_row(
                f"{kind}: {sid} median frame end-to-end",
                path.end_to_end_us / 1000.0,
                unit="ms",
            )
            result.add_row(
                f"{kind}: {sid} median frame unattributed",
                path.unattributed_us / 1000.0,
                unit="ms",
                note="e2e minus union span coverage: queueing no hop claims",
            )

    # the per-hop tables and a representative critical path per stream,
    # host and NI side by side — the issue's headline deliverable
    for orun in observed:
        result.notes.append(orun.breakdown.render_table())
        for sid in orun.breakdown.streams():
            result.notes.append(orun.breakdown.render_critical_path(sid))

    # event-queue structural gauges published only now — the digested
    # "metric series" rows above count the registry before these land
    for orun in observed:
        orun.plane.publish_queue_stats()
    slo_reports = [
        evaluate(
            OBSERVE_SLOS,
            registry=orun.plane.registry,
            tracer=orun.plane.tracer,
            title=f"observe:{orun.kind}",
        )
        for orun in observed
    ]

    if out_dir is not None:
        written = write_observe_artifacts(
            out_dir, [(orun.kind, orun.plane, orun.breakdown) for orun in observed]
        )
        slo_txt = os.path.join(out_dir, "SLO_report.txt")
        with open(slo_txt, "w", encoding="utf-8") as fh:
            fh.write(render_slo_report(*slo_reports))
        written.append(slo_txt)
        written.append(
            write_slo_report(os.path.join(out_dir, "SLO_report.json"), *slo_reports)
        )
        names = ", ".join(sorted(os.path.basename(p) for p in written))
        result.notes.append(f"artifacts in {out_dir}: {names}")
    result.notes.append(
        "deterministic: identical seed => identical stdout and artifacts "
        "(instrumentation adds no simulated time)"
    )
    for orun in observed:
        result.add_tracer_footer(orun.kind, orun.plane.tracer)
    result.footers.append(render_slo_report(*slo_reports).rstrip("\n"))
    return result
