"""The cluster experiment: node loss under load behind the front door.

Beyond the paper's single-box measurements: N server nodes (each the
Figure-9 host + NI configuration, doubled up with the PR-2 HA plane)
behind the fault-tolerant admission front door of :mod:`repro.cluster`,
replayed against the node-scale chaos campaigns of
:mod:`repro.cluster.scenarios`:

* ``baseline``  — no faults; every node serves its Figure-9-shaped load,
* ``node-crash`` — one node's cards all die; the front door must detect
  inside the 800 ms budget and re-admit or park every ledgered stream,
* ``fd-partition`` — the control link to one node goes black; classify
  partitioned, stop new placements, migrate nothing,
* ``brownout``  — a slow node: lossy control path, 20x slower disks.

Reported per scenario: per-stream settled bandwidth, the recovery
milestones (detection latency, MTTR), the ledger census (placed /
degraded / parked / lost / **unaccounted** — the last must be zero), the
per-node placement spread, and the control-RPC telemetry (retries,
timeouts, duplicate deliveries absorbed, rescinds). A static
placement-policy comparison table shows how the three policies spread
the same stream population.

Runs are deterministic given a seed — byte-identical rows across
repeats and across ``--jobs`` fan-out — which is what CI's
``determinism`` job diffs.

    python -m repro.experiments cluster --seed 42
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster import (
    CLUSTER_SCENARIOS,
    POLICIES,
    ClusterPlane,
    NodeView,
    make_policy,
)
from repro.core.attributes import StreamSpec
from repro.faults import FaultPlane
from repro.faults.scenarios import ChaosScenario, resolve_scenario
from repro.obs import (
    CLUSTER_CATEGORIES,
    ObservabilityPlane,
    SLOReport,
    cluster_slos,
    evaluate,
    render_chrome_trace,
    render_metrics_snapshot,
    render_slo_report,
    write_slo_report,
)
from repro.sim import Environment, RandomStreams

from .calibration import (
    NI_INJECT_GAP_US,
    PREBUFFER_FRAMES,
    SIM_DURATION_US,
    figure_mpeg_file,
    run_frames,
)
from .figures import STREAM_SERVICE_TIME_US, add_control_rows
from .report import ExperimentResult

__all__ = ["ClusterRun", "run_cluster_scenario", "cluster", "cluster_stream_specs"]

#: fraction of the run at which the late admission wave arrives — inside
#: every fault window, so backpressure is exercised while degraded
LATE_WAVE_FRAC = 0.55

#: where the cluster artifact set (Perfetto traces, metrics snapshots,
#: SLO_report) lands unless the caller overrides it; digest paths pass None
DEFAULT_OUT_DIR = os.path.join("out", "cluster")

#: control-plane spans + instants only (CLUSTER_CATEGORIES filters the
#: per-frame datapath out at the begin() predicate), so this bound holds
#: the full-duration run with plenty of slack — the trace-complete SLO
#: proves it stayed unevicted
TRACE_CAPACITY = 200_000


def cluster_stream_specs(n_nodes: int) -> list[StreamSpec]:
    """The initial stream population: two Figure-9-shaped streams per
    node, grouped by content title (``g<k>-s<j>`` shares group ``g<k>``,
    which is what the locality policy keys on)."""
    return [
        StreamSpec(f"g{k}-s{j}", period_us=333_333.0, loss_x=1, loss_y=2)
        for k in range(n_nodes)
        for j in (1, 2)
    ]


def _late_wave_specs() -> list[StreamSpec]:
    return [
        StreamSpec(f"late-s{j}", period_us=333_333.0, loss_x=1, loss_y=2)
        for j in (1, 2)
    ]


@dataclass
class ClusterRun:
    """One cluster scenario's outcome."""

    scenario: ChaosScenario
    plane: ClusterPlane
    fault_plane: FaultPlane
    duration_us: float
    specs: list[StreamSpec] = field(default_factory=list)
    #: the observability plane of an instrumented run (None when the run
    #: was deliberately uninstrumented — the bit-identity tests compare)
    obs: Optional[ObservabilityPlane] = None
    #: the evaluated cluster budgets (None when uninstrumented)
    slo: Optional[SLOReport] = None

    @property
    def frontdoor(self):
        return self.plane.frontdoor

    @property
    def meter(self):
        return self.plane.meter

    @property
    def violations(self) -> int:
        return self.plane.total_violations

    @property
    def injected(self) -> int:
        return self.fault_plane.total_injected

    def settled_bandwidth(self, stream_id: str, window=(0.7, 0.95)) -> float:
        """Delivered bps on the stream's *current* node over a late
        window (post-recovery for every scenario); 0.0 when parked."""
        service = self.plane.service_of(stream_id)
        if service is None:
            return 0.0
        return service.reception(stream_id).mean_bandwidth_bps(
            window[0] * self.duration_us, window[1] * self.duration_us
        )


def run_cluster_scenario(
    name: str,
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    n_nodes: int = 3,
    instrument: bool = True,
) -> ClusterRun:
    """Replay one node-scale chaos campaign against a full cluster.

    ``instrument`` (the default) installs an
    :class:`~repro.obs.ObservabilityPlane` filtered to the control-plane
    categories before the clock starts, so the whole admit → place →
    crash → migrate story lands on stitched trace tracks and the cluster
    SLO set gets evaluated at end of run. Instrumentation spends no
    simulated time: an ``instrument=False`` run is bit-identical.
    """
    scenario = resolve_scenario(name, CLUSTER_SCENARIOS, kind="cluster")
    env = Environment()
    obs = None
    if instrument:
        obs = ObservabilityPlane(
            env, capacity=TRACE_CAPACITY, categories=CLUSTER_CATEGORIES
        ).install()
    rng = RandomStreams(seed + 3000)
    plane = ClusterPlane(env, n_nodes=n_nodes, rng=rng)
    fault_plane = FaultPlane(env, seed=seed + 2000)
    specs = cluster_stream_specs(n_nodes)
    late = _late_wave_specs()
    n_frames = run_frames(duration_us)
    files = {
        spec.stream_id: figure_mpeg_file(spec.stream_id, seed=seed + i, n_frames=n_frames)
        for i, spec in enumerate(specs + late)
    }

    def admit_wave(wave: list[StreamSpec]):
        def proc():
            for spec in wave:
                yield from plane.frontdoor.admit_stream(
                    spec,
                    STREAM_SERVICE_TIME_US,
                    files[spec.stream_id],
                    inject_gap_us=NI_INJECT_GAP_US,
                    prebuffer_frames=PREBUFFER_FRAMES,
                )
        return proc

    env.process(admit_wave(specs)(), name="cluster.admit:initial")
    env.schedule_callback(
        LATE_WAVE_FRAC * duration_us,
        lambda: env.process(admit_wave(late)(), name="cluster.admit:late"),
        name="cluster.admit:late-wave",
    )
    scenario.install(fault_plane, plane, duration_us)
    env.run(until=duration_us)
    # the ledger self-check: incremental counters must equal a recount
    plane.ledger.check()
    slo_report = None
    if obs is not None:
        obs.publish_queue_stats()
        plane.publish_metrics()
        slo_report = evaluate(
            cluster_slos(name),
            registry=obs.registry,
            tracer=obs.tracer,
            title=f"cluster:{name}",
        )
    return ClusterRun(
        scenario=scenario,
        plane=plane,
        fault_plane=fault_plane,
        duration_us=duration_us,
        specs=specs + late,
        obs=obs,
        slo=slo_report,
    )


def _policy_comparison_rows(result: ExperimentResult, n_nodes: int) -> None:
    """Static placement spread of each policy over equal empty nodes.

    Pure function of the policy — no simulation — so the table isolates
    *where* each policy sends the same stream population before load or
    faults skew anything."""
    views = [
        NodeView(index=i, name=f"cluster.n{i}", headroom=2.0, streams=0)
        for i in range(n_nodes)
    ]
    stream_ids = [spec.stream_id for spec in cluster_stream_specs(n_nodes)]
    for name in sorted(POLICIES):
        policy = make_policy(name)
        first_choice = {sid: policy.order(sid, views)[0] for sid in stream_ids}
        spread = len(set(first_choice.values()))
        placing = " ".join(f"{sid}->n{first_choice[sid]}" for sid in stream_ids)
        result.add_row(
            f"policy {name}: first-choice spread",
            float(spread),
            note=placing,
        )


def cluster(
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    scenarios: Optional[list[str]] = None,
    n_nodes: int = 3,
    out_dir: Optional[str] = DEFAULT_OUT_DIR,
) -> ExperimentResult:
    """Run every cluster campaign and tabulate recovery + accounting."""
    result = ExperimentResult(
        exp_id="Cluster",
        title=(
            f"cluster front door: {n_nodes} nodes, policy least-loaded, "
            f"node-loss chaos (seed {seed})"
        ),
    )

    # -- control: the single-node Figure 9 path, untouched ------------------
    add_control_rows(
        result, duration_us, seed, "plain single-node Figure 9 run (per-node reference)"
    )

    _policy_comparison_rows(result, n_nodes)

    names = scenarios if scenarios is not None else list(CLUSTER_SCENARIOS)
    runs: list[ClusterRun] = []
    for name in names:
        run = run_cluster_scenario(
            name, duration_us=duration_us, seed=seed, n_nodes=n_nodes
        )
        runs.append(run)
        fd = run.frontdoor
        for spec in run.specs:
            sid = spec.stream_id
            entry = run.plane.ledger.entry(sid)
            state = entry.state if entry is not None else "absent"
            result.add_row(
                f"{name}: {sid} settled bandwidth",
                run.settled_bandwidth(sid),
                unit="bps",
                note=(run.scenario.description if spec is run.specs[0] else state),
            )
        for label, value, unit, note in run.meter.rows(run.violations):
            result.add_row(f"{name}: {label}", value, unit=unit, note=note)
        for label, value in sorted(run.plane.account().items()):
            result.add_row(f"{name}: ledger {label}", float(value))
        for node in run.plane.nodes:
            result.add_row(
                f"{name}: {node.name} streams placed",
                float(run.plane.ledger.placed_count(node.name)),
            )
        result.add_row(f"{name}: violations (total)", float(run.violations))
        result.add_row(f"{name}: faults injected", float(run.injected))
        for key, value in run.plane.rpc.telemetry().items():
            result.add_row(f"{name}: rpc {key}", float(value))
        result.add_row(
            f"{name}: rpc dups absorbed",
            float(sum(node.dup_suppressed for node in run.plane.nodes)),
        )
        result.add_row(f"{name}: ambiguous admits", float(fd.ambiguous_admits))
        result.add_row(f"{name}: rescind parks", float(fd.rescind_parks))
        result.add_row(
            f"{name}: breaker opens",
            float(sum(b.opens for b in fd.breakers)),
        )
    result.notes.append(
        "zero unaccounted: every stream ends placed, parked, or lost — "
        "'streams unaccounted' rows must read 0"
    )
    result.notes.append(
        "at-most-once placement: an admit whose every retry timed out is "
        "rescinded before any other node is tried; unresolvable rescinds park"
    )
    result.notes.append(
        "deterministic: identical seed => identical placement, detection, "
        "and accounting rows (byte-identical across --jobs fan-out)"
    )

    # -- observability footers + artifact set (NOT part of the digest) -------
    reports = [run.slo for run in runs if run.slo is not None]
    for run in runs:
        if run.obs is not None:
            result.add_tracer_footer(run.scenario.name, run.obs.tracer)
    if reports:
        result.footers.append(render_slo_report(*reports).rstrip("\n"))
    if out_dir is not None and runs and runs[0].obs is not None:
        os.makedirs(out_dir, exist_ok=True)
        written = []
        for run in runs:
            label = run.scenario.name
            trace_path = os.path.join(out_dir, f"trace_{label}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write(render_chrome_trace(run.obs.tracer, label=label))
            written.append(trace_path)
            metrics_path = os.path.join(out_dir, f"metrics_{label}.json")
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write(render_metrics_snapshot(run.obs.registry))
            written.append(metrics_path)
        slo_txt = os.path.join(out_dir, "SLO_report.txt")
        with open(slo_txt, "w", encoding="utf-8") as fh:
            fh.write(render_slo_report(*reports))
        written.append(slo_txt)
        written.append(write_slo_report(os.path.join(out_dir, "SLO_report.json"), *reports))
        names_note = ", ".join(sorted(os.path.basename(p) for p in written))
        result.footers.append(f"artifacts in {out_dir}: {names_note}")
    return result
