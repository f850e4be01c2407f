"""The failover experiment: NI card death under the HA plane.

Beyond the paper: the multi-card HA service of
:mod:`repro.server.failover` replayed against the failover fault
campaigns of :mod:`repro.faults.scenarios` — a permanent card crash
(detect → migrate → resume), a heartbeat partition (classify, do NOT
migrate), and a card flap inside the detection budget (ride it out).

Reported per scenario:

* per-stream delivered bandwidth before the fault and after recovery,
* **detection latency** — crash instant to the watchdog's dead
  declaration (must sit inside the heartbeat budget
  K·interval + grace),
* **MTTR** — crash instant to the last stream restored on its new card,
* the migration order, degraded/parked streams, post-fault violations,
  and the fault plane's injection tally.

The ``control`` block is a plain single-card Figure 9 run — literally the
same code path as ``figure9`` — so the no-fault baseline's byte-identity
to Figure 9 holds by construction and is asserted by the test suite.

Runs are deterministic given a seed: same seed ⇒ identical migration
order, detection time, and violation counts.

    python -m repro.experiments failover --seed 42
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults import FAILOVER_SCENARIOS, ChaosScenario, FaultPlane, resolve_scenario
from repro.hw.ethernet import EthernetSwitch
from repro.obs import FAILOVER_SLOS, MetricsRegistry, SLOReport, evaluate, render_slo_report
from repro.server.failover import HAStreamingService
from repro.server.node import ServerNode
from repro.sim import Environment

from .calibration import SIM_DURATION_US
from .figures import add_control_rows, start_figure_streams
from .report import ExperimentResult

__all__ = ["FailoverRun", "run_failover_scenario", "failover"]


@dataclass
class FailoverRun:
    """One failover scenario's outcome."""

    scenario: ChaosScenario
    service: HAStreamingService
    plane: FaultPlane
    duration_us: float

    @property
    def meter(self):
        return self.service.meter

    @property
    def violations(self) -> int:
        return self.service.total_violations

    @property
    def injected(self) -> int:
        return self.plane.total_injected

    def delivered_bps(self, stream_id: str, start_frac: float, end_frac: float) -> float:
        rec = self.service.reception(stream_id)
        return rec.mean_bandwidth_bps(
            start_frac * self.duration_us, end_frac * self.duration_us
        )

    def slo_report(self) -> SLOReport:
        """Evaluate the failover budgets for this run.

        The recovery milestones become a small metrics registry;
        ``card_lost`` (a card still crashed at end of run) is the ground
        truth that decides whether the detection/MTTR budgets apply — a
        ridden-out flap skips them, a permanent crash must measure them.
        """
        reg = MetricsRegistry()
        meter = self.meter
        reg.gauge("failover.fault_marked", 0.0 if meter.fault_at_us is None else 1.0)
        reg.gauge("failover.recovered", 0.0 if meter.recovered_at_us is None else 1.0)
        det = meter.detection_latency_us
        if det is not None:
            reg.gauge("failover.detection_ms", det / 1000.0)
        mttr = meter.mttr_us
        if mttr is not None:
            reg.gauge("failover.mttr_ms", mttr / 1000.0)
        reg.gauge("failover.migrated", float(len(meter.migrated)))
        reg.gauge("failover.partitions", float(meter.partitions))
        reg.gauge(
            "failover.frames_lost",
            float(
                self.service.frames_lost_to_crash
                + self.service.frames_lost_in_migration
            ),
        )
        card_lost = any(rt.card.crashed for rt in self.service.runtimes)
        return evaluate(
            FAILOVER_SLOS,
            registry=reg,
            values={"card_lost": 1.0 if card_lost else 0.0},
            title=f"failover:{self.scenario.name}",
        )


def run_failover_scenario(
    name: str,
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    transport: str = "udp",
) -> FailoverRun:
    """Replay one failover campaign against the HA service."""
    scenario = resolve_scenario(name, FAILOVER_SCENARIOS, kind="failover")
    env = Environment()
    # Figure 9's host configuration ("one CPU is brought off-line"), with a
    # second scheduler card as the failover target.
    node = ServerNode(env, n_cpus=1, n_pci_segments=2)
    switch = EthernetSwitch(env)
    service = HAStreamingService(env, node, switch, transport=transport)
    start_figure_streams(service, "ni", seed, duration_us)
    plane = FaultPlane(env, seed=seed + 2000)
    scenario.install(plane, service, duration_us)
    env.run(until=duration_us)
    return FailoverRun(
        scenario=scenario, service=service, plane=plane, duration_us=duration_us
    )


def failover(
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    scenarios: Optional[list[str]] = None,
    transport: str = "udp",
) -> ExperimentResult:
    """Run every failover campaign and tabulate recovery metrics."""
    result = ExperimentResult(
        exp_id="Failover",
        title=f"NI failover: detection, migration, recovery (seed {seed})",
    )

    # -- control: the single-card Figure 9 path, untouched ------------------
    add_control_rows(
        result, duration_us, seed, "plain Figure 9 run (no HA plane, no faults)",
        transport=transport,
    )

    names = scenarios if scenarios is not None else list(FAILOVER_SCENARIOS)
    slo_reports = []
    for name in names:
        fr = run_failover_scenario(
            name, duration_us=duration_us, seed=seed, transport=transport
        )
        slo_reports.append(fr.slo_report())
        scenario = fr.scenario
        pre_end = min(scenario.start_frac, 0.4)
        for sid in sorted(fr.service._spec_of):
            result.add_row(
                f"{name}: {sid} pre-fault bandwidth",
                fr.delivered_bps(sid, 0.2, max(pre_end, 0.21)),
                unit="bps",
                note=scenario.description if sid == min(fr.service._spec_of) else "",
            )
            result.add_row(
                f"{name}: {sid} post-fault bandwidth",
                fr.delivered_bps(sid, 0.7, 0.95),
                unit="bps",
            )
        for label, value, unit, note in fr.meter.rows(fr.violations):
            result.add_row(f"{name}: {label}", value, unit=unit, note=note)
        result.add_row(f"{name}: violations (total)", float(fr.violations))
        result.add_row(f"{name}: B-frames shed", float(fr.service.b_frames_shed))
        result.add_row(
            f"{name}: frames lost to crash",
            float(fr.service.frames_lost_to_crash + fr.service.frames_lost_in_migration),
        )
        result.add_row(f"{name}: faults injected", float(fr.injected))
        result.add_row(
            f"{name}: checkpoint bytes mirrored",
            float(sum(p.mirror.bytes_mirrored for p in fr.service.planes)),
            unit="B",
        )
        books = fr.service.books
        if books is not None:
            for label, value, note in books.rows():
                result.add_row(f"{name}: transport {label}", value, note=note)
    if transport != "udp":
        result.notes.append(f"media wire path: transport={transport}")
    result.notes.append(
        "detection budget = K·heartbeat interval + grace "
        "(card-crash detection latency must sit inside it)"
    )
    result.notes.append(
        "deterministic: identical seed => identical migration order, "
        "detection time, and violation counts"
    )
    result.footers.append(render_slo_report(*slo_reports).rstrip("\n"))
    return result
