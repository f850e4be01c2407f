"""The chaos harness: Figure 9 under injected faults.

Beyond the paper: the NI configuration's robustness plane under fire. Each
named scenario from :mod:`repro.faults.scenarios` is replayed against the
Figure-9 architecture (NI-based DWCS, no web load) with a seeded
:class:`~repro.faults.FaultPlane`, and the run is scored on

* **steady bandwidth** per stream before the fault (the Figure 9 value),
* **dip** — the worst binned delivery rate inside the fault window,
* **recovery time** — from fault clearance until delivery is back within
  90% of the pre-fault rate,
* DWCS violation/drop counts and the plane's injection tally.

Runs are deterministic given a seed: the plane draws from its own named
substreams, so the same seed replays byte-identical fault timings, and the
``baseline`` scenario (a plane with no windows) must reproduce the
plane-less Figure 9 run exactly.

    python -m repro.experiments chaos --seed 42
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults import ChaosScenario, FaultPlane, SCENARIOS, resolve_scenario
from repro.obs import CHAOS_SLOS, MetricsRegistry, SLOReport, evaluate, render_slo_report
from repro.sim import S

from .calibration import SIM_DURATION_US
from .figures import LoadedRun, run_loading_experiment
from .report import ExperimentResult

__all__ = ["ChaosRun", "run_chaos_scenario", "chaos", "CHAOS_BIN_US"]

#: bandwidth is scored in bins of this width (2 simulated seconds)
CHAOS_BIN_US = 2 * S

#: delivery counts as recovered once a bin reaches this fraction of the
#: pre-fault rate
RECOVERY_FRACTION = 0.9


@dataclass
class ChaosRun:
    """One scenario's scored outcome."""

    scenario: ChaosScenario
    run: LoadedRun
    plane: FaultPlane
    fault_start_us: float
    fault_end_us: float
    #: per-stream pre-fault delivery rate (bps)
    ref_bps: dict[str, float]
    #: per-stream worst binned rate inside the fault window (bps)
    dip_bps: dict[str, float]
    #: per-stream time from fault clearance to recovery (µs); None when
    #: the stream never got back to RECOVERY_FRACTION of ref by run end
    recovery_us: dict[str, Optional[float]]

    @property
    def violations(self) -> int:
        return self.run.service.engine.scheduler.stats.violations

    @property
    def dropped(self) -> int:
        return self.run.service.engine.scheduler.stats.dropped

    @property
    def injected(self) -> int:
        return self.plane.total_injected

    def slo_report(self) -> SLOReport:
        """Evaluate the chaos budgets: faults actually fired inside the
        window, and every stream still delivers once the dust settles."""
        reg = MetricsRegistry()
        reg.gauge(
            "chaos.fault_windows",
            1.0 if self.fault_end_us > self.fault_start_us else 0.0,
        )
        reg.gauge("chaos.faults_injected", float(self.injected))
        if self.ref_bps:
            reg.gauge(
                "chaos.min_settled_bps",
                min(self.run.settled_bandwidth(sid) for sid in sorted(self.ref_bps)),
            )
        return evaluate(CHAOS_SLOS, registry=reg, title=f"chaos:{self.scenario.name}")


def _binned_bps(run: LoadedRun, stream_id: str, start_us: float, end_us: float):
    """(bin_end_us, mean_bps) per CHAOS_BIN_US bin over [start, end).

    A window shorter than one bin still yields a single partial bin, so
    short fault windows (scaled-down test runs) are scored rather than
    silently skipped.
    """
    rec = run.service.reception(stream_id)
    out = []
    t = start_us
    while t + CHAOS_BIN_US <= end_us:
        out.append((t + CHAOS_BIN_US, rec.mean_bandwidth_bps(t, t + CHAOS_BIN_US)))
        t += CHAOS_BIN_US
    if not out and end_us > start_us:
        out.append((end_us, rec.mean_bandwidth_bps(start_us, end_us)))
    return out


def run_chaos_scenario(
    name: str,
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    transport: str = "udp",
) -> ChaosRun:
    """Replay one named scenario against the Figure-9 configuration.

    ``transport`` selects the media wire path; every scenario runs
    unmodified over any of them (link loss and partitions hit the switch,
    msg-drop/dup hit whichever stack owns the serving port's name)."""
    scenario = resolve_scenario(name, SCENARIOS, kind="chaos")
    fault_start_us, fault_end_us = scenario.fault_window_us(duration_us)
    holder: dict[str, FaultPlane] = {}

    def install(env, service, duration_us, **_ignored) -> None:
        plane = FaultPlane(env, seed=seed + 1000)
        scenario.install(plane, service, duration_us)
        holder["plane"] = plane

    run = run_loading_experiment(
        "ni",
        "none",
        duration_us=duration_us,
        seed=seed,
        chaos=install,
        transport=transport,
    )
    plane = holder["plane"]

    ref_bps: dict[str, float] = {}
    dip_bps: dict[str, float] = {}
    recovery_us: dict[str, Optional[float]] = {}
    for sid in sorted(run.service.engine.scheduler.queues):
        rec = run.service.reception(sid)
        warmup_us = 0.2 * duration_us
        ref = rec.mean_bandwidth_bps(warmup_us, max(fault_start_us, warmup_us + CHAOS_BIN_US))
        ref_bps[sid] = ref
        fault_bins = _binned_bps(run, sid, fault_start_us, fault_end_us)
        dip_bps[sid] = min((bps for _t, bps in fault_bins), default=ref)
        if fault_start_us == fault_end_us:
            recovery_us[sid] = 0.0  # no fault window: nothing to recover from
        else:
            recovery_us[sid] = None
            for bin_end, bps in _binned_bps(run, sid, fault_end_us, duration_us):
                if bps >= RECOVERY_FRACTION * ref:
                    recovery_us[sid] = bin_end - fault_end_us
                    break
    return ChaosRun(
        scenario=scenario,
        run=run,
        plane=plane,
        fault_start_us=fault_start_us,
        fault_end_us=fault_end_us,
        ref_bps=ref_bps,
        dip_bps=dip_bps,
        recovery_us=recovery_us,
    )


def chaos(
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    scenarios: Optional[list[str]] = None,
    transport: str = "udp",
) -> ExperimentResult:
    """Run every named chaos scenario and tabulate the robustness scores.

    With a non-default ``transport`` each scenario also audits the
    zero-leak ledger (unaccounted records must be 0) and reports the
    transport's retransmission work; the default output stays
    byte-identical to the historical raw-UDP run."""
    result = ExperimentResult(
        exp_id="Chaos",
        title=f"Fault injection against the NI configuration (seed {seed})",
    )
    names = scenarios if scenarios is not None else list(SCENARIOS)
    slo_reports = []
    for name in names:
        cr = run_chaos_scenario(
            name, duration_us=duration_us, seed=seed, transport=transport
        )
        slo_reports.append(cr.slo_report())
        for sid in sorted(cr.ref_bps):
            result.add_row(
                f"{name}: {sid} pre-fault bandwidth",
                cr.ref_bps[sid],
                unit="bps",
                note=cr.scenario.description if sid == min(cr.ref_bps) else "",
            )
            result.add_row(f"{name}: {sid} worst dip", cr.dip_bps[sid], unit="bps")
            rec_us = cr.recovery_us[sid]
            result.add_row(
                f"{name}: {sid} recovery time",
                -1.0 if rec_us is None else rec_us / 1000.0,
                unit="ms",
                note="never recovered" if rec_us is None else "",
            )
            series = cr.run.bandwidth_series(sid)
            series.name = f"{name}:{sid}:bw"
            result.series.append(series)
        result.add_row(f"{name}: violations", float(cr.violations))
        result.add_row(f"{name}: drops", float(cr.dropped))
        result.add_row(f"{name}: faults injected", float(cr.injected))
        books = cr.run.service.books
        if books is not None:
            for label, value, note in books.rows():
                result.add_row(f"{name}: transport {label}", value, note=note)
    if transport != "udp":
        result.notes.append(f"media wire path: transport={transport}")
    result.notes.append(
        f"fault windows per scenario: "
        + ", ".join(
            f"{n}=[{SCENARIOS[n].start_frac:.2f},{SCENARIOS[n].end_frac:.2f}]xT"
            for n in names
        )
    )
    result.notes.append(
        "deterministic: identical seed => identical rows (plane draws from "
        "named substreams only while a fault window is active)"
    )
    result.footers.append(render_slo_report(*slo_reports).rstrip("\n"))
    return result
