"""Declarative SLO engine evaluated over the observability plane.

Every QoS budget this reproduction has accumulated — the 800 ms node-loss
detection bound, MTTR, *zero unaccounted streams*, the at-most-once
placement guarantee, QoS-violation ceilings — used to live as hand-rolled
assertions scattered through experiment runners and tests. This module
turns them into checked-in, machine-readable rules:

    SLO("detection-budget", metric("cluster.detection_ms"), "<", 800.0,
        unit="ms", description="node loss detected inside the budget")

An :class:`SLO` pairs a **selector** (where the measured value comes
from: a metric series, a sum over a metric's series, a tracer statistic,
or an explicit context value) with a **predicate** (comparison operator +
budget). :func:`evaluate` runs a rule set against an
:class:`SLOContext` — a metrics registry, an optional tracer, and any
extra values the runner supplies — and returns an :class:`SLOReport`
whose rendering is byte-deterministic (the ``SLO_report`` table the CI
``determinism`` job double-runs and diffs).

Verdicts:

* ``PASS`` / ``FAIL`` — the predicate held / did not hold;
* ``MISSING`` — the selector found nothing (counts as not-ok: a budget
  that cannot be measured is a broken budget, not a passing one);
* ``SKIPPED`` — the rule's ``when`` gate said the rule does not apply to
  this run (e.g. an MTTR budget on a fault-free baseline scenario).

The shipped rule sets (:data:`CLUSTER_SLOS`, :data:`OBSERVE_SLOS`,
:data:`FAILOVER_SLOS`, :data:`CHAOS_SLOS`) are what the cluster /
observe / failover / chaos runners consume; the per-scenario QoS ceilings
ride along in :data:`CLUSTER_VIOLATION_CEILING`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.trace import Tracer
    from .registry import MetricsRegistry

__all__ = [
    "SLO",
    "SLOContext",
    "SLOReport",
    "Verdict",
    "evaluate",
    "metric",
    "metric_sum",
    "tracer_stat",
    "value",
    "nonzero",
    "cluster_slos",
    "CLUSTER_SLOS",
    "CLUSTER_VIOLATION_CEILING",
    "CLUSTER_DETECTION_BUDGET_MS",
    "OBSERVE_SLOS",
    "FAILOVER_SLOS",
    "CHAOS_SLOS",
    "render_slo_report",
    "write_slo_report",
]

#: predicate vocabulary; kept tiny so a rule renders as plain arithmetic
OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda v, b: v < b,
    "<=": lambda v, b: v <= b,
    "==": lambda v, b: v == b,
    "!=": lambda v, b: v != b,
    ">=": lambda v, b: v >= b,
    ">": lambda v, b: v > b,
}


class SLOContext:
    """What a rule set is evaluated against.

    Parameters
    ----------
    registry:
        Metrics source for :func:`metric` / :func:`metric_sum` selectors.
    tracer:
        Source for :func:`tracer_stat` selectors (``None`` is fine — the
        selectors then report MISSING).
    values:
        Runner-supplied extras for :func:`value` selectors (derived
        quantities that never became metrics).
    """

    def __init__(
        self,
        registry: Optional["MetricsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
        values: Optional[dict[str, float]] = None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.values = dict(values or {})

    # -- lookups (None = not present, never an exception) --------------------
    def metric_value(self, name: str, **labels: Any) -> Optional[float]:
        if self.registry is None:
            return None
        m = self.registry.get(name, **labels)
        if m is None:
            return None
        snap = m.snapshot()
        if isinstance(snap, dict):  # histogram: budgets compare the count
            return float(snap["count"])
        return float(snap)

    def metric_sum(self, name: str) -> Optional[float]:
        if self.registry is None:
            return None
        return self.registry.total(name)

    def tracer_stat(self, attr: str) -> Optional[float]:
        if self.tracer is None:
            return None
        got = getattr(self.tracer, attr, None)
        return None if got is None else float(got)

    def value(self, key: str) -> Optional[float]:
        got = self.values.get(key)
        return None if got is None else float(got)


@dataclass(frozen=True)
class Selector:
    """Deterministic value source; ``source`` is its rendered description."""

    kind: str  # "metric" | "metric_sum" | "tracer" | "value"
    name: str
    labels: tuple[tuple[str, Any], ...] = ()

    @property
    def source(self) -> str:
        if self.kind == "metric" and self.labels:
            lbl = ",".join(f"{k}={v}" for k, v in self.labels)
            return f"metric {self.name}{{{lbl}}}"
        if self.kind == "metric":
            return f"metric {self.name}"
        if self.kind == "metric_sum":
            return f"sum(metric {self.name})"
        if self.kind == "tracer":
            return f"tracer.{self.name}"
        return f"value {self.name}"

    def __call__(self, ctx: SLOContext) -> Optional[float]:
        if self.kind == "metric":
            return ctx.metric_value(self.name, **dict(self.labels))
        if self.kind == "metric_sum":
            return ctx.metric_sum(self.name)
        if self.kind == "tracer":
            return ctx.tracer_stat(self.name)
        return ctx.value(self.name)


def metric(name: str, **labels: Any) -> Selector:
    """Select one metric series' value (counter/gauge; histogram → count)."""
    return Selector("metric", name, tuple(sorted(labels.items())))


def metric_sum(name: str) -> Selector:
    """Select the sum of every series of *name* (all label combinations)."""
    return Selector("metric_sum", name)


def tracer_stat(attr: str) -> Selector:
    """Select a tracer counter (``discarded``, ``unbalanced_ends``...)."""
    return Selector("tracer", attr)


def value(key: str) -> Selector:
    """Select a runner-supplied context value."""
    return Selector("value", key)


def nonzero(selector: Selector) -> Callable[[SLOContext], bool]:
    """``when`` gate: the rule applies only when *selector* is nonzero."""

    def gate(ctx: SLOContext) -> bool:
        got = selector(ctx)
        return got is not None and got != 0.0

    return gate


@dataclass(frozen=True)
class SLO:
    """One declarative budget: selector ∘ predicate ∘ bound."""

    name: str
    selector: Selector
    op: str
    bound: float
    unit: str = ""
    description: str = ""
    #: applicability gate — when it returns falsy the verdict is SKIPPED
    when: Optional[Callable[[SLOContext], bool]] = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown SLO op {self.op!r}; expected one of {sorted(OPS)}")


@dataclass(frozen=True)
class Verdict:
    """One evaluated rule."""

    slo: SLO
    status: str  # "PASS" | "FAIL" | "MISSING" | "SKIPPED"
    measured: Optional[float]

    @property
    def ok(self) -> bool:
        return self.status in ("PASS", "SKIPPED")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.slo.name,
            "source": self.slo.selector.source,
            "op": self.slo.op,
            "bound": self.slo.bound,
            "unit": self.slo.unit,
            "description": self.slo.description,
            "measured": self.measured,
            "status": self.status,
        }


@dataclass
class SLOReport:
    """Every verdict of one rule-set evaluation, in declaration order."""

    title: str
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def failed(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.ok]

    def counts(self) -> dict[str, int]:
        out = {"PASS": 0, "FAIL": 0, "MISSING": 0, "SKIPPED": 0}
        for v in self.verdicts:
            out[v.status] += 1
        return out

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.slo.name == name:
                return v
        raise KeyError(f"no SLO {name!r} in report {self.title!r}")

    def require(self, name: str) -> Verdict:
        """The verdict for *name*, raising if it did not hold — the call
        runners and tests use instead of hand-rolled threshold checks."""
        v = self.verdict(name)
        if not v.ok:
            raise AssertionError(
                f"SLO {name!r} {v.status}: measured "
                f"{'-' if v.measured is None else repr(v.measured)} "
                f"vs {v.slo.op} {v.slo.bound!r} {v.slo.unit}".rstrip()
            )
        return v

    def summary_line(self) -> str:
        c = self.counts()
        return (
            f"SLO {self.title}: {c['PASS']} pass, {c['FAIL']} fail, "
            f"{c['MISSING']} missing, {c['SKIPPED']} skipped"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "ok": self.ok,
            "counts": self.counts(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def evaluate(
    slos: list[SLO],
    registry: Optional["MetricsRegistry"] = None,
    tracer: Optional["Tracer"] = None,
    values: Optional[dict[str, float]] = None,
    title: str = "run",
) -> SLOReport:
    """Run *slos* against one context; verdicts keep declaration order."""
    ctx = SLOContext(registry=registry, tracer=tracer, values=values)
    report = SLOReport(title=title)
    for slo in slos:
        if slo.when is not None and not slo.when(ctx):
            report.verdicts.append(Verdict(slo, "SKIPPED", None))
            continue
        measured = slo.selector(ctx)
        if measured is None:
            report.verdicts.append(Verdict(slo, "MISSING", None))
            continue
        held = OPS[slo.op](measured, slo.bound)
        report.verdicts.append(Verdict(slo, "PASS" if held else "FAIL", measured))
    return report


# -- rendering ---------------------------------------------------------------


def _fmt(x: Optional[float]) -> str:
    return "-" if x is None else f"{x:.6g}"


def render_slo_report(*reports: SLOReport) -> str:
    """The deterministic ``SLO_report`` table (one block per report)."""
    lines: list[str] = []
    for report in reports:
        lines.append(f"== SLO_report: {report.title} ==")
        if report.verdicts:
            name_w = max(len(v.slo.name) for v in report.verdicts)
            src_w = max(len(v.slo.selector.source) for v in report.verdicts)
            for v in report.verdicts:
                lines.append(
                    f"{v.status:<7}  {v.slo.name.ljust(name_w)}  "
                    f"{_fmt(v.measured):>12}  {v.slo.op:>2} {_fmt(v.slo.bound):>10}"
                    f"  {v.slo.unit:<3}  {v.slo.selector.source.ljust(src_w)}"
                    f"  {v.slo.description}".rstrip()
                )
        lines.append(report.summary_line())
    return "\n".join(lines) + "\n"


def write_slo_report(path, *reports: SLOReport) -> str:
    """Write the machine-readable ``SLO_report.json`` (sorted keys)."""
    doc = {
        "ok": all(r.ok for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return str(path)


# -- the shipped rule sets ---------------------------------------------------

#: per-scenario QoS-violation ceilings for the full-duration cluster runs.
#: Derived from the seed-42 measurements with ~2x headroom — a regression
#: that doubles the violation count trips the rule, seed-to-seed jitter
#: does not. ``None`` (unknown scenario) falls back to the default.
CLUSTER_VIOLATION_CEILING: dict[str, float] = {
    "baseline": 50.0,
    "node-crash": 200.0,
    "fd-partition": 50.0,
    "brownout": 400.0,
}
_CLUSTER_VIOLATION_DEFAULT = 400.0

#: per-scenario detection budgets, ms. The 800 ms bound is the watchdog's
#: node-*loss* budget (K missed beats + grace + one probe round trip) and
#: applies when the node goes silent outright. A brownout drops beats
#: probabilistically instead of silencing them, so the K-consecutive-miss
#: deadline keeps resetting — detection is bounded by the lossy-path odds,
#: not the beat schedule; seed-42 measures 1240.6 ms, budgeted at ~2x.
CLUSTER_DETECTION_BUDGET_MS: dict[str, float] = {
    "brownout": 2400.0,
}
_CLUSTER_DETECTION_DEFAULT_MS = 800.0


def cluster_slos(scenario: str) -> list[SLO]:
    """The cluster budgets, parameterized by scenario name."""
    ceiling = CLUSTER_VIOLATION_CEILING.get(scenario, _CLUSTER_VIOLATION_DEFAULT)
    detection_ms = CLUSTER_DETECTION_BUDGET_MS.get(
        scenario, _CLUSTER_DETECTION_DEFAULT_MS
    )
    return [
        SLO(
            "detection-budget",
            metric("cluster.detection_ms"),
            "<",
            detection_ms,
            unit="ms",
            description=f"node fault detected inside the watchdog budget ({scenario})",
            when=nonzero(metric("cluster.fault_marked")),
        ),
        SLO(
            "mttr-budget",
            metric("cluster.mttr_ms"),
            "<",
            1600.0,
            unit="ms",
            description="every victim re-homed (or parked) inside 2x detection",
            when=nonzero(metric("cluster.recovered")),
        ),
        SLO(
            "zero-unaccounted",
            metric("cluster.ledger", state="unaccounted"),
            "==",
            0.0,
            description="every stream ends placed, parked, or lost",
        ),
        SLO(
            "no-double-place",
            metric_sum("cluster.node.double_execs"),
            "==",
            0.0,
            description="no control token ever executed twice on a node",
        ),
        SLO(
            "rpc-at-most-once",
            metric("cluster.rpc.dups_unabsorbed"),
            "==",
            0.0,
            description="every duplicated delivery absorbed by a reply cache",
        ),
        SLO(
            "qos-violations",
            metric("cluster.violations"),
            "<=",
            ceiling,
            description=f"per-scenario deadline-violation ceiling ({scenario})",
        ),
        SLO(
            "trace-complete",
            tracer_stat("discarded"),
            "==",
            0.0,
            description="the trace ring evicted nothing (coverage is honest)",
        ),
        SLO(
            "trace-balanced",
            tracer_stat("unbalanced_ends"),
            "==",
            0.0,
            description="every end_span matched an open span",
        ),
    ]


#: evaluated once per cluster scenario run (see cluster_slos); this static
#: set exists for discovery/docs — the runner calls cluster_slos(name)
CLUSTER_SLOS: list[SLO] = cluster_slos("node-crash")

OBSERVE_SLOS: list[SLO] = [
    SLO(
        "trace-complete",
        tracer_stat("discarded"),
        "==",
        0.0,
        description="the trace ring evicted nothing",
    ),
    SLO(
        "trace-balanced",
        tracer_stat("unbalanced_ends"),
        "==",
        0.0,
        description="every end_span matched an open span",
    ),
    SLO(
        "frames-flowed",
        metric_sum("engine.frames_dispatched"),
        ">",
        0.0,
        description="the instrumented datapath actually dispatched frames",
    ),
    SLO(
        "spans-recorded",
        tracer_stat("emitted"),
        ">",
        0.0,
        description="instrumentation emitted events (the plane was installed)",
    ),
]

FAILOVER_SLOS: list[SLO] = [
    # Detection/MTTR budgets apply exactly when a card stayed lost — the
    # run-observable ground truth the runner supplies as a context value
    # (a flap that reset inside the deadline is *supposed* to go
    # undetected; a permanent crash that goes undetected reads MISSING,
    # which fails).
    SLO(
        "detection-budget",
        metric("failover.detection_ms"),
        "<",
        800.0,
        unit="ms",
        description="card crash detected inside K*interval + grace",
        when=nonzero(value("card_lost")),
    ),
    SLO(
        "mttr-budget",
        metric("failover.mttr_ms"),
        "<",
        1600.0,
        unit="ms",
        description="last stream restored on its new card inside the budget",
        when=nonzero(value("card_lost")),
    ),
    SLO(
        "partition-no-migration",
        metric("failover.migrated"),
        "==",
        0.0,
        description="a classified partition migrates nothing (no double-serve)",
        when=nonzero(metric("failover.partitions")),
    ),
    SLO(
        "no-frame-black-hole",
        metric("failover.frames_lost"),
        "<=",
        64.0,
        description="crash loses at most one card's in-flight window of frames",
    ),
]

CHAOS_SLOS: list[SLO] = [
    SLO(
        "faults-exercised",
        metric("chaos.faults_injected"),
        ">=",
        1.0,
        description="the campaign actually injected faults",
        when=nonzero(metric("chaos.fault_windows")),
    ),
    SLO(
        "streams-survived",
        metric("chaos.min_settled_bps"),
        ">",
        0.0,
        unit="bps",
        description="every stream still delivers after the fault window",
    ),
]
