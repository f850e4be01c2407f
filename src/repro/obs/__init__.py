"""Observability plane: datapath spans, metrics registry, latency breakdown.

The plane (:class:`ObservabilityPlane`) installs itself into the
environment's pre-resolved hook slot (``env.obs``, ``None`` by default);
instrumented components read ``self.env.obs`` at call time, so an
uninstrumented run pays one plain attribute load per hook and records
nothing.
"""

from .breakdown import CriticalPath, HopStats, LatencyBreakdown
from .export import (
    render_breakdown_csv,
    render_chrome_trace,
    render_metrics_snapshot,
    write_observe_artifacts,
)
from .plane import (
    CLUSTER_CATEGORIES,
    CLUSTER_CATEGORY,
    ObservabilityPlane,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .slo import (
    CHAOS_SLOS,
    CLUSTER_DETECTION_BUDGET_MS,
    CLUSTER_SLOS,
    CLUSTER_VIOLATION_CEILING,
    FAILOVER_SLOS,
    OBSERVE_SLOS,
    SLO,
    SLOContext,
    SLOReport,
    cluster_slos,
    evaluate,
    metric,
    metric_sum,
    nonzero,
    render_slo_report,
    tracer_stat,
    value,
    write_slo_report,
)

__all__ = [
    "ObservabilityPlane",
    "CLUSTER_CATEGORY",
    "CLUSTER_CATEGORIES",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyBreakdown",
    "HopStats",
    "CriticalPath",
    "render_chrome_trace",
    "render_breakdown_csv",
    "render_metrics_snapshot",
    "write_observe_artifacts",
    "SLO",
    "SLOContext",
    "SLOReport",
    "evaluate",
    "metric",
    "metric_sum",
    "tracer_stat",
    "value",
    "nonzero",
    "render_slo_report",
    "write_slo_report",
    "cluster_slos",
    "CLUSTER_SLOS",
    "CLUSTER_DETECTION_BUDGET_MS",
    "CLUSTER_VIOLATION_CEILING",
    "OBSERVE_SLOS",
    "FAILOVER_SLOS",
    "CHAOS_SLOS",
]
