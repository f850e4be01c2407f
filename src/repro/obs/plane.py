"""The observability plane object installed as ``env.obs``.

Instrumented code follows one pattern everywhere::

    obs = self.env.obs
    sp = obs.begin("read", track="disk:sd0", stream=sid, seq=n) if obs else None
    ...  # the timed work
    if obs:
        obs.end(sp, bytes=frame.size_bytes)

``Environment.__init__`` pre-resolves the hook slot to ``None``, so with
no plane attached every datapath hook costs one plain attribute load (no
``getattr``-with-default machinery). With a plane attached but the span
category filtered out, ``begin`` returns ``None`` after one set-membership
test and ``end(None)`` after one ``None`` test; the call and its keyword
dict are all they cost. A recorded span event allocates that dict, as its
payload, and one ``TraceEvent`` tuple; an open span is tracked by a
reference to its begin event, and
:class:`~repro.obs.breakdown.LatencyBreakdown` folds a finished pair into
one more tuple that holds both payloads by reference.

Span events live in category ``"span"``; instant markers (crashes,
failovers, drops) in ``"event"``. Both ride the ordinary
:class:`~repro.sim.trace.Tracer`, so the DWCS/TCP/fault categories that
existed before this plane land in the same ring and the same exports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..sim.trace import Tracer
from .registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.environment import Environment

__all__ = [
    "ObservabilityPlane",
    "SPAN_CATEGORY",
    "EVENT_CATEGORY",
    "CLUSTER_CATEGORY",
    "CLUSTER_CATEGORIES",
]

SPAN_CATEGORY = "span"
EVENT_CATEGORY = "event"

#: control-plane spans (admission, placement, RPC, failover, handoff) live
#: in their own category so a cluster run can record the stitched
#: cross-node story *without* paying for the millions of per-frame
#: datapath spans — pass ``categories=CLUSTER_CATEGORIES`` to the plane
#: and the datapath's ``begin()`` calls filter out in one membership test.
CLUSTER_CATEGORY = "cluster"
CLUSTER_CATEGORIES = (CLUSTER_CATEGORY, EVENT_CATEGORY)


class ObservabilityPlane:
    """Bundles a span tracer and a metrics registry behind ``env.obs``.

    Parameters
    ----------
    env:
        The simulation environment to observe. ``install()`` binds the
        plane as ``env.obs``; components discover it at call time.
    capacity:
        Tracer ring bound. Instrumented full-length runs produce on the
        order of 10 events per frame hop, so the default is generous.
    categories:
        Optional tracer category filter; ``None`` records everything.
    """

    def __init__(
        self,
        env: "Environment",
        capacity: int = 2_000_000,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        self.env = env
        self.tracer = Tracer(env, categories=categories, capacity=capacity)
        self.registry = registry = MetricsRegistry()
        # the metric hooks record in one frame: they *are* the registry's
        self.count = registry.count
        self.gauge = registry.gauge
        self.observe = registry.observe

    def install(self) -> "ObservabilityPlane":
        """Bind into the environment's hook slot (idempotent)."""
        self.env.obs = self
        self.env.hooks_changed()
        return self

    # -- spans ----------------------------------------------------------------
    def begin(
        self,
        hop: str,
        track: Optional[str] = None,
        parent: Optional[int] = None,
        category: str = SPAN_CATEGORY,
        **fields: Any,
    ) -> Optional[int]:
        """Open a datapath-hop span; *track* names the Perfetto lane
        (``cpu:host0``, ``bus:pci1``, ``card:rd0``...). Control-plane
        emitters pass ``category=CLUSTER_CATEGORY`` so a filtered plane
        keeps them while shedding the per-frame datapath spans."""
        tracer = self.tracer
        if tracer.categories is not None and category not in tracer.categories:
            return None
        if track is not None:
            fields["track"] = track
        return tracer._begin(category, hop, parent, fields)

    def end(self, span_id: Optional[int], **fields: Any) -> None:
        if span_id is not None:
            self.tracer._end(span_id, fields)

    def instant(
        self, name: str, track: Optional[str] = None, **fields: Any
    ) -> None:
        """Zero-duration marker (crash, failover, drop, violation)."""
        if track is not None:
            fields["track"] = track
        self.tracer.instant(EVENT_CATEGORY, name, **fields)

    # -- convenience -------------------------------------------------------------
    def span_events(self):
        return self.tracer.events(category=SPAN_CATEGORY)

    def publish_queue_stats(self) -> None:
        """Export the event queue's pending depth as a gauge.

        ``sim.queue.pending`` carries a ``structure="heap"`` label because
        the observe and cluster metrics artifacts record it."""
        self.registry.gauge(
            "sim.queue.pending", float(len(self.env._queue)), structure="heap"
        )

    def __repr__(self) -> str:
        return (
            f"<ObservabilityPlane {len(self.tracer)} events, "
            f"{len(self.registry)} metric series>"
        )
