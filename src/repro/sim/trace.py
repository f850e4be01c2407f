"""Structured event tracing.

A :class:`Tracer` collects timestamped, categorized records from any
component that accepts one (the DWCS scheduler emits ``decision``,
``drop``, ``violation``; attach your own categories freely). Traces answer
the questions raw counters can't — *when* did the drops cluster, what did
the scheduler pick right before a violation — and export to JSON-lines for
external tooling.

Beyond point events, the tracer records **spans**: begin/end pairs with
optional parent links, the substrate of the observability plane's
per-frame datapath traces (:mod:`repro.obs`). A span begun under a
filtered-out category returns ``None`` before any payload is built (the
plane's ``begin`` after one set-membership test); ``end_span(None)`` is a
no-op, so instrumented code needs no second guard.
"""

from __future__ import annotations

import json
from collections import deque
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

__all__ = ["TraceEvent", "Tracer", "RESERVED_FIELD_KEYS"]

#: top-level JSONL keys owned by the event envelope; a payload field with
#: one of these names is exported under an ``f_`` prefix instead of
#: silently clobbering the timestamp/category/name columns
RESERVED_FIELD_KEYS = frozenset({"t", "cat", "name"})


class TraceEvent(NamedTuple):
    """One recorded occurrence (a tuple: immutable, and one allocation)."""

    time_us: float
    category: str
    name: str
    fields: Mapping[str, Any] = MappingProxyType({})  # shared: read-only

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "t": self.time_us,
            "cat": self.category,
            "name": self.name,
        }
        for key, value in self.fields.items():
            # namespace collisions with the envelope keys rather than
            # letting a payload field named 't'/'cat'/'name' overwrite them
            out[f"f_{key}" if key in RESERVED_FIELD_KEYS else key] = value
        return out


_new_tuple = tuple.__new__


class Tracer:
    """Bounded, filterable trace collector.

    Parameters
    ----------
    env:
        Clock source.
    categories:
        When given, only these categories are recorded (cheap pre-filter).
    capacity:
        Ring bound: oldest events are discarded beyond it (a trace must
        never be the thing that exhausts memory).
    """

    def __init__(
        self,
        env: "Environment",
        categories: Optional[Iterable[str]] = None,
        capacity: int = 100_000,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.env = env
        self.categories = frozenset(categories) if categories is not None else None
        self.capacity = capacity
        # deque(maxlen=...) evicts the oldest event in O(1); a plain list
        # would pay an O(capacity) front-delete on every emit once full.
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        # -- span bookkeeping ------------------------------------------------
        self._span_seq = 0
        #: span_id -> the begin event (also in the ring) of spans not yet ended
        self._open_spans: dict[int, TraceEvent] = {}
        #: end_span calls whose id was unknown or already closed
        self.unbalanced_ends = 0

    # -- recording ----------------------------------------------------------
    def wants(self, category: str) -> bool:
        """Cheap guard so emitters can skip building field dicts."""
        return self.categories is None or category in self.categories

    def emit(self, category: str, name: str, **fields: Any) -> None:
        if not self.wants(category):
            return
        self._record(category, name, fields)

    @property
    def discarded(self) -> int:
        """Events the ring evicted (the deque drops the oldest on append)."""
        return self.emitted - len(self._events)

    def _record(self, category: str, name: str, fields: dict[str, Any]) -> TraceEvent:
        self.emitted += 1
        # tuple.__new__ skips the namedtuple's Python-level __new__
        event = _new_tuple(TraceEvent, (self.env.now, category, name, fields))
        self._events.append(event)
        return event

    # -- spans ---------------------------------------------------------------
    def begin_span(
        self,
        category: str,
        name: str,
        parent: Optional[int] = None,
        **fields: Any,
    ) -> Optional[int]:
        """Open a span; returns its id (pass to :meth:`end_span`).

        Returns ``None`` when *category* is filtered out — the matching
        ``end_span(None)`` is then free, so call sites need one guard only.
        """
        if not self.wants(category):
            return None
        return self._begin(category, name, parent, fields)

    def end_span(self, span_id: Optional[int], **fields: Any) -> None:
        """Close a span opened by :meth:`begin_span`."""
        if span_id is not None:
            self._end(span_id, fields)

    def _begin(self, category: str, name: str, parent: Optional[int], fields: dict) -> int:
        """Record a span begin past the filter. *fields* is the caller's own
        keyword dict, made the payload: its keys, ``ph``, ``span``, ``parent``."""
        self._span_seq += 1
        span_id = self._span_seq
        fields["ph"] = "B"
        fields["span"] = span_id
        if parent is not None:
            fields["parent"] = parent
        self._open_spans[span_id] = self._record(category, name, fields)
        return span_id

    def _end(self, span_id: int, fields: dict) -> None:
        begin = self._open_spans.pop(span_id, None)
        if begin is None:
            self.unbalanced_ends += 1
            return
        fields["ph"] = "E"
        fields["span"] = span_id
        self._record(begin.category, begin.name, fields)

    def instant(self, category: str, name: str, **fields: Any) -> None:
        """Record a zero-duration marker (rendered as an instant event)."""
        if not self.wants(category):
            return
        fields["ph"] = "i"
        self._record(category, name, fields)

    @property
    def open_span_count(self) -> int:
        """Spans begun but not yet ended (unbalanced-span detection)."""
        return len(self._open_spans)

    def open_spans(self) -> list[tuple[int, str, str, float]]:
        """``(span_id, category, name, begin_time_us)`` of unclosed spans."""
        return [
            (span_id, begin.category, begin.name, begin.time_us)
            for span_id, begin in sorted(self._open_spans.items())
        ]

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        start_us: float = float("-inf"),
        end_us: float = float("inf"),
    ) -> list[TraceEvent]:
        return [
            e
            for e in self._events
            if (category is None or e.category == category)
            and (name is None or e.name == name)
            and start_us <= e.time_us < end_us
        ]

    def counts(self) -> dict[str, int]:
        """{category: event count} over the retained window."""
        out: dict[str, int] = {}
        for e in self._events:
            out[e.category] = out.get(e.category, 0) + 1
        return out

    def dump(self, path) -> int:
        """Stream the retained events to *path* as JSONL; returns the count.

        Writes line by line — no giant intermediate string — so a
        full-capacity trace exports in O(1) extra memory.
        """
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for e in self._events:
                fh.write(json.dumps(e.to_dict()))
                fh.write("\n")
                count += 1
        return count

    def __repr__(self) -> str:
        return f"<Tracer {len(self._events)} events (emitted={self.emitted})>"
