"""Partitions: one simulation kernel per hardware seam-bounded island.

A partitioned run decomposes one simulation into N logical partitions.
Each partition owns a full :class:`~repro.sim.Environment` (its own
event queue, clock, and RNG substreams) and simulates one island of the
hardware, such as one cluster node or the admission front door. Everything
that crosses a seam becomes a :class:`CrossMessage`: a timestamped,
canonical-dict payload whose delivery time is the send time plus the
seam's declared latency (never less than the seam lookahead, which is
what makes conservative windows sound).

The pieces:

* :class:`PartitionSpec` — the canonical, process-portable description
  of one partition (index, name, a ``module:callable`` builder, config).
  Specs cross process boundaries as plain dicts only.
* :class:`PartitionHarness` — the base class a partitioned workload
  subclasses. The subclass builds its model in ``build()``, reacts to
  inbound messages in ``on_message()``, and reports its results as a
  canonical fragment dict in ``finish()``. The harness provides
  ``send()``/``deliver()``/``harvest()``/``advance()`` plumbing and the
  default YAWNS earliest-output-time promise.

Determinism contract: a partition's local simulation is a single-
threaded deterministic kernel, and the coordinator's window protocol is
a pure function of the specs — so the merged result is byte-identical
whatever worker count (or none) executed the partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = [
    "CrossMessage",
    "PartitionSpec",
    "PartitionHarness",
    "resolve_builder",
    "MESSAGE_PRIORITY",
]

#: queue priority for cross-partition deliveries: below URGENT kernel
#: bookkeeping (0) but above NORMAL local events (1) is not possible with
#: ints between — use 0 so a message landing on a busy tick is processed
#: before that tick's local events, which pins "arrivals first" order
#: deterministically on every executor.
MESSAGE_PRIORITY = 0

#: priority of the advance() stop marker: outranks every real priority
#: (URGENT included) so it fires first at the window bound and leaves
#: the bound tick's real events queued for the next window.
_STOP_PRIORITY = -1


def _stop_marker() -> None:
    """Callback of the advance() stop marker; never observable."""


@dataclass(frozen=True)
class CrossMessage:
    """One seam crossing: a timestamped payload between two partitions."""

    src: int
    dst: int
    send_time: float
    deliver_at: float
    seq: int  # per-source monotone counter: total order within a channel
    kind: str
    payload: dict

    #: deterministic sort key for deliveries sharing a window — matches
    #: the order a monolithic run would process the sends in
    @property
    def order_key(self) -> tuple:
        return (self.deliver_at, self.send_time, self.src, self.seq)

    def canonical(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "send_time": self.send_time,
            "deliver_at": self.deliver_at,
            "seq": self.seq,
            "kind": self.kind,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrossMessage":
        return cls(**data)


@dataclass(frozen=True)
class PartitionSpec:
    """Canonical description of one partition, portable across processes.

    ``builder`` is a ``module:callable`` path resolving to
    ``callable(spec) -> PartitionHarness``, imported by path so worker
    processes never unpickle code objects.
    """

    index: int
    name: str
    builder: str
    lookahead_us: float
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("partition index must be >= 0")
        if self.lookahead_us <= 0:
            raise ValueError(
                f"partition {self.name!r} needs a positive lookahead_us"
            )
        if ":" not in self.builder:
            raise ValueError(
                f"builder must be 'module:callable', got {self.builder!r}"
            )

    def canonical(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "builder": self.builder,
            "lookahead_us": self.lookahead_us,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionSpec":
        return cls(**data)


def resolve_builder(path: str) -> Callable:
    """Import a ``module:callable`` harness builder."""
    import importlib

    module_name, _, attr = path.partition(":")
    try:
        module = importlib.import_module(module_name)
        builder = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ValueError(f"cannot resolve partition builder {path!r}: {exc}")
    if not callable(builder):
        raise ValueError(f"partition builder {path!r} is not callable")
    return builder


class PartitionHarness:
    """Base class: one partition's kernel plus its seam plumbing.

    Subclass obligations:

    * ``build()`` — construct the partition's model on ``self.env``
      (called exactly once, before the first window).
    * ``on_message(msg)`` — react to an inbound :class:`CrossMessage`;
      runs *at* the message's delivery time inside the local simulation.
    * ``finish()`` — return the partition's results as a canonical dict
      (plain ints/floats/strings/lists/dicts only).
    * optionally ``eot()`` — see below.

    The earliest-output-time promise
    --------------------------------
    ``eot()`` must return a *lower bound on the delivery time of any
    message this partition may send while receiving nothing further*.
    The default is the classic YAWNS bound — next local event time plus
    the seam lookahead — which is always sound because a message can
    only be sent while processing a local event, and its delivery adds
    at least the lookahead. A harness with structural knowledge (e.g. a
    front door that only ever sends at scheduled admission waves) may
    promise much further ahead, collapsing thousands of lookahead-wide
    windows into a handful; the coordinator's causality guards turn an
    unsound promise into a hard error rather than silent corruption.
    """

    def __init__(self, spec: PartitionSpec, env: Optional[Environment] = None) -> None:
        self.spec = spec
        self.index = spec.index
        self.lookahead_us = spec.lookahead_us
        self.env = env if env is not None else Environment()
        self._outbox: list[CrossMessage] = []
        self._send_seq = 0
        #: messages delivered, sends harvested (cheap per-partition stats)
        self.received = 0
        self.sent = 0

    # -- subclass API --------------------------------------------------------
    def build(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_message(self, msg: CrossMessage) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def finish(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def eot(self) -> float:
        """Earliest-output-time promise (see class docstring)."""
        return self.env.peek() + self.lookahead_us

    # -- provided plumbing ---------------------------------------------------
    def send(
        self,
        dst: int,
        kind: str,
        payload: dict,
        latency_us: Optional[float] = None,
    ) -> CrossMessage:
        """Emit a cross-partition message from the current local time.

        ``latency_us`` defaults to the seam lookahead and may never be
        below it — the conservative windows are only sound because every
        crossing pays at least the declared seam minimum.
        """
        latency = self.lookahead_us if latency_us is None else latency_us
        if latency < self.lookahead_us:
            raise ValueError(
                f"cross-partition latency {latency} below the declared "
                f"seam lookahead {self.lookahead_us} — the conservative "
                "window protocol would be unsound"
            )
        self._send_seq += 1
        msg = CrossMessage(
            src=self.index,
            dst=dst,
            send_time=self.env.now,
            deliver_at=self.env.now + latency,
            seq=self._send_seq,
            kind=kind,
            payload=payload,
        )
        self._outbox.append(msg)
        self.sent += 1
        return msg

    def deliver(self, messages: list[CrossMessage]) -> None:
        """Inject inbound messages as timestamped local events.

        Called by the executor between windows, in the deterministic
        ``order_key`` order the coordinator fixed. ``schedule_at``
        raises if a delivery time is already in the local past — the
        kernel-level causality guard.
        """
        from functools import partial

        for msg in messages:
            self.env.schedule_at(
                msg.deliver_at,
                partial(self.on_message, msg),
                priority=MESSAGE_PRIORITY,
                name=f"xmsg:{msg.kind}",
            )
            self.received += 1

    def advance(self, bound: float, inclusive: bool = False) -> None:
        """Run the local kernel up to the synchronized window bound.

        Exclusive by default — the classic conservative-window rule:
        events at exactly ``bound`` belong to the *next* window, which
        injects its deliveries first, so a message delivering exactly
        at a window bound still precedes that tick's local events (the
        order a monolithic kernel pins, because deliveries carry
        :data:`MESSAGE_PRIORITY`). ``Environment.run(until=T)`` is
        inclusive of tick ``T``, so the exclusive stop is a marker event
        at the bound that outranks every real priority: it fires first,
        halts the run with the clock exactly on ``bound``, and leaves
        the tick's real events queued.

        The coordinator's horizon-closing pass sets ``inclusive=True``
        to process the final tick the way a monolithic
        ``run(until=horizon)`` would.
        """
        if inclusive:
            self.env.run(until=bound)
            return
        stop = self.env.schedule_at(
            bound, _stop_marker, priority=_STOP_PRIORITY, name="pdes:window"
        )
        self.env.run(until=stop)

    def harvest(self) -> list[CrossMessage]:
        """Drain messages sent since the last harvest."""
        out, self._outbox = self._outbox, []
        return out

    def stats(self) -> dict:
        return {"sent": self.sent, "received": self.received}
