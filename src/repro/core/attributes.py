"""DWCS stream attributes and per-stream scheduler state.

Each packet carries two attributes (paper §3.1.2):

* **Deadline** — the latest time the packet can commence service; successive
  packets in a stream have deadlines offset by a fixed *request period*.
* **Loss-tolerance** — x/y: at most x of every y consecutive packets may be
  lost or transmitted late. All packets of a stream share the same
  loss-tolerance at any given time.

:class:`StreamState` holds the *current* window constraint (x', y'), the
head-of-line deadline, and the service/drop/violation counters the
experiments report. The window-adjustment *rules* live in
:mod:`repro.core.dwcs` next to the precedence rules they pair with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fixedpoint import Fraction

__all__ = ["StreamSpec", "StreamState"]


@dataclass(frozen=True)
class StreamSpec:
    """Static QoS parameters of a stream, derived from application needs."""

    stream_id: str
    #: deadline offset between consecutive packets, µs (1/rate)
    period_us: float
    #: loss-tolerance numerator: packets that may be lost per window
    loss_x: int
    #: loss-tolerance denominator: the window length in packets
    loss_y: int
    #: drop late packets (lossy streams) instead of transmitting them late
    drop_late: bool = True

    def __post_init__(self) -> None:
        if self.period_us <= 0:
            raise ValueError("period must be positive")
        if self.loss_y < 1:
            raise ValueError("loss-tolerance window y must be >= 1")
        if not 0 <= self.loss_x <= self.loss_y:
            raise ValueError("need 0 <= x <= y in loss-tolerance x/y")


class StreamState:
    """Mutable per-stream scheduler state."""

    __slots__ = (
        "spec",
        "x_cur",
        "y_cur",
        "deadline_us",
        "serviced",
        "dropped",
        "sent_late",
        "violations",
        "window_resets",
        "created_seq",
    )

    def __init__(self, spec: StreamSpec, created_seq: int = 0) -> None:
        self.spec = spec
        #: current window numerator: losses still tolerable in this window
        self.x_cur = spec.loss_x
        #: current window denominator: packets remaining in this window
        self.y_cur = spec.loss_y
        #: head-of-line packet's deadline (absolute sim time, µs); set when
        #: the first packet arrives
        self.deadline_us: Optional[float] = None
        self.serviced = 0
        self.dropped = 0
        self.sent_late = 0
        self.violations = 0
        self.window_resets = 0
        #: creation order, the final FCFS tie-break
        self.created_seq = created_seq

    @property
    def stream_id(self) -> str:
        return self.spec.stream_id

    @property
    def constraint(self) -> Fraction:
        """The current window-constraint x'/y' as a fraction."""
        # y_cur >= 1 is maintained by the adjustment rules; guard anyway so a
        # corrupted state fails loudly rather than dividing by zero.
        return Fraction(self.x_cur, max(1, self.y_cur))

    def reset_window(self) -> None:
        self.x_cur = self.spec.loss_x
        self.y_cur = self.spec.loss_y
        self.window_resets += 1

    # -- checkpoint / restore (HA plane) -------------------------------------
    #: fields mirrored to host memory by the checkpointing plane; spec and
    #: created_seq are carried separately (spec is immutable, created_seq is
    #: local to the adopting scheduler's FCFS order)
    CHECKPOINT_FIELDS = (
        "x_cur",
        "y_cur",
        "deadline_us",
        "serviced",
        "dropped",
        "sent_late",
        "violations",
        "window_resets",
    )

    def checkpoint(self) -> dict:
        """Snapshot the mutable window/tally state (plain dict, copyable)."""
        return {name: getattr(self, name) for name in self.CHECKPOINT_FIELDS}

    def restore(self, snapshot: dict) -> None:
        """Overwrite the mutable state from a :meth:`checkpoint` snapshot."""
        for name in self.CHECKPOINT_FIELDS:
            setattr(self, name, snapshot[name])

    def __repr__(self) -> str:
        return (
            f"<StreamState {self.stream_id!r} W'={self.x_cur}/{self.y_cur} "
            f"dl={self.deadline_us} svc={self.serviced} drop={self.dropped} "
            f"viol={self.violations}>"
        )
