"""The fault plane: seeded, windowed fault injection for hardware models.

A :class:`FaultPlane` installs itself into the environment's pre-resolved
hook slot (``env.fault_plane``, ``None`` by default); instrumented
components read the attribute directly, so an environment without a plane
pays one attribute load per hook. Faults are *windows*: a
kind, an ``fnmatch`` pattern over component names, a ``[start, end)`` time
range, and a rate or latency term. All stochastic draws come from named
:class:`~repro.sim.RandomStreams` substreams under one seed, and draws
happen only while a matching window is active — so a fault-free run is
bit-identical to a run with no plane installed, and a faulted run is
exactly repeatable given its seed.

Supported fault kinds:

* ``link-loss`` — per-frame discard probability at the switch (bursty loss
  beyond the switch's uniform ``loss_rate``); rate 1.0 is a partition;
* ``disk-latency`` — multiplies/adds to a disk access's positioning+transfer
  time (a dying drive's internal retries, thermal recalibration);
* ``disk-error`` — a read/write fails with
  :class:`~repro.hw.disk.DiskMediaError` after the positioning time;
* ``msg-drop`` / ``msg-dup`` — an I2O message frame vanishes between host
  and NI, or is delivered twice (bridge retry);
* ``udp-drop`` / ``udp-dup`` — a UDP datagram is lost or duplicated inside
  the sending stack (buffer exhaustion, retransmitting bridge), before it
  ever reaches the switch;
* ``rpc-drop`` / ``rpc-dup`` — a cluster control-plane message (admission
  RPC, node heartbeat) is lost on its control channel, or delivered twice
  by a retrying fabric — the windows the at-most-once placement proofs of
  :mod:`repro.cluster` run under.

NI card crash/reset is event-shaped rather than windowed:
:meth:`FaultPlane.schedule_card_crash` drives a card's ``crash()`` and
``reset()`` hooks at fixed times; ``down_us=None`` crashes the card
permanently (no reset is scheduled), the failover experiments' case.
:meth:`FaultPlane.schedule_node_crash` is the cluster-scale analogue: it
takes every i960 card of a server node down at once (the node's power
supply dying, not a single board wedging).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.sim import Environment, RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.nic import I960RDCard

__all__ = ["FaultPlane", "FaultWindow"]


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault: *kind* against *target* over ``[start, end)``."""

    kind: str
    target: str  # fnmatch pattern over component names
    start_us: float
    end_us: float
    #: per-event probability (loss/error/drop/dup kinds)
    rate: float = 0.0
    #: multiplier on the base access time (disk-latency kind)
    latency_mult: float = 1.0
    #: flat addition to the access time, µs (disk-latency kind)
    extra_latency_us: float = 0.0

    def matches(self, now_us: float, name: str) -> bool:
        return self.start_us <= now_us < self.end_us and fnmatchcase(name, self.target)


class FaultPlane:
    """Deterministic fault scheduler + injection oracle for one run."""

    def __init__(self, env: Environment, seed: int = 0, tracer=None) -> None:
        if env.fault_plane is not None:
            raise RuntimeError("environment already has a fault plane installed")
        self.env = env
        self.seed = int(seed)
        self.rng = RandomStreams(seed)
        #: optional :class:`~repro.sim.Tracer` receiving 'fault' events
        self.tracer = tracer
        #: kind -> its windows, in the order added (a check scans its kind only)
        self._windows: dict[str, list[FaultWindow]] = {}
        #: injections actually fired, by kind (for reports and tests)
        self.injected: dict[str, int] = {}
        env.fault_plane = self
        env.hooks_changed()

    # -- scheduling ---------------------------------------------------------
    def add_window(self, window: FaultWindow) -> FaultWindow:
        if window.end_us <= window.start_us:
            raise ValueError("fault window must have end > start")
        self._windows.setdefault(window.kind, []).append(window)
        return window

    def inject_link_loss(
        self, target: str, start_us: float, end_us: float, rate: float
    ) -> FaultWindow:
        """Bursty frame loss at the switch for ports matching *target*."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("loss rate must be in (0, 1]")
        return self.add_window(
            FaultWindow("link-loss", target, start_us, end_us, rate=rate)
        )

    def inject_partition(self, target: str, start_us: float, end_us: float) -> FaultWindow:
        """Total connectivity loss: every frame to *target* is discarded."""
        return self.inject_link_loss(target, start_us, end_us, rate=1.0)

    def inject_disk_latency(
        self,
        target: str,
        start_us: float,
        end_us: float,
        mult: float = 1.0,
        extra_us: float = 0.0,
    ) -> FaultWindow:
        """Latency spike: accesses take ``mult × base + extra_us``."""
        if mult < 1.0 or extra_us < 0.0:
            raise ValueError("latency spike cannot speed the disk up")
        return self.add_window(
            FaultWindow(
                "disk-latency", target, start_us, end_us,
                latency_mult=mult, extra_latency_us=extra_us,
            )
        )

    def inject_disk_errors(
        self, target: str, start_us: float, end_us: float, rate: float
    ) -> FaultWindow:
        """Media errors: each access fails with probability *rate*."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("error rate must be in (0, 1]")
        return self.add_window(
            FaultWindow("disk-error", target, start_us, end_us, rate=rate)
        )

    def inject_message_drop(
        self, target: str, start_us: float, end_us: float, rate: float
    ) -> FaultWindow:
        """I2O message frames vanish between host and NI."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("drop rate must be in (0, 1]")
        return self.add_window(
            FaultWindow("msg-drop", target, start_us, end_us, rate=rate)
        )

    def inject_message_duplication(
        self, target: str, start_us: float, end_us: float, rate: float
    ) -> FaultWindow:
        """I2O message frames are delivered twice (bus/bridge retry)."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("duplication rate must be in (0, 1]")
        return self.add_window(
            FaultWindow("msg-dup", target, start_us, end_us, rate=rate)
        )

    def inject_datagram_drop(
        self, target: str, start_us: float, end_us: float, rate: float
    ) -> FaultWindow:
        """UDP datagrams vanish inside the sending stack."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("drop rate must be in (0, 1]")
        return self.add_window(
            FaultWindow("udp-drop", target, start_us, end_us, rate=rate)
        )

    def inject_datagram_duplication(
        self, target: str, start_us: float, end_us: float, rate: float
    ) -> FaultWindow:
        """UDP datagrams are transmitted twice (retransmitting bridge)."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("duplication rate must be in (0, 1]")
        return self.add_window(
            FaultWindow("udp-dup", target, start_us, end_us, rate=rate)
        )

    def inject_rpc_drop(
        self, target: str, start_us: float, end_us: float, rate: float
    ) -> FaultWindow:
        """Cluster control-plane messages on channels matching *target* are
        lost in flight (rate 1.0 over a channel is a front-door partition)."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("drop rate must be in (0, 1]")
        return self.add_window(
            FaultWindow("rpc-drop", target, start_us, end_us, rate=rate)
        )

    def inject_rpc_duplication(
        self, target: str, start_us: float, end_us: float, rate: float
    ) -> FaultWindow:
        """Control-plane messages are delivered twice (a retrying fabric)."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("duplication rate must be in (0, 1]")
        return self.add_window(
            FaultWindow("rpc-dup", target, start_us, end_us, rate=rate)
        )

    def schedule_card_crash(
        self, card: "I960RDCard", at_us: float, down_us: Optional[float]
    ) -> None:
        """Crash *card* at ``at_us`` and reset it ``down_us`` later.

        ``down_us=None`` is a permanent crash: no reset is ever scheduled,
        so recovery (if any) must come from a failover path, not the card.
        """
        if at_us < self.env.now:
            raise ValueError("cannot schedule a crash in the past")
        if down_us is not None and down_us <= 0:
            raise ValueError("down time must be positive")

        def _crash() -> None:
            self._count("card-crash")
            self._trace("card-crash", card=card.name)
            card.crash()

        def _reset() -> None:
            self._count("card-reset")
            self._trace("card-reset", card=card.name)
            card.reset()

        self.env.schedule_callback(at_us - self.env.now, _crash, name="fault.crash")
        if down_us is not None:
            self.env.schedule_callback(
                at_us + down_us - self.env.now, _reset, name="fault.reset"
            )

    def schedule_node_crash(
        self,
        cards: Union[Sequence["I960RDCard"], Callable[[], Sequence["I960RDCard"]]],
        at_us: float,
        node: Optional[str] = None,
    ) -> None:
        """Crash every card in *cards* at ``at_us`` — a whole node dying.

        *cards* may be a sequence or a zero-argument callable evaluated at
        fire time (so a scenario can name a node before its plane has
        finished wiring cards). The crash is permanent: node-level
        recovery, if any, is a failover/re-admission path. One
        ``node-crash`` injection is counted regardless of card count.
        """
        if at_us < self.env.now:
            raise ValueError("cannot schedule a crash in the past")

        def _crash() -> None:
            resolved = list(cards() if callable(cards) else cards)
            self._count("node-crash")
            self._trace(
                "node-crash",
                node=node or "?",
                cards=",".join(c.name for c in resolved),
            )
            for card in resolved:
                if not card.crashed:
                    card.crash()

        self.env.schedule_callback(
            at_us - self.env.now, _crash, name="fault.node-crash"
        )

    # -- injection oracle (called from hardware hooks) ----------------------
    def frame_lost(self, port_name: str) -> bool:
        """Should the switch discard this frame bound for *port_name*?"""
        window = self._active("link-loss", port_name)
        if window is None:
            return False
        if window.rate < 1.0 and not self._draw("link", window.rate):
            return False
        self._count("link-loss")
        self._trace("link-loss", port=port_name)
        return True

    def disk_delay_us(self, disk_name: str, base_us: float) -> float:
        """Extra access latency (µs) on top of *base_us* for this request."""
        window = self._active("disk-latency", disk_name)
        if window is None:
            return 0.0
        self._count("disk-latency")
        return base_us * (window.latency_mult - 1.0) + window.extra_latency_us

    def disk_error(self, disk_name: str) -> bool:
        """Should this disk access fail with a media error?"""
        window = self._active("disk-error", disk_name)
        if window is None or not self._draw("disk", window.rate):
            return False
        self._count("disk-error")
        self._trace("disk-error", disk=disk_name)
        return True

    def message_dropped(self, queue_name: str) -> bool:
        window = self._active("msg-drop", queue_name)
        if window is None or not self._draw("msg", window.rate):
            return False
        self._count("msg-drop")
        self._trace("msg-drop", queue=queue_name)
        return True

    def message_duplicated(self, queue_name: str) -> bool:
        window = self._active("msg-dup", queue_name)
        if window is None or not self._draw("msg", window.rate):
            return False
        self._count("msg-dup")
        self._trace("msg-dup", queue=queue_name)
        return True

    def datagram_dropped(self, stack_name: str) -> bool:
        window = self._active("udp-drop", stack_name)
        if window is None or not self._draw("udp", window.rate):
            return False
        self._count("udp-drop")
        self._trace("udp-drop", stack=stack_name)
        return True

    def datagram_duplicated(self, stack_name: str) -> bool:
        window = self._active("udp-dup", stack_name)
        if window is None or not self._draw("udp", window.rate):
            return False
        self._count("udp-dup")
        self._trace("udp-dup", stack=stack_name)
        return True

    def rpc_dropped(self, channel_name: str) -> bool:
        window = self._active("rpc-drop", channel_name)
        if window is None or not self._draw("rpc", window.rate):
            return False
        self._count("rpc-drop")
        self._trace("rpc-drop", channel=channel_name)
        return True

    def rpc_duplicated(self, channel_name: str) -> bool:
        window = self._active("rpc-dup", channel_name)
        if window is None or not self._draw("rpc", window.rate):
            return False
        self._count("rpc-dup")
        self._trace("rpc-dup", channel=channel_name)
        return True

    # -- internals ----------------------------------------------------------
    def _active(self, kind: str, name: str) -> Optional[FaultWindow]:
        now = self.env.now
        for window in self._windows.get(kind, ()):
            if window.matches(now, name):
                return window
        return None

    def _draw(self, stream: str, rate: float) -> bool:
        if rate >= 1.0:
            return True
        return float(self.rng.stream(f"faults.{stream}").random()) < rate

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        obs = self.env.obs
        if obs is not None:
            obs.count("faults.injected", kind=kind)

    def _trace(self, name: str, **fields) -> None:
        tracer = self.tracer
        if tracer is None:
            # no explicit tracer wired: ride the observability plane's
            obs = self.env.obs
            tracer = obs.tracer if obs is not None else None
        if tracer is not None and tracer.wants("fault"):
            tracer.emit("fault", name, **fields)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def __repr__(self) -> str:
        return (
            f"<FaultPlane seed={self.seed} "
            f"windows={sum(map(len, self._windows.values()))} "
            f"injected={self.total_injected}>"
        )
