"""Toy partition harnesses for the pdes test suite.

Importable by ``module:callable`` path (the builder convention), so both
the serial executor and spawned worker processes can reconstruct them.
The island pair is the differential-test workload: hypothesis-chosen
timeout / succeed(send) / interrupt ops on both sides, with reactive
replies so messages cascade across window boundaries.
"""

from __future__ import annotations

from functools import partial

from repro.pdes.partition import MESSAGE_PRIORITY, PartitionHarness
from repro.sim import Interrupt

#: the toy seam lookahead, deliberately tie-friendly
TOY_LOOKAHEAD_US = 5.0

#: a fixed dense script for the two islands: same-tick sends, an
#: interrupt, and pings and pongs that cross several windows
DENSE_OPS_A = [
    ["succeed", 5.0, 0], ["succeed", 5.0, 3], ["timeout", 40.0, 0],
    ["interrupt", 12.5, 0], ["succeed", 100.0, 7],
]
DENSE_OPS_B = [
    ["succeed", 5.0, 0], ["timeout", 5.0, 0], ["succeed", 40.0, 1],
    ["interrupt", 1.0, 0],
]


class IslandHarness(PartitionHarness):
    """One island of a two-island toy: replays a scripted op list.

    ``config`` carries ``peer`` (the other island's index) and ``ops``,
    a list of ``[kind, time, aux]`` entries:

    * ``timeout`` — a plain local event at *time* (logs its firing);
    * ``succeed`` — send a message to the peer at *time* with latency
      ``lookahead + aux`` (the peer logs the receipt and replies to
      every third op, so cascades cross window boundaries);
    * ``interrupt`` — spawn a long waiter and interrupt it at *time*
      (exercises the Interrupt delivery path inside a partition).
    """

    def build(self) -> None:
        self.log: list = []
        self.peer = self.spec.config["peer"]
        self._procs: dict = {}
        for k, (kind, when, aux) in enumerate(self.spec.config["ops"]):
            if kind == "timeout":
                self.env.schedule_at(when, partial(self._fire, k), name=f"op{k}")
            elif kind == "succeed":
                self.env.schedule_at(when, partial(self._send_op, k, aux))
            elif kind == "interrupt":
                proc = self.env.process(self._waiter(k), name=f"waiter{k}")
                self._procs[k] = proc
                self.env.schedule_at(when, partial(self._interrupt, k))
            else:  # pragma: no cover - strategy guard
                raise ValueError(f"unknown toy op {kind!r}")

    def _fire(self, k: int) -> None:
        self.log.append(["fire", k, self.env.now])

    def _send_op(self, k: int, aux: int) -> None:
        self.log.append(["send", k, self.env.now])
        self.send(
            self.peer,
            "ping",
            {"op": k},
            latency_us=self.lookahead_us + float(aux),
        )

    def _waiter(self, k: int):
        try:
            yield self.env.timeout(10_000.0)
            self.log.append(["waiter-done", k, self.env.now])
        except Interrupt as it:
            self.log.append(["interrupted", k, it.cause, self.env.now])

    def _interrupt(self, k: int) -> None:
        proc = self._procs[k]
        if proc.is_alive:
            proc.interrupt(k)

    def on_message(self, msg) -> None:
        self.log.append(
            ["recv", msg.kind, msg.payload["op"], msg.src, self.env.now]
        )
        if msg.kind == "ping" and msg.payload["op"] % 3 == 0:
            self.send(msg.src, "pong", {"op": msg.payload["op"]})

    def finish(self) -> dict:
        return {"log": self.log}


def build_island(spec) -> IslandHarness:
    return IslandHarness(spec)


class MonoIsland(IslandHarness):
    """The monolithic reference: both islands share ONE kernel.

    ``send`` short-circuits the coordinator — the peer's ``on_message``
    is scheduled directly on the shared environment at the message's
    delivery time with the same MESSAGE_PRIORITY the partitioned
    delivery path uses. Whatever the window protocol does, the observable
    logs must match this single-kernel execution.
    """

    def __init__(self, spec, env, registry: dict) -> None:
        super().__init__(spec, env=env)
        self._registry = registry

    def send(self, dst, kind, payload, latency_us=None):
        msg = super().send(dst, kind, payload, latency_us)
        peer = self._registry[dst]
        self.env.schedule_at(
            msg.deliver_at,
            partial(peer.on_message, msg),
            priority=MESSAGE_PRIORITY,
            name=f"xmsg:{kind}",
        )
        return msg


class LiarHarness(PartitionHarness):
    """Promises an infinite EOT, then sends early: must be caught."""

    def build(self) -> None:
        self.env.schedule_at(10.0, self._betray)

    def _betray(self) -> None:
        self.send(self.spec.config["peer"], "late", {})

    def eot(self) -> float:
        return float("inf")

    def on_message(self, msg) -> None:  # pragma: no cover - never delivered
        pass

    def finish(self) -> dict:  # pragma: no cover - run aborts first
        return {}


def build_liar(spec) -> LiarHarness:
    return LiarHarness(spec)


class SilentHarness(PartitionHarness):
    """Receives anything, sends nothing, finishes empty."""

    def build(self) -> None:
        self.inbox: list = []

    def on_message(self, msg) -> None:
        self.inbox.append(msg.kind)

    def finish(self) -> dict:
        return {"inbox": list(self.inbox)}


def build_silent(spec) -> SilentHarness:
    return SilentHarness(spec)


#: deliberately not callable: exercises resolve_builder's type guard
NOT_CALLABLE = object()
