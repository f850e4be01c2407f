"""Hardened control-plane RPC between the front door and the nodes.

Control traffic (admission RPCs, node heartbeats) rides a logical
:class:`ControlChannel` per node — fixed one-way latency, lossy only under
a :class:`~repro.faults.FaultPlane` ``rpc-drop``/``rpc-dup`` window
matching the channel's name. The channel is deliberately *not* the SAN:
a front-door↔node partition must be expressible without touching the
NI-to-NI data path, and the watchdog's out-of-band health probe crosses
the SAN precisely so the two paths can fail independently.

:class:`ClusterRPC` adds the client-side hardening the tentpole names:

* **per-call timeouts** — a lost request or reply costs one timeout, not
  a hang;
* **capped exponential backoff with jitter** — retries space out
  (base · 2^k up to a cap, jittered from a named substream that is only
  drawn on an actual retry, so fault-free runs consume no randomness);
* **at-most-once execution** — every call carries a token; the node's
  reply cache (see :meth:`repro.cluster.node.ClusterNode.exec_control`)
  returns the cached reply for a retried or duplicated delivery instead
  of executing twice. The *placement* guarantee on top of this (a call
  whose every retry timed out) is the front door's rescind protocol.

:class:`CircuitBreaker` is the per-node valve the watchdog drives: opened
on suspicion (partition) or death, closed on recovery; the front door
skips open nodes when placing.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.obs.plane import CLUSTER_CATEGORY
from repro.sim import Environment, RandomStreams

__all__ = [
    "ControlChannel",
    "ClusterRPC",
    "CircuitBreaker",
    "RPCTimeout",
    "NodeDown",
]

#: one-way control-message latency, µs (a switched-Ethernet hop plus the
#: host-side demux — control messages are small)
CONTROL_LATENCY_US = 200.0

#: per-attempt reply deadline, µs
DEFAULT_TIMEOUT_US = 50_000.0

#: retry schedule: base · 2^k, capped, jittered
DEFAULT_MAX_ATTEMPTS = 4
BACKOFF_BASE_US = 10_000.0
BACKOFF_CAP_US = 200_000.0


class RPCTimeout(Exception):
    """Every attempt of a call timed out; the outcome is ambiguous."""


class NodeDown(Exception):
    """The target node is crashed: the request falls on dead silicon."""


class ControlChannel:
    """One logical front-door↔node control link."""

    def __init__(
        self, env: Environment, name: str, latency_us: float = CONTROL_LATENCY_US
    ) -> None:
        if latency_us <= 0:
            raise ValueError("channel latency must be positive")
        self.env = env
        self.name = name
        #: trace track of the calls over this channel, built once
        self.track = f"rpc:{name}"
        self.latency_us = latency_us
        self.messages_lost = 0
        self.messages_duplicated = 0

    def lost(self) -> bool:
        """Fault oracle: is this message discarded in flight?"""
        plane = self.env.fault_plane
        if plane is not None and plane.rpc_dropped(self.name):
            self.messages_lost += 1
            return True
        return False

    def duplicated(self) -> bool:
        """Fault oracle: is this message delivered twice?"""
        plane = self.env.fault_plane
        if plane is not None and plane.rpc_duplicated(self.name):
            self.messages_duplicated += 1
            return True
        return False

    def __repr__(self) -> str:
        return f"<ControlChannel {self.name!r} {self.latency_us}us>"


class CircuitBreaker:
    """Per-node admission valve driven by the watchdog."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = "closed"
        self.opens = 0

    @property
    def closed(self) -> bool:
        return self.state == "closed"

    def open(self) -> None:
        if self.state != "open":
            self.state = "open"
            self.opens += 1

    def close(self) -> None:
        self.state = "closed"

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.name!r} {self.state}>"


#: a node-side handler: (op, payload, token) -> generator returning a reply
Handler = Callable[[str, dict, str], Generator]


class ClusterRPC:
    """Retrying, timing-out, jitter-backing-off control-plane caller."""

    def __init__(
        self,
        env: Environment,
        rng: Optional[RandomStreams] = None,
        timeout_us: float = DEFAULT_TIMEOUT_US,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base_us: float = BACKOFF_BASE_US,
        backoff_cap_us: float = BACKOFF_CAP_US,
    ) -> None:
        if timeout_us <= 0 or max_attempts < 1:
            raise ValueError("need a positive timeout and at least one attempt")
        self.env = env
        #: jitter source; drawn only when a retry actually happens, so a
        #: fault-free run consumes no randomness from it
        self.rng = rng
        self.timeout_us = timeout_us
        self.max_attempts = max_attempts
        self.backoff_base_us = backoff_base_us
        self.backoff_cap_us = backoff_cap_us
        # telemetry
        self.calls = 0
        self.attempts = 0
        self.timeouts = 0
        self.retries = 0
        self.dup_deliveries = 0
        self.replies = 0
        self.failures = 0

    def _backoff_us(self, attempt: int) -> float:
        delay = min(self.backoff_cap_us, self.backoff_base_us * (2.0 ** attempt))
        if self.rng is not None:
            # jitter in [1.0, 1.5): de-synchronizes retry storms without
            # ever shrinking the spacing below the deterministic floor
            delay *= 1.0 + 0.5 * float(self.rng.stream("cluster.rpc.jitter").random())
        return delay

    def call(
        self,
        channel: ControlChannel,
        handler: Handler,
        op: str,
        payload: dict,
        token: str,
    ) -> Generator[Any, Any, dict]:
        """Process: invoke *op* on the node behind *channel*.

        Returns the node's reply dict, or raises :class:`RPCTimeout` once
        every attempt has burned its deadline — at which point the caller
        knows only that the call *may* have executed (the reply, not the
        request, may be what was lost). Resolution of that ambiguity is
        the caller's job (the front door rescinds).
        """
        env = self.env
        obs = env.obs
        self.calls += 1
        sp = None
        if obs is not None:
            obs.count("rpc.calls", op=op, channel=channel.name)
            fields = {"token": token}
            corr = payload.get("corr")
            if corr:
                fields["corr"] = corr
            sp = obs.begin(
                f"rpc:{op}",
                track=channel.track,
                category=CLUSTER_CATEGORY,
                **fields,
            )
        for attempt in range(self.max_attempts):
            self.attempts += 1
            if obs is not None:
                obs.count("rpc.attempts", op=op, channel=channel.name)
            if channel.lost():
                # request leg discarded: burn the full deadline
                self.timeouts += 1
                if obs is not None:
                    obs.count("rpc.timeouts", op=op, channel=channel.name, leg="request")
                yield env.timeout(self.timeout_us)
            else:
                yield env.timeout(channel.latency_us)
                try:
                    if channel.duplicated():
                        # a retrying fabric delivered the request twice;
                        # the node's reply cache must absorb the extra one
                        self.dup_deliveries += 1
                        if obs is not None:
                            obs.count("rpc.dup_deliveries", channel=channel.name)
                        yield from handler(op, payload, token)
                    reply = yield from handler(op, payload, token)
                except NodeDown:
                    # dead node: the request got there and died with it
                    self.timeouts += 1
                    if obs is not None:
                        obs.count(
                            "rpc.timeouts", op=op, channel=channel.name, leg="node-down"
                        )
                    yield env.timeout(max(0.0, self.timeout_us - channel.latency_us))
                else:
                    if channel.lost():
                        # reply leg discarded: the op EXECUTED but we can't
                        # know that — the ambiguous case rescind exists for
                        self.timeouts += 1
                        if obs is not None:
                            obs.count(
                                "rpc.timeouts", op=op, channel=channel.name, leg="reply"
                            )
                        yield env.timeout(
                            max(0.0, self.timeout_us - channel.latency_us)
                        )
                    else:
                        yield env.timeout(channel.latency_us)
                        self.replies += 1
                        if obs is not None:
                            obs.count("rpc.replies", op=op, channel=channel.name)
                            obs.end(sp, outcome="reply", attempts=attempt + 1)
                        return reply
            if attempt + 1 < self.max_attempts:
                self.retries += 1
                backoff = self._backoff_us(attempt)
                if obs is not None:
                    obs.count("rpc.retries", op=op, channel=channel.name)
                    obs.observe("rpc.backoff_us", backoff, op=op)
                yield env.timeout(backoff)
        self.failures += 1
        if obs is not None:
            obs.count("rpc.failures", op=op, channel=channel.name)
            obs.end(sp, outcome="timeout", attempts=self.max_attempts)
        raise RPCTimeout(
            f"{op} on {channel.name} timed out after {self.max_attempts} attempts"
        )

    def telemetry(self) -> dict[str, int]:
        return {
            "calls": self.calls,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "dup_deliveries": self.dup_deliveries,
            "replies": self.replies,
            "failures": self.failures,
        }
