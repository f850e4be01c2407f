"""One cluster member: a server node wrapped for front-door supervision.

A :class:`ClusterNode` owns

* the underlying :class:`~repro.server.node.ServerNode` and its SAN-facing
  i960 card (both built by :class:`~repro.server.cluster.Cluster`),
* a node-local client edge switch and a 2-card
  :class:`~repro.server.failover.HAStreamingService` — so the PR-2
  intra-node failover plane (per-card watchdogs, checkpoint mirroring,
  headroom-first migration) keeps working *inside* every cluster member,
* the :class:`~repro.cluster.rpc.ControlChannel` to the front door, the
  node-side control executor with its **at-most-once reply cache**, and
  the heartbeat sender the front door's watchdog listens to.

Node death is *cards dying*, not objects disappearing: a FaultPlane
``schedule_node_crash`` crashes the scheduler cards and the SAN card
(:attr:`ClusterNode.critical_cards`), after which the node stops beating,
its control executor raises :class:`~repro.cluster.rpc.NodeDown`, the SAN
health probe reports dead, and the service's own watchdogs park every
local stream (retiring the producers). Producer cards are deliberately
left out — their frames simply have nowhere to go, which is the
observable symptom, not the mechanism.
"""

from __future__ import annotations

from typing import Generator

from repro.hw.ethernet import EthernetSwitch
from repro.hw.nic import I960RDCard
from repro.obs.plane import CLUSTER_CATEGORY
from repro.server.cluster import Cluster
from repro.server.failover import HAStreamingService
from repro.sim import Environment

from .rpc import ControlChannel, NodeDown

__all__ = ["ClusterNode", "CONTROL_EXEC_US", "NODE_BEAT_INTERVAL_US"]

#: host-side execution cost of one control op (decode + ledger touch), µs
CONTROL_EXEC_US = 50.0

#: node → front-door heartbeat period, µs. With the watchdog's default
#: K=3 missed beats + 20 % grace this makes worst-case node-loss
#: detection 3·200 ms + 40 ms = 640 ms plus one probe round trip —
#: inside the 800 ms budget the cluster experiment asserts.
NODE_BEAT_INTERVAL_US = 200_000.0


class ClusterNode:
    """A supervised server node behind the admission front door."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        index: int,
        n_cards: int = 2,
    ) -> None:
        self.env = env
        self.index = index
        self.server = cluster.nodes[index]
        self.san_card: I960RDCard = cluster.san_cards[index]
        self.name = self.server.name
        #: trace tracks of its control executor and its health, built once
        self.control_track = f"{self.name}:control"
        self.health_track = f"{self.name}:health"
        #: node-local delivery edge (clients hang off this, not the SAN)
        self.edge = EthernetSwitch(env, name=f"{self.name}.edge")
        self.service = HAStreamingService(env, self.server, self.edge, n_cards=n_cards)
        self.channel = ControlChannel(env, name=f"fd<->{self.name}")
        #: at-most-once layer: token -> reply already produced
        self._replies: dict[str, dict] = {}
        #: admit tokens rescinded before ever executing — a late duplicate
        #: of such an admit must refuse, not place
        self._poisoned: set[str] = set()
        self.beats_sent = 0
        self.dup_suppressed = 0
        self.rescinds_undone = 0
        self.streams_admitted = 0
        #: queued-but-unsent frames discarded by rescind/evict teardown
        self.frames_discarded = 0
        #: tokens whose op actually executed (committed) on this node —
        #: the sentinel behind the at-most-once SLO: a token appearing
        #: here twice is a double execution, which must never happen
        self._executed: set[str] = set()
        self.double_execs = 0

    # -- health --------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self.san_card.crashed

    @property
    def critical_cards(self) -> list[I960RDCard]:
        """The cards a node-level crash takes down: schedulers + SAN."""
        return [rt.card for rt in self.service.runtimes] + [self.san_card]

    @property
    def headroom(self) -> float:
        """Summed admission headroom of the live scheduler cards."""
        if self.crashed:
            return 0.0
        return sum(
            rt.admission.headroom()
            for rt in self.service.runtimes
            if not rt.card.crashed
        )

    # -- heartbeats ----------------------------------------------------------
    def start_beats(self, watchdog, interval_us: float = NODE_BEAT_INTERVAL_US) -> None:
        """Beacon toward the front door's *watchdog* over the control
        channel — so a channel partition silences the node exactly like a
        crash does, and only the out-of-band SAN probe can tell the two
        apart."""

        def loop() -> Generator:
            while True:
                yield self.env.timeout(interval_us)
                if self.crashed:
                    # skip, don't retire: a flapping node that resets inside
                    # the watchdog deadline must resume beating (ride-out)
                    continue
                self.beats_sent += 1
                obs = self.env.obs
                if obs is not None:
                    obs.count("node.beats_sent", node=self.name)
                if not self.channel.lost():
                    self.env.schedule_callback(
                        self.channel.latency_us,
                        watchdog.record_beat,
                        name=f"beat:{self.name}",
                    )

        self.env.process(loop(), name=f"beat:{self.name}")

    # -- the control executor ------------------------------------------------
    def exec_control(self, op: str, payload: dict, token: str) -> Generator:
        """Process: execute one control op exactly once per token.

        A retried or fabric-duplicated delivery of a token that already
        executed returns the cached reply without re-executing — the
        node-side half of at-most-once placement.
        """
        obs = self.env.obs
        if self.crashed:
            raise NodeDown(self.name)
        cached = self._replies.get(token)
        if cached is not None:
            self.dup_suppressed += 1
            if obs is not None:
                obs.count("node.dup_suppressed", node=self.name, op=op)
            return cached
        sp = None
        if obs is not None:
            fields = {"token": token}
            corr = payload.get("corr")
            if corr:
                fields["corr"] = corr
            sp = obs.begin(
                f"ctl:{op}",
                track=self.control_track,
                category=CLUSTER_CATEGORY,
                **fields,
            )
        yield self.env.timeout(CONTROL_EXEC_US)
        if self.crashed:
            # died mid-decode: the op never commits
            if obs is not None:
                obs.end(sp, outcome="node-down")
            raise NodeDown(self.name)
        if token in self._executed:
            # must be unreachable (the reply cache intercepts repeats);
            # counted rather than asserted so the SLO engine can prove it
            self.double_execs += 1
            if obs is not None:
                obs.count("node.double_execs", node=self.name, op=op)
        self._executed.add(token)
        reply = self._execute(op, payload, token)
        self._replies[token] = reply
        if obs is not None:
            obs.end(sp, outcome="ok" if reply.get("ok") else "refused")
            obs.count(
                "node.control_ops",
                node=self.name,
                op=op,
                outcome="ok" if reply.get("ok") else "refused",
            )
        return reply

    def _execute(self, op: str, payload: dict, token: str) -> dict:
        if op == "admit":
            return self._admit(payload, token)
        if op == "rescind":
            return self._rescind(payload)
        if op == "evict":
            return self._evict(payload)
        return {"ok": False, "reason": f"unknown control op {op!r}"}

    def _admit(self, payload: dict, token: str) -> dict:
        if token in self._poisoned:
            # the front door gave up on this admit and rescinded it while
            # the request was lost; a late duplicate must not place
            return {"ok": False, "reason": "admit token rescinded"}
        spec = payload["spec"]
        stream_id = spec.stream_id
        cost_us = payload["service_time_us"]
        tier = payload.get("tier", "full")
        if tier == "degraded":
            cost_us *= payload.get("degraded_fraction", 0.5)
        client = f"client_{stream_id}"
        if client not in self.service.clients:
            self.service.attach_client(client)
        # a stream rescinded off this node earlier may come back; clear
        # the local retirement marker before re-opening
        self.service.parked_streams.discard(stream_id)
        try:
            self.service.open_stream(spec, client, service_time_us=cost_us)
        except RuntimeError as exc:
            return {"ok": False, "reason": str(exc)}
        if tier == "degraded":
            # anchor-frames-only rendition: the producer sheds B-frames
            self.service.degraded_streams.add(stream_id)
        self.service.start_producer(
            payload["file"],
            inject_gap_us=payload.get("inject_gap_us", 1_000.0),
            prebuffer_frames=payload.get("prebuffer_frames", 0),
        )
        self.streams_admitted += 1
        corr = payload.get("corr")
        if corr:
            self.service.corr_of[stream_id] = corr
        obs = self.env.obs
        if obs is not None:
            obs.count("node.streams_admitted", node=self.name, tier=tier)
        return {"ok": True, "node": self.name, "tier": tier}

    def _rescind(self, payload: dict) -> dict:
        """Resolve an ambiguous admit: undo it if it executed, poison the
        token if it never arrived. Either way the front door afterwards
        *knows* this node does not serve the stream."""
        admit_token = payload["admit_token"]
        prior = self._replies.get(admit_token)
        if prior is None or not prior.get("ok"):
            self._poisoned.add(admit_token)
            return {"ok": True, "undone": False}
        self._undo_stream(payload["stream_id"])
        self.rescinds_undone += 1
        return {"ok": True, "undone": True}

    def _evict(self, payload: dict) -> dict:
        """Graceful removal (handoff source side)."""
        stream_id = payload["stream_id"]
        if self.service.runtime_of(stream_id) is None:
            return {"ok": False, "reason": f"stream {stream_id!r} not here"}
        self._undo_stream(stream_id)
        return {"ok": True, "node": self.name}

    def _undo_stream(self, stream_id: str) -> None:
        """Remove every local trace of a stream (idempotent)."""
        service = self.service
        runtime = service.runtime_of(stream_id)
        # parked marker first: the producer retires on its next route poll
        service.parked_streams.add(stream_id)
        if runtime is not None:
            if stream_id in runtime.scheduler.streams:
                # queued frame bodies go down with the eviction — drain
                # before teardown (remove_stream refuses a non-empty queue)
                queue = runtime.scheduler.queues[stream_id]
                obs = self.env.obs
                while len(queue):
                    queue.pop(runtime.scheduler.ops)
                    self.frames_discarded += 1
                    if obs is not None:
                        obs.count("node.frames_discarded", node=self.name)
                runtime.scheduler.remove_stream(stream_id)
            try:
                runtime.admission.release(stream_id)
            except KeyError:
                pass
        service._runtime_of.pop(stream_id, None)
        service._spec_of.pop(stream_id, None)
        service._service_time_of.pop(stream_id, None)
        if stream_id in service.placement_order:
            service.placement_order.remove(stream_id)
        service.degraded_streams.discard(stream_id)

    def __repr__(self) -> str:
        return (
            f"<ClusterNode {self.name!r} crashed={self.crashed} "
            f"admitted={self.streams_admitted}>"
        )
