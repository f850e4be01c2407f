"""The fault-tolerant admission front door.

One logical admission point for the whole cluster. Every stream enters
through :meth:`FrontDoor.admit_stream`; the front door owns the
cluster-wide :class:`~repro.cluster.ledger.ClusterLedger`, ranks nodes
through a pluggable :class:`~repro.cluster.placement.PlacementPolicy`,
and talks to nodes only through the hardened
:class:`~repro.cluster.rpc.ClusterRPC` (timeouts, capped backoff with
jitter, token-deduplicated delivery).

**Backpressure tiers.** Admission walks ``full → degraded → parked``:
first every healthy node is offered the stream at full rate; if all
refuse, the sweep repeats at the degraded rendition (anchor frames only,
half the reserved service time); if that fails too the stream parks and
holds no capacity anywhere. Nothing is silently dropped — the ledger
ends every stream in exactly one state.

**At-most-once placement.** The RPC layer's token cache absorbs
duplicated deliveries; what it cannot absorb is a call whose *reply* was
lost — the admit executed but the front door cannot know. Before trying
another node the front door therefore **rescinds** the ambiguous token:
the node either undoes the placement (it had executed) or poisons the
token (a late duplicate now refuses). Only a successful rescind lets
placement move on; if even the rescind times out the stream parks rather
than risk serving from two nodes. Double placement is additionally
backstopped by the ledger, which raises on a second ``place``.

**Node supervision.** Each node beacons over its control channel into a
per-node :class:`~repro.ha.watchdog.Watchdog` whose classification probe
crosses the SAN (out of band with the control path): silent + probe-dead
means the node crashed — open the circuit breaker and fail over every
ledgered stream; silent + probe-alive means the control path is
partitioned — open the breaker (no *new* placements) but migrate nothing,
because the node is still serving its streams.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.core.attributes import StreamSpec
from repro.ha.watchdog import Watchdog
from repro.media.mpeg import MPEGFile
from repro.metrics.perfmeter import RecoveryMeter
from repro.obs.plane import CLUSTER_CATEGORY
from repro.server.cluster import Cluster
from repro.sim import Environment

from .ledger import ClusterLedger
from .node import NODE_BEAT_INTERVAL_US, ClusterNode
from .placement import NodeView, PlacementPolicy
from .rpc import CircuitBreaker, ClusterRPC, RPCTimeout

__all__ = ["FrontDoor", "DEGRADED_ADMIT_FRACTION", "PROBE_RTT_US"]

#: service-time fraction reserved for a degraded-tier admission (the
#: anchor-frames-only rendition roughly halves the frame rate)
DEGRADED_ADMIT_FRACTION = 0.5

#: out-of-band health probe round trip across the SAN, µs
PROBE_RTT_US = 400.0


class FrontDoor:
    """Cluster admission controller, failure detector, and failover driver."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        nodes: Sequence[ClusterNode],
        rpc: ClusterRPC,
        policy: PlacementPolicy,
        beat_interval_us: float = NODE_BEAT_INTERVAL_US,
        k_missed: int = 3,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.nodes = list(nodes)
        self.rpc = rpc
        self.policy = policy
        self.ledger = ClusterLedger()
        self.meter = RecoveryMeter(env, name="cluster-recovery")
        #: everything needed to re-admit a stream elsewhere later
        self._stream_info: dict[str, dict] = {}
        self._token_seq = 0
        self.breakers: list[CircuitBreaker] = []
        self.watchdogs: list[Watchdog] = []
        # telemetry
        self.admits_requested = 0
        self.ambiguous_admits = 0
        self.rescind_parks = 0
        self.handoffs = 0
        self.failovers = 0
        for index, node in enumerate(self.nodes):
            breaker = CircuitBreaker(node.name)
            watchdog = Watchdog(
                env,
                node.san_card,
                interval_us=beat_interval_us,
                k_missed=k_missed,
                probe=self._make_probe(index),
                name=f"fd.watchdog:{node.name}",
            )
            watchdog.on_dead.append(lambda i=index: self._node_died(i))
            watchdog.on_partition.append(lambda i=index: self._node_partitioned(i))
            watchdog.on_recovered.append(lambda i=index: self._node_recovered(i))
            node.start_beats(watchdog, interval_us=beat_interval_us)
            self.breakers.append(breaker)
            self.watchdogs.append(watchdog)

    # -- supervision ---------------------------------------------------------
    def _make_probe(self, index: int):
        """Out-of-band classifier: cross the SAN, PIO-read the node's card."""

        def probe() -> Generator:
            yield self.env.timeout(PROBE_RTT_US)
            alive = yield from self.cluster.probe_node(index)
            return alive

        return probe

    def _breaker_transition(self, index: int, to: str, cause: str) -> None:
        obs = self.env.obs
        if obs is not None:
            node = self.nodes[index].name
            obs.count("frontdoor.breaker_transitions", node=node, to=to, cause=cause)
            obs.instant(
                f"node_{cause}", track=self.nodes[index].health_track, node=node
            )

    def _node_died(self, index: int) -> None:
        self.breakers[index].open()
        self._breaker_transition(index, "open", "dead")
        self.meter.mark_detected()
        self.failovers += 1
        self.env.process(
            self._failover(index), name=f"fd.failover:{self.nodes[index].name}"
        )

    def _node_partitioned(self, index: int) -> None:
        # the node still serves its streams; stop *new* placements only —
        # migrating off a healthy node would double-serve once it heals
        self.breakers[index].open()
        self._breaker_transition(index, "open", "partitioned")
        self.meter.mark_partition()
        self.meter.mark_detected()

    def _node_recovered(self, index: int) -> None:
        self.breakers[index].close()
        self._breaker_transition(index, "closed", "recovered")

    def healthy_views(self, exclude: frozenset[int] = frozenset()) -> list[NodeView]:
        """Nodes placement may currently consider."""
        return [
            NodeView(
                index=index,
                name=node.name,
                headroom=node.headroom,
                streams=self.ledger.placed_count(node.name),
            )
            for index, node in enumerate(self.nodes)
            if index not in exclude
            and self.breakers[index].closed
            and self.watchdogs[index].state != "dead"
        ]

    # -- admission -----------------------------------------------------------
    def admit_stream(
        self,
        spec: StreamSpec,
        service_time_us: float,
        file: MPEGFile,
        inject_gap_us: float = 1_000.0,
        prebuffer_frames: int = 0,
    ) -> Generator[object, object, Optional[str]]:
        """Process: admit one stream through the tiered front door.

        Returns the admission tier (``"full"`` / ``"degraded"``) or None
        if the stream parked.
        """
        self.admits_requested += 1
        # the cluster-wide correlation id: every span this stream's life
        # produces anywhere in the cluster (admit, place, RPC, migrate,
        # re-admit) carries it, which is what lets the Perfetto export
        # stitch a cross-node causal track out of per-node events
        corr = f"{spec.stream_id}#{self.admits_requested}"
        track = f"stream:{spec.stream_id}"
        self._stream_info[spec.stream_id] = {
            "spec": spec,
            "service_time_us": service_time_us,
            "file": file,
            "inject_gap_us": inject_gap_us,
            "prebuffer_frames": prebuffer_frames,
            "corr": corr,
            "track": track,  # of every span of this stream, built once
        }
        obs = self.env.obs
        t0 = self.env.now
        sp = (
            obs.begin(
                "admit",
                track=track,
                category=CLUSTER_CATEGORY,
                corr=corr,
            )
            if obs is not None
            else None
        )
        tier = yield from self._place(spec.stream_id, parent_span=sp)
        if obs is not None:
            outcome = tier if tier is not None else "parked"
            obs.end(sp, tier=outcome)
            obs.count(
                "frontdoor.admissions", tier=outcome, policy=self.policy.name
            )
            obs.observe(
                "frontdoor.placement_latency_us",
                self.env.now - t0,
                policy=self.policy.name,
                tier=outcome,
            )
        return tier

    def _park(self, stream_id: str, reason: str, corr: str) -> None:
        self.ledger.park(stream_id)
        self.meter.parked.append(stream_id)
        obs = self.env.obs
        if obs is not None:
            obs.count("frontdoor.parks", reason=reason)
            obs.instant(
                "parked", track=self._stream_info[stream_id]["track"], corr=corr,
                reason=reason,
            )

    def _place(
        self,
        stream_id: str,
        exclude: frozenset[int] = frozenset(),
        prefer: Optional[int] = None,
        parent_span: Optional[int] = None,
    ) -> Generator[object, object, Optional[str]]:
        """Process: walk the backpressure tiers across healthy nodes.

        On success the ledger records the placement and the tier is
        returned; on total refusal the stream parks. A node whose admit
        turned ambiguous is rescinded and then excluded from the rest of
        this placement — re-admitting where a just-undone producer may
        still be draining would race the route poll.
        """
        info = self._stream_info[stream_id]
        corr = info.get("corr", stream_id)
        obs = self.env.obs
        burned = set(exclude)
        for tier in ("full", "degraded"):
            views = self.healthy_views(frozenset(burned))
            order = self.policy.order(stream_id, views)
            if prefer is not None and prefer in order:
                order = [prefer] + [i for i in order if i != prefer]
            for index in order:
                node = self.nodes[index]
                token = f"admit:{stream_id}:{self._token_seq}"
                self._token_seq += 1
                payload = {
                    "spec": info["spec"],
                    "service_time_us": info["service_time_us"],
                    "tier": tier,
                    "degraded_fraction": DEGRADED_ADMIT_FRACTION,
                    "file": info["file"],
                    "inject_gap_us": info["inject_gap_us"],
                    "prebuffer_frames": info["prebuffer_frames"],
                    "corr": corr,
                }
                sp = (
                    obs.begin(
                        "place",
                        track=info["track"],
                        parent=parent_span,
                        category=CLUSTER_CATEGORY,
                        corr=corr,
                        node=node.name,
                        tier=tier,
                    )
                    if obs is not None
                    else None
                )
                try:
                    reply = yield from self.rpc.call(
                        node.channel, node.exec_control, "admit", payload, token
                    )
                except RPCTimeout:
                    self.ambiguous_admits += 1
                    if obs is not None:
                        obs.end(sp, outcome="ambiguous")
                        obs.count(
                            "frontdoor.place_attempts",
                            outcome="ambiguous",
                            node=node.name,
                            tier=tier,
                        )
                    undone = yield from self._rescind(node, token, stream_id, corr)
                    if not undone:
                        # cannot prove the admit didn't land there: placing
                        # anywhere else could double-serve, so park
                        self.rescind_parks += 1
                        self._park(stream_id, "rescind", corr)
                        return None
                    burned.add(index)
                    continue
                outcome = "placed" if reply.get("ok") else "refused"
                if obs is not None:
                    obs.end(sp, outcome=outcome)
                    obs.count(
                        "frontdoor.place_attempts",
                        outcome=outcome,
                        node=node.name,
                        tier=tier,
                    )
                if reply.get("ok"):
                    self.ledger.place(stream_id, node.name, tier)
                    return tier
                # refused (no headroom / rescinded token): next candidate
        self._park(stream_id, "capacity", corr)
        return None

    def _rescind(
        self, node: ClusterNode, admit_token: str, stream_id: str, corr: str = ""
    ) -> Generator[object, object, bool]:
        """Process: resolve an ambiguous admit on *node*. True iff the
        front door now *knows* the node does not serve the stream."""
        token = f"{admit_token}/rescind"
        payload = {"admit_token": admit_token, "stream_id": stream_id, "corr": corr}
        obs = self.env.obs
        sp = (
            obs.begin(
                "rescind",
                track=self._stream_info[stream_id]["track"],
                category=CLUSTER_CATEGORY,
                corr=corr,
                node=node.name,
            )
            if obs is not None
            else None
        )
        try:
            reply = yield from self.rpc.call(
                node.channel, node.exec_control, "rescind", payload, token
            )
        except RPCTimeout:
            if obs is not None:
                obs.end(sp, outcome="timeout")
                obs.count("frontdoor.rescinds", outcome="timeout", node=node.name)
            return False
        resolved = bool(reply.get("ok"))
        if obs is not None:
            outcome = "resolved" if resolved else "refused"
            obs.end(sp, outcome=outcome)
            obs.count("frontdoor.rescinds", outcome=outcome, node=node.name)
        return resolved

    # -- failover ------------------------------------------------------------
    def _failover(self, index: int) -> Generator:
        """Process: re-home every stream the dead node was serving.

        Least loss-tolerant streams re-admit first (they need service
        most); admission order breaks ties. Streams no survivor can take
        park rather than vanish — the ledger accounts for every one.
        """
        node = self.nodes[index]
        victims = self.ledger.streams_on(node.name)
        obs = self.env.obs
        fsp = (
            obs.begin(
                "failover",
                track=node.health_track,
                category=CLUSTER_CATEGORY,
                node=node.name,
                victims=len(victims),
            )
            if obs is not None
            else None
        )

        def urgency(stream_id: str) -> tuple[float, int]:
            spec = self._stream_info[stream_id]["spec"]
            tolerance = spec.loss_x / spec.loss_y if spec.loss_y else 0.0
            return (tolerance, self.ledger.entry(stream_id).seq)

        victims.sort(key=urgency)
        for stream_id in victims:
            self.ledger.displace(stream_id)
        for stream_id in victims:
            corr = self._stream_info[stream_id].get("corr", stream_id)
            msp = (
                obs.begin(
                    "migrate",
                    track=self._stream_info[stream_id]["track"],
                    parent=fsp,
                    category=CLUSTER_CATEGORY,
                    corr=corr,
                    source=node.name,
                )
                if obs is not None
                else None
            )
            tier = yield from self._place(
                stream_id, exclude=frozenset({index}), parent_span=msp
            )
            if obs is not None:
                outcome = tier if tier is not None else "parked"
                obs.end(msp, tier=outcome)
                obs.count("frontdoor.migrations", outcome=outcome, source=node.name)
            if tier is not None:
                self.meter.migrated.append(stream_id)
                if tier == "degraded":
                    self.meter.degraded.append(stream_id)
        self.meter.mark_recovered()
        if obs is not None:
            obs.end(fsp, migrated=len(self.meter.migrated))

    # -- graceful inter-node handoff ------------------------------------------
    def handoff(
        self, stream_id: str, target_index: int
    ) -> Generator[object, object, Optional[str]]:
        """Process: move a live stream to *target_index* (rebalancing).

        Evicts through the source node's control executor (which drives
        the PR-2 park/retire machinery under the service), then re-admits
        preferring the target. Returns the new tier, or None if the
        stream ended up parked."""
        source_name = self.ledger.node_of(stream_id)
        if source_name is None:
            raise ValueError(f"stream {stream_id!r} is not placed anywhere")
        source = next(n for n in self.nodes if n.name == source_name)
        corr = self._stream_info[stream_id].get("corr", stream_id)
        obs = self.env.obs
        sp = (
            obs.begin(
                "handoff",
                track=self._stream_info[stream_id]["track"],
                category=CLUSTER_CATEGORY,
                corr=corr,
                source=source.name,
                target=self.nodes[target_index].name,
            )
            if obs is not None
            else None
        )
        token = f"evict:{stream_id}:{self._token_seq}"
        self._token_seq += 1
        try:
            yield from self.rpc.call(
                source.channel,
                source.exec_control,
                "evict",
                {"stream_id": stream_id, "corr": corr},
                token,
            )
        except RPCTimeout:
            # source unreachable: leave placement alone, let the watchdog
            # decide whether this is a partition or a death
            if obs is not None:
                obs.end(sp, outcome="source-unreachable")
                obs.count("frontdoor.handoff_attempts", outcome="source-unreachable")
            return self.ledger.entry(stream_id).tier
        self.ledger.displace(stream_id)
        self.handoffs += 1
        tier = yield from self._place(stream_id, prefer=target_index, parent_span=sp)
        if obs is not None:
            outcome = tier if tier is not None else "parked"
            obs.end(sp, tier=outcome)
            obs.count("frontdoor.handoff_attempts", outcome=outcome)
        return tier

    def __repr__(self) -> str:
        return (
            f"<FrontDoor nodes={len(self.nodes)} "
            f"placed={self.ledger.total_placed}>"
        )
