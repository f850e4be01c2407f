"""Top-level cluster assembly: nodes + SAN + front door, wired for chaos.

:class:`ClusterPlane` is what an experiment builds: the PR-5
:class:`~repro.server.cluster.Cluster` topology (SAN switch, N server
nodes, SAN-facing i960 cards), each node wrapped as a
:class:`~repro.cluster.node.ClusterNode` (its own 2-card HA streaming
service and control channel), and one
:class:`~repro.cluster.frontdoor.FrontDoor` supervising the lot.

The plane also wires node-level fault detection into the cluster
:class:`~repro.metrics.perfmeter.RecoveryMeter`: the *fault* timestamp is
stamped the instant any SAN card crashes (so detection latency measures
the watchdog, not the injection plumbing); partition and brownout
scenarios — which crash nothing — stamp it themselves from the scenario
installer.
"""

from __future__ import annotations

from typing import Union

from repro.server.cluster import Cluster
from repro.sim import Environment, RandomStreams

from .frontdoor import FrontDoor
from .node import ClusterNode
from .placement import PlacementPolicy, make_policy
from .rpc import ClusterRPC

__all__ = ["ClusterPlane"]


class ClusterPlane:
    """N supervised streaming nodes behind one admission front door."""

    def __init__(
        self,
        env: Environment,
        n_nodes: int = 3,
        policy: Union[str, PlacementPolicy] = "least-loaded",
        n_cpus_per_node: int = 1,
        n_cards_per_node: int = 2,
        rng: RandomStreams | None = None,
    ) -> None:
        if n_nodes < 2:
            raise ValueError("a cluster plane needs at least two nodes")
        self.env = env
        self.cluster = Cluster(env, n_nodes, n_cpus_per_node=n_cpus_per_node)
        self.nodes = [
            ClusterNode(env, self.cluster, i, n_cards=n_cards_per_node)
            for i in range(n_nodes)
        ]
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy
        self.rpc = ClusterRPC(env, rng=rng)
        self.frontdoor = FrontDoor(env, self.cluster, self.nodes, self.rpc, policy)
        for node in self.nodes:
            # stamp the cluster-level fault instant on the first card death
            # (mark_fault is first-wins, so N cards crashing at once still
            # record one fault)
            node.san_card.on_crash.append(self._on_node_fault)

    def _on_node_fault(self) -> None:
        self.frontdoor.meter.mark_fault(self.total_violations)

    # -- cluster-wide observables --------------------------------------------
    @property
    def ledger(self):
        return self.frontdoor.ledger

    @property
    def meter(self):
        return self.frontdoor.meter

    @property
    def total_violations(self) -> int:
        return sum(node.service.total_violations for node in self.nodes)

    def node_named(self, name: str) -> ClusterNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def service_of(self, stream_id: str):
        """The HA service currently serving *stream_id* (None if unplaced)."""
        node_name = self.ledger.node_of(stream_id)
        if node_name is None:
            return None
        return self.node_named(node_name).service

    def account(self) -> dict[str, int]:
        """Ledger census plus the 'unaccounted' count the chaos scenarios
        are scored on (streams left displaced at scoring time)."""
        census = self.ledger.account()
        census["unaccounted"] = census["displaced"]
        return census

    def publish_metrics(self) -> None:
        """End-of-run gauges the SLO engine evaluates (no-op when the run
        is uninstrumented). Milestone gauges appear only when the milestone
        was actually stamped, so an unmeasured budget reads as MISSING —
        a failing verdict — rather than silently passing at zero."""
        obs = self.env.obs
        if obs is None:
            return
        meter = self.meter
        obs.registry.gauge(
            "cluster.fault_marked", 0.0 if meter.fault_at_us is None else 1.0
        )
        obs.registry.gauge(
            "cluster.recovered", 0.0 if meter.recovered_at_us is None else 1.0
        )
        det = meter.detection_latency_us
        if det is not None:
            obs.registry.gauge("cluster.detection_ms", det / 1000.0)
        mttr = meter.mttr_us
        if mttr is not None:
            obs.registry.gauge("cluster.mttr_ms", mttr / 1000.0)
        for state, count in sorted(self.account().items()):
            obs.registry.gauge("cluster.ledger", float(count), state=state)
        obs.registry.gauge("cluster.violations", float(self.total_violations))
        for key, value in self.rpc.telemetry().items():
            obs.registry.gauge(f"cluster.rpc.{key}", float(value))
        absorbed = sum(node.dup_suppressed for node in self.nodes)
        obs.registry.gauge(
            "cluster.rpc.dups_unabsorbed",
            float(max(0, self.rpc.dup_deliveries - absorbed)),
        )
        for node in self.nodes:
            obs.registry.gauge(
                "cluster.node.double_execs", float(node.double_execs), node=node.name
            )
            obs.registry.gauge(
                "cluster.node.placed",
                float(self.ledger.placed_count(node.name)),
                node=node.name,
            )

    def __repr__(self) -> str:
        return f"<ClusterPlane nodes={len(self.nodes)} policy={self.policy!r}>"
