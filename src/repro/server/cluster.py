"""Cluster-scale assembly (Figure 1).

"This paper employs a server configured as 16 quad Pentium Pro nodes
connected via I2O-based NIs" — nodes whose i960 RD cards connect to a
system-area switch. :class:`Cluster` builds that topology: one switch and
N server nodes, each with one SAN-facing card, plus the card status probe
a failure detector runs. The cluster plane (:mod:`repro.cluster`) builds
its supervised nodes, front door and RPC on top of it.
"""

from __future__ import annotations

from typing import Generator

from repro.hw.ethernet import EthernetSwitch
from repro.hw.nic import I960RDCard
from repro.sim import Environment, Event

from .node import ServerNode

__all__ = ["Cluster"]


class Cluster:
    """A switch plus N server nodes, each with one SAN-facing i960 card."""

    def __init__(
        self,
        env: Environment,
        n_nodes: int,
        n_cpus_per_node: int = 4,
        name: str = "cluster",
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.env = env
        self.name = name
        #: the system-area network switch (100 Mbps switched Ethernet here,
        #: standing in for the SAN of the paper's testbed)
        self.san = EthernetSwitch(env, name=f"{name}.san")
        self.nodes: list[ServerNode] = []
        self.san_cards: list[I960RDCard] = []
        for i in range(n_nodes):
            node = ServerNode(env, name=f"{name}.n{i}", n_cpus=n_cpus_per_node)
            card = node.add_i960_card(segment=0)
            # port 1 faces the SAN; port 0 stays free for client delivery
            self.san.attach(card.eth_ports[1])
            self.nodes.append(node)
            self.san_cards.append(card)

    def probe_node(self, node_idx: int) -> Generator[Event, None, bool]:
        """Process: PCI status probe of a node's SAN card (see
        :meth:`repro.hw.nic.I960RDCard.status_probe`) — the cluster-level
        health sweep a failure detector runs before declaring a node's NI
        dead rather than partitioned."""
        alive = yield from self.san_cards[node_idx].status_probe()
        return alive
