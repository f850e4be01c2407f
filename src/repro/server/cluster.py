"""Cluster-scale assembly (Figure 1).

"This paper employs a server configured as 16 quad Pentium Pro nodes
connected via I2O-based NIs" — nodes whose i960 RD cards connect to a
system-area switch, with media streams flowing between nodes through the
NIs without host involvement. :class:`Cluster` builds that topology and
provides the inter-node frame path ("for distributed implementations of
media streams on the cluster server, traffic elimination also occurs for
media streams entering the NI from the network").
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hw.ethernet import EthernetSwitch, NetFrame
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
        #: frames that reached a SAN card after it crashed (lost at the NI)
        self.frames_lost_to_crash = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def probe_node(self, node_idx: int) -> Generator[Event, None, bool]:
        """Process: PCI status probe of a node's SAN card (see
        :meth:`repro.hw.nic.I960RDCard.status_probe`) — the cluster-level
        health sweep a failure detector runs before declaring a node's NI
        dead rather than partitioned."""
        alive = yield from self.san_cards[node_idx].status_probe()
        return alive

    def san_port_name(self, node_idx: int) -> str:
        return self.san_cards[node_idx].eth_ports[1].name

    def send_between_nodes(
        self,
        src_idx: int,
        dst_idx: int,
        nbytes: int,
        stream_id: Optional[str] = None,
        seqno: int = 0,
    ) -> Generator[Event, None, float]:
        """Process: move a frame NI-to-NI across the SAN.

        The frame leaves the source card and enters the destination card
        without either host's CPU, memory, or system bus being involved —
        the cluster-scale version of traffic elimination. Returns latency.
        """
        if src_idx == dst_idx:
            raise ValueError("source and destination nodes must differ")
        env = self.env
        src, dst = self.san_cards[src_idx], self.san_cards[dst_idx]
        if src.crashed:
            # fail fast, like the host-side VCMPeerDown path: a wedged
            # source card cannot encapsulate, so don't charge wire time
            raise RuntimeError(f"{src.name}: source SAN card is down")
        start = env.now
        yield env.timeout(src.stack.cost_us(nbytes))  # NI-side encapsulation
        frame = NetFrame(payload_bytes=nbytes, stream_id=stream_id, seqno=seqno)
        yield from src.eth_ports[1].send(frame, self.san_port_name(dst_idx))
        if dst.crashed:
            # the wire delivered, the dead card didn't: frame lost at the
            # NI (drain the inbox so the port doesn't wedge)
            yield dst.eth_ports[1].receive()
            self.frames_lost_to_crash += 1
            return env.now - start
        yield env.timeout(dst.stack.cost_us(nbytes))  # NI-side decapsulation
        # drain the destination inbox (delivery complete)
        yield dst.eth_ports[1].receive()
        return env.now - start

    def host_bus_traffic(self) -> dict[str, int]:
        """Per-node host-system-bus byte counts (zero for NI-to-NI flows)."""
        return {node.name: node.system_bus.bytes_transferred for node in self.nodes}
