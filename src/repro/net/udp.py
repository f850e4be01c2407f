"""UDP over the simulated Ethernet.

The paper's media delivery rides an unreliable datagram protocol resident
on the I2O boards ("host-to-host communications are supported by I2O
board-resident protocols (like TCP and UDP)"). :class:`UDPStack` is one
endpoint's protocol instance: it multiplexes numbered ports over a single
Ethernet attachment, charges the endpoint's per-packet stack cost, and —
being UDP — silently loses whatever the network loses.

The send path consults the environment's fault plane (``udp-drop`` /
``udp-dup`` windows keyed by the stack name): a dropped datagram pays its
stack cost and then vanishes before reaching the wire, a duplicated one is
framed and transmitted twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.hw.ethernet import EthernetPort, NetFrame, StackCosts
from repro.sim import Environment, Event, Store

__all__ = ["Datagram", "UDPStack"]


@dataclass
class Datagram:
    """One UDP payload as delivered to the application."""

    src_host: str
    src_port: int
    dst_port: int
    payload_bytes: int
    data: Any = None
    #: sender timestamp, µs (for latency accounting)
    sent_at: float = 0.0

#: UDP header on the wire
UDP_HEADER_BYTES = 8


class UDPStack:
    """Datagram sockets over one Ethernet attachment."""

    def __init__(
        self,
        env: Environment,
        eth_port: EthernetPort,
        stack: StackCosts,
        name: Optional[str] = None,
    ) -> None:
        self.env = env
        self.eth_port = eth_port
        self.stack = stack
        self.name = name or f"udp:{eth_port.name}"
        self._sockets: dict[int, Store] = {}
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.no_socket_drops = 0
        self.datagrams_dropped = 0
        self.datagrams_duplicated = 0
        # Pre-resolved hook slots: one instance-attribute load per datagram
        # instead of chasing env.obs/env.fault_plane on every send. Planes
        # may install after construction (chaos wires the fault plane once
        # the stacks exist), so a watcher re-resolves the cache on bind.
        self._obs = env.obs
        self._fault_plane = env.fault_plane
        env.add_hook_watcher(self._resolve_hooks)
        env.process(self._demux(), name=f"{self.name}.demux")

    def _resolve_hooks(self, env: Environment) -> None:
        self._obs = env.obs
        self._fault_plane = env.fault_plane

    # -- socket API ----------------------------------------------------------
    def bind(self, port: int) -> Store:
        """Open a receive queue on *port*; returns the queue (get() events)."""
        if port in self._sockets:
            raise ValueError(f"udp port {port} already bound on {self.name}")
        queue = Store(self.env, name=f"{self.name}:{port}")
        self._sockets[port] = queue
        return queue

    def close(self, port: int) -> None:
        if port not in self._sockets:
            raise KeyError(f"udp port {port} not bound")
        del self._sockets[port]

    def sendto(
        self,
        payload_bytes: int,
        dest_host: str,
        dest_port: int,
        src_port: int = 0,
        data: Any = None,
    ) -> Generator[Event, None, None]:
        """Process: transmit one datagram (no delivery guarantee)."""
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        obs = self._obs
        sp = (
            obs.begin(
                "stack",
                track=self.eth_port.track,
                proto="udp",
                bytes=payload_bytes,
            )
            if obs is not None
            else None
        )
        yield self.env.timeout(self.stack.cost_us(payload_bytes))
        if obs is not None:
            obs.end(sp)
        plane = self._fault_plane
        if plane is not None and plane.datagram_dropped(self.name):
            self.datagrams_dropped += 1
            if obs is not None:
                obs.count("udp.datagrams_dropped", stack=self.name)
            return
        dgram = Datagram(
            src_host=self.eth_port.name,
            src_port=src_port,
            dst_port=dest_port,
            payload_bytes=payload_bytes,
            data=data,
            sent_at=self.env.now,
        )
        frame = NetFrame(
            payload_bytes=payload_bytes + UDP_HEADER_BYTES,
            stream_id=f"udp:{dest_port}",
            meta=dgram,
        )
        self.datagrams_sent += 1
        if obs is not None:
            obs.count("udp.datagrams_sent", stack=self.name)
        yield from self.eth_port.send(frame, dest_host)
        if plane is not None and plane.datagram_duplicated(self.name):
            self.datagrams_duplicated += 1
            dup = NetFrame(
                payload_bytes=payload_bytes + UDP_HEADER_BYTES,
                stream_id=f"udp:{dest_port}",
                meta=dgram,
            )
            yield from self.eth_port.send(dup, dest_host)

    # -- receive path ---------------------------------------------------------
    def _demux(self) -> Generator:
        while True:
            frame: NetFrame = yield self.eth_port.receive()
            meta = frame.meta
            if not isinstance(meta, Datagram):
                continue  # not UDP traffic (shared attachment)
            yield self.env.timeout(self.stack.cost_us(meta.payload_bytes))
            queue = self._sockets.get(meta.dst_port)
            if queue is None:
                self.no_socket_drops += 1
                continue
            self.datagrams_received += 1
            queue.put_nowait(meta)

    def __repr__(self) -> str:
        return (
            f"<UDPStack {self.name!r} sent={self.datagrams_sent} "
            f"rcvd={self.datagrams_received}>"
        )
