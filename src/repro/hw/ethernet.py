"""100 Mbps switched Ethernet: links, switch, and protocol-stack costs.

The paper's clients attach to the scheduler card "using a 100 Mbps Ethernet
switched interconnect". Two latency regimes matter:

* **wire/switch time** — 100 Mbps moves 12.5 bytes/µs, so a full 1500-byte
  frame occupies the wire ≈120 µs (the paper's "half an Ethernet frame
  time (≈120 µs)" yardstick for the 65 µs scheduling overhead);
* **protocol-stack traversal** — Table 4's 1.2 ms end-to-end time for a
  1000-byte frame is dominated by UDP/IP encapsulation on the 66 MHz i960
  and decapsulation at the client, not by the 2×80 µs of wire time. Stack
  costs are charged per endpoint CPU through :class:`StackCosts`.

The switch is store-and-forward: a frame is fully received on the ingress
link, then transmitted on the egress link.

Hot path: one generator per hop. :meth:`EthernetPort.send` holds its
uplink, then :meth:`EthernetSwitch.forward` holds the downlink, each
driving its :class:`EthernetLink` directly with ``wire_bytes`` computed
once per frame (the same events as a nested generator per link).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.sim import Environment, Event, Resource, Store

__all__ = ["StackCosts", "EthernetLink", "EthernetPort", "EthernetSwitch", "NetFrame"]

#: Maximum Ethernet payload per wire frame.
MTU_BYTES = 1500
#: Ethernet + IP + UDP framing overhead per wire frame.
HEADER_BYTES = 14 + 20 + 8 + 4  # MAC + IP + UDP + FCS


@dataclass(frozen=True)
class StackCosts:
    """Per-endpoint protocol processing cost: fixed + per-byte µs."""

    per_packet_us: float
    per_byte_us: float = 0.0

    def cost_us(self, nbytes: int) -> float:
        return self.per_packet_us + self.per_byte_us * nbytes


#: UDP/IP on the 66 MHz i960 under VxWorks (calibrated so a 1000-byte frame
#: travels end-to-end in ≈1.2 ms including the client stack and wire time).
I960_STACK = StackCosts(per_packet_us=550.0, per_byte_us=0.12)
#: UDP/IP on a 200 MHz host CPU (Solaris): several times faster.
HOST_STACK = StackCosts(per_packet_us=120.0, per_byte_us=0.04)
#: Client-side receive processing (Linux/Solaris desktop class).
CLIENT_STACK = StackCosts(per_packet_us=250.0, per_byte_us=0.08)


@dataclass(slots=True)
class NetFrame:
    """A network-layer payload in flight."""

    payload_bytes: int
    stream_id: Optional[str] = None
    seqno: int = 0
    sent_at: float = 0.0
    #: opaque sender payload (e.g. the MediaFrame a client will inspect)
    meta: Optional[object] = None

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire including per-MTU framing."""
        packets = max(1, (self.payload_bytes + MTU_BYTES - 1) // MTU_BYTES)
        return self.payload_bytes + packets * HEADER_BYTES


class EthernetLink:
    """A half of a switched full-duplex port: one transmit direction,
    driven by its port (uplink) or its switch (downlink)."""

    def __init__(
        self,
        env: Environment,
        name: str = "eth",
        bandwidth_mbps: float = 100.0,
        propagation_us: float = 1.0,
    ) -> None:
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.name = name
        self.bandwidth_mbps = bandwidth_mbps
        self.propagation_us = propagation_us
        self._tx = Resource(env, capacity=1, name=f"{name}.tx")
        self.bytes_sent = 0
        self.frames_sent = 0

    def wire_time_us(self, wire_bytes: int) -> float:
        return wire_bytes * 8.0 / self.bandwidth_mbps  # Mbps == bits/µs


class EthernetPort:
    """A device's attachment point: an egress link into the switch plus an
    ingress mailbox of delivered frames."""

    def __init__(self, env: Environment, name: str, bandwidth_mbps: float = 100.0) -> None:
        self.env = env
        self.name = name
        #: trace track of this port's wire and protocol-stack spans, built once
        self.track = f"net:{name}"
        self.uplink = EthernetLink(env, name=f"{name}.up", bandwidth_mbps=bandwidth_mbps)
        self.inbox: Store = Store(env, name=f"{name}.inbox")
        self.switch: Optional["EthernetSwitch"] = None

    def send(self, frame: NetFrame, dest: str) -> Generator[Event, None, float]:
        """Process: transmit *frame* to port *dest* through the switch."""
        switch = self.switch
        if switch is None:
            raise RuntimeError(f"port {self.name!r} not attached to a switch")
        env = self.env
        start = frame.sent_at = env.now
        wire_bytes = frame.wire_bytes
        obs = env.obs
        sp = None
        if obs is not None:
            fields = {"bytes": frame.payload_bytes, "dest": dest}
            if frame.stream_id is not None:
                fields["stream"] = frame.stream_id
                fields["seq"] = frame.seqno
            sp = obs.begin("wire", track=self.track, **fields)
        uplink = self.uplink
        req = uplink._tx.request()
        try:
            yield req
            yield env.timeout(uplink.wire_time_us(wire_bytes) + uplink.propagation_us)
        finally:
            uplink._tx.release(req)
        uplink.bytes_sent += wire_bytes
        uplink.frames_sent += 1
        yield from switch.forward(frame, dest, wire_bytes)
        if obs is not None:
            obs.end(sp)
            obs.count("net.frames_sent", port=self.name)
            obs.count("net.wire_bytes", wire_bytes, port=self.name)
        return env.now - start

    def receive(self) -> "Event":
        """Event: the next frame delivered to this port."""
        return self.inbox.get()


class EthernetSwitch:
    """Store-and-forward switch with one downlink per attached port.

    ``loss_rate`` injects frame loss (congestion drops, bad cabling): each
    forwarded frame is independently discarded with that probability. The
    reliable-transport substrate (:mod:`repro.net.tcp`) exists to survive
    exactly this.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "switch",
        latency_us: float = 10.0,
        loss_rate: float = 0.0,
        loss_rng=None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.env = env
        self.name = name
        #: trace track of the frames this switch loses, built once
        self.track = f"net:{name}"
        #: fixed lookup/queuing latency per forwarded frame
        self.latency_us = latency_us
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng
        self._ports: dict[str, EthernetPort] = {}
        self._downlinks: dict[str, EthernetLink] = {}
        self.frames_forwarded = 0
        self.frames_dropped = 0

    def attach(self, port: EthernetPort) -> None:
        if port.name in self._ports:
            raise ValueError(f"duplicate port name {port.name!r}")
        self._ports[port.name] = port
        self._downlinks[port.name] = EthernetLink(
            self.env,
            name=f"{self.name}->{port.name}",
            bandwidth_mbps=port.uplink.bandwidth_mbps,
        )
        port.switch = self

    def forward(self, frame: NetFrame, dest: str, wire_bytes: int) -> Generator:
        """Process: deliver *frame* (*wire_bytes* on the wire) to port *dest*."""
        try:
            port = self._ports[dest]
            downlink = self._downlinks[dest]
        except KeyError:
            raise KeyError(f"no port {dest!r} on switch {self.name!r}") from None
        env = self.env
        yield env.timeout(self.latency_us)
        obs = env.obs
        if self.loss_rate > 0.0 and self._loss_rng is not None:
            if self._loss_rng.random() < self.loss_rate:
                self.frames_dropped += 1
                if obs is not None:
                    obs.count("switch.frames_dropped", dest=dest)
                return  # frame vanishes (congestion drop)
        plane = env.fault_plane
        if plane is not None and plane.frame_lost(dest):
            self.frames_dropped += 1
            if obs is not None:
                obs.count("switch.frames_dropped", dest=dest)
                obs.instant("frame_lost", track=self.track, dest=dest)
            return  # injected fault: loss burst or partition
        req = downlink._tx.request()
        try:
            yield req
            yield env.timeout(downlink.wire_time_us(wire_bytes) + downlink.propagation_us)
        finally:
            downlink._tx.release(req)
        downlink.bytes_sent += wire_bytes
        downlink.frames_sent += 1
        self.frames_forwarded += 1
        if obs is not None:
            obs.count("switch.frames_forwarded", dest=dest)
        port.inbox.put(frame)

    @property
    def port_names(self) -> list[str]:
        return sorted(self._ports)
