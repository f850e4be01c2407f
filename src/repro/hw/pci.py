"""PCI I/O bus segments, PIO, and peer-to-peer DMA.

Table 5 of the paper fixes the three primitive costs this module models:

* bulk DMA moves data at ≈66.27 MB/s (a 773 665-byte MPEG file in
  11 673.84 µs);
* programmed I/O reads of a 32-bit word cost ≈3.6 µs, writes ≈3.1 µs;
* a 1000-byte card-to-card frame DMA lands at ≈15 µs (Table 4's "0.015pci"
  component — arbitration plus burst).

Peer-to-peer DMA between two cards on the same segment never touches the
host: that is what makes paths B and C eliminate host-bus and host-memory
traffic. A transfer that *does* involve host memory (path A) must cross both
the PCI segment and the host system bus through the bridge.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Environment, Event

from .bus import Bus

__all__ = ["PCISegment", "PCIBridge", "DMAEngine", "PIO_READ_US", "PIO_WRITE_US"]

#: Table 5 programmed-I/O costs for one 32-bit word.
PIO_READ_US = 3.6
PIO_WRITE_US = 3.1


class PCISegment(Bus):
    """One PCI bus segment (32-bit/33 MHz class, effective ≈66 MB/s)."""

    def __init__(
        self,
        env: Environment,
        name: str = "pci0",
        bandwidth_mb_s: float = 66.27,
        arbitration_us: float = 0.5,
        pio_read_us: float = PIO_READ_US,
        pio_write_us: float = PIO_WRITE_US,
    ) -> None:
        super().__init__(
            env,
            name,
            bandwidth_mb_s=bandwidth_mb_s,
            per_transaction_us=arbitration_us,
            width_bytes=4,
        )
        self.pio_read_us = pio_read_us
        self.pio_write_us = pio_write_us
        self.devices: list[object] = []

    def attach(self, device: object) -> None:
        """Register a card/controller on this segment."""
        if device in self.devices:
            raise ValueError(f"{device!r} already attached to {self.name}")
        self.devices.append(device)

    # -- programmed I/O ---------------------------------------------------------
    def pio_read(self, priority: float = 0.0) -> Generator[Event, None, float]:
        """Process: one 32-bit PIO read across the segment."""
        return self._pio(self.pio_read_us, priority)

    def pio_write(self, priority: float = 0.0) -> Generator[Event, None, float]:
        """Process: one 32-bit PIO write across the segment."""
        return self._pio(self.pio_write_us, priority)

    def _pio(self, cost_us: float, priority: float) -> Generator[Event, None, float]:
        start = self.env.now
        with self._lock.request(priority=priority) as req:
            yield req
            yield self.env.timeout(cost_us)
        self.bytes_transferred += self.width_bytes
        self.transactions += 1
        obs = self.env.obs
        if obs is not None:
            obs.count("pci.pio_ops", bus=self.name)
            obs.observe("pci.pio_us", self.env.now - start, bus=self.name)
        return self.env.now - start


class PCIBridge:
    """Host-bridge between the system bus and a PCI segment.

    A transfer through the bridge (host memory ↔ PCI device, path A) holds
    *both* buses for its duration: the bytes are charged to each, which is
    exactly the double-traffic cost the paper's offload removes.
    """

    def __init__(self, env: Environment, system_bus: Bus, segment: PCISegment) -> None:
        self.env = env
        self.system_bus = system_bus
        self.segment = segment

    def transfer(
        self, nbytes: int, priority: float = 0.0
    ) -> Generator[Event, None, float]:
        """Process: move *nbytes* between host memory and a device."""
        start = self.env.now
        obs = self.env.obs
        sp = (
            obs.begin("bridge", track=self.segment.track, bytes=nbytes)
            if obs is not None
            else None
        )
        # The slower bus paces the transfer; both carry the traffic.
        with self.system_bus._lock.request(priority=priority) as sysreq:
            yield sysreq
            with self.segment._lock.request(priority=priority) as pcireq:
                yield pcireq
                duration = (
                    self.segment.per_transaction_us
                    + self.system_bus.per_transaction_us
                    + nbytes
                    / min(self.system_bus.bandwidth_mb_s, self.segment.bandwidth_mb_s)
                )
                yield self.env.timeout(duration)
        for bus in (self.system_bus, self.segment):
            bus.bytes_transferred += nbytes
            bus.transactions += 1
        if obs is not None:
            obs.end(sp)
            obs.count("bridge.bytes", nbytes, segment=self.segment.name)
        return self.env.now - start


class DMAEngine:
    """Bus-master DMA engine of a card on a PCI segment."""

    def __init__(self, env: Environment, segment: PCISegment, owner: Optional[object] = None) -> None:
        self.env = env
        self.segment = segment
        self.owner = owner
        self.bytes_moved = 0

    def peer_transfer(
        self, nbytes: int, priority: float = 0.0
    ) -> Generator[Event, None, float]:
        """Process: card-to-card DMA on the local segment (no host involved)."""
        latency = yield from self.segment.transfer(nbytes, priority=priority)
        self.bytes_moved += nbytes
        obs = self.env.obs
        if obs is not None:
            obs.count("dma.peer_bytes", nbytes, segment=self.segment.name)
        return latency

    def host_transfer(
        self, bridge: PCIBridge, nbytes: int, priority: float = 0.0
    ) -> Generator[Event, None, float]:
        """Process: DMA between this card and host memory via the bridge."""
        if bridge.segment is not self.segment:
            raise ValueError("bridge does not serve this card's segment")
        latency = yield from bridge.transfer(nbytes, priority=priority)
        self.bytes_moved += nbytes
        obs = self.env.obs
        if obs is not None:
            obs.count("dma.host_bytes", nbytes, segment=self.segment.name)
        return latency
