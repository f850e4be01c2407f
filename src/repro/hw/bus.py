"""Shared-bus base model with traffic accounting.

The paper's central systems argument is *traffic elimination*: moving the
scheduler (and the disk→network path) onto the NI removes bytes from the
host system bus and, for path C, from the PCI I/O bus too. Every bus in the
reproduction therefore counts the bytes and transactions that cross it, so
experiments can report per-bus traffic directly.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Environment, Event, Resource

__all__ = ["Bus"]


class Bus:
    """A serialized transfer medium with bandwidth and per-transaction cost.

    ``capacity=1``: one transaction owns the bus at a time; waiters are
    served in (priority, FIFO) order, which models both PCI arbitration rank
    and system-bus queuing well enough for the paper's experiments.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_mb_s: float,
        per_transaction_us: float = 0.5,
        width_bytes: int = 4,
    ) -> None:
        if bandwidth_mb_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.name = name
        self.bandwidth_mb_s = bandwidth_mb_s
        self.per_transaction_us = per_transaction_us
        self.width_bytes = width_bytes
        self._lock = Resource(env, capacity=1, name=f"{name}.lock")
        #: total payload bytes moved across this bus
        self.bytes_transferred = 0
        #: number of completed transactions
        self.transactions = 0

    # -- timing ----------------------------------------------------------------
    def transfer_time_us(self, nbytes: int) -> float:
        """Pure wire time for *nbytes* at the bus's effective bandwidth."""
        return nbytes / self.bandwidth_mb_s  # MB/s == bytes/µs

    def transfer(
        self, nbytes: int, priority: float = 0.0
    ) -> Generator[Event, None, float]:
        """Process: move *nbytes* across the bus (arbitrate, burst, release).

        Returns the total latency of the transaction in µs.
        """
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        start = self.env.now
        obs = self.env.obs
        sp = (
            obs.begin("bus", track=f"bus:{self.name}", bytes=nbytes)
            if obs is not None
            else None
        )
        with self._lock.request(priority=priority) as req:
            yield req
            duration = self.per_transaction_us + self.transfer_time_us(nbytes)
            yield self.env.timeout(duration)
        self.bytes_transferred += nbytes
        self.transactions += 1
        if obs is not None:
            obs.end(sp)
            obs.count("bus.bytes", nbytes, bus=self.name)
            obs.count("bus.transactions", bus=self.name)
        return self.env.now - start

    def __repr__(self) -> str:
        return (
            f"<Bus {self.name!r} {self.bandwidth_mb_s:g}MB/s "
            f"moved={self.bytes_transferred}B>"
        )
