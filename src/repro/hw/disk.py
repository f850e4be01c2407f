"""SCSI disk model.

Table 4 isolates the disk component of a single 1000-byte frame read at
≈4.2 ms — dominated by positioning (seek + rotational latency), with media
transfer nearly negligible at frame sizes. The model:

* positioning cost drawn per request: ``seek + rotation`` for random access,
  a much cheaper track-following cost when the request is sequential to the
  previous one (what gives UFS's 8 KB block prefetch its win);
* media transfer at the drive's sustained rate;
* fixed per-command controller/driver overhead.

The disk serializes requests (single actuator) through a FIFO resource.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Environment, Event, Resource

__all__ = ["SCSIDisk", "DiskStats", "DiskMediaError"]


class DiskMediaError(RuntimeError):
    """An access failed at the media (injected fault or grown defect).

    The command still consumed the positioning time before the drive gave
    up; callers are expected to retry with backoff (see the streaming
    services' read-retry path)."""


class DiskStats:
    """Counters for a disk's lifetime activity."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.sequential_hits = 0
        self.media_errors = 0

    def __repr__(self) -> str:
        return (
            f"<DiskStats reads={self.reads} writes={self.writes} "
            f"read={self.bytes_read}B seq={self.sequential_hits}>"
        )


class SCSIDisk:
    """A single-actuator SCSI disk with positional access costs.

    Default constants land a random single-frame (1000 B) access at the
    paper's ≈4.2 ms: 0.3 ms command/driver overhead + 2.3 ms average seek +
    1.5 ms average rotational latency + 0.1 ms media transfer.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "disk",
        avg_seek_us: float = 2300.0,
        avg_rotation_us: float = 1500.0,
        sequential_position_us: float = 120.0,
        transfer_mb_s: float = 10.0,
        command_overhead_us: float = 300.0,
    ) -> None:
        self.env = env
        self.name = name
        #: trace track of this disk's I/O and its filesystem reads, built once
        self.track = f"disk:{name}"
        self.avg_seek_us = avg_seek_us
        self.avg_rotation_us = avg_rotation_us
        self.sequential_position_us = sequential_position_us
        self.transfer_mb_s = transfer_mb_s
        self.command_overhead_us = command_overhead_us
        self._actuator = Resource(env, capacity=1, name=f"{name}.actuator")
        self._last_end_offset: Optional[int] = None
        self.stats = DiskStats()

    # -- latency model -----------------------------------------------------------
    def access_time_us(self, nbytes: int, sequential: bool) -> float:
        position = (
            self.sequential_position_us
            if sequential
            else self.avg_seek_us + self.avg_rotation_us
        )
        transfer = nbytes / self.transfer_mb_s  # MB/s == bytes/µs
        return self.command_overhead_us + position + transfer

    # -- operations ---------------------------------------------------------------
    def read(
        self, nbytes: int, offset: Optional[int] = None, priority: float = 0.0
    ) -> Generator[Event, None, float]:
        """Process: read *nbytes* (at *offset* if given); returns latency µs."""
        return self._io(nbytes, offset, priority, write=False)

    def write(
        self, nbytes: int, offset: Optional[int] = None, priority: float = 0.0
    ) -> Generator[Event, None, float]:
        """Process: write *nbytes*; returns latency µs."""
        return self._io(nbytes, offset, priority, write=True)

    def _io(
        self, nbytes: int, offset: Optional[int], priority: float, write: bool
    ) -> Generator[Event, None, float]:
        if nbytes <= 0:
            raise ValueError("I/O size must be positive")
        start = self.env.now
        obs = self.env.obs
        sp = (
            obs.begin(
                "disk_io",
                track=self.track,
                bytes=nbytes,
                op="write" if write else "read",
            )
            if obs is not None
            else None
        )
        with self._actuator.request(priority=priority) as req:
            yield req
            sequential = (
                offset is not None
                and self._last_end_offset is not None
                and offset == self._last_end_offset
            )
            access_us = self.access_time_us(nbytes, sequential)
            plane = self.env.fault_plane
            if plane is not None:
                access_us += plane.disk_delay_us(self.name, access_us)
                if plane.disk_error(self.name):
                    # the drive positions, retries internally, then gives up
                    yield self.env.timeout(access_us)
                    self.stats.media_errors += 1
                    self._last_end_offset = None  # head position unknown
                    if obs is not None:
                        obs.end(sp, error="media")
                        obs.count("disk.media_errors", disk=self.name)
                    raise DiskMediaError(
                        f"{self.name}: media error on "
                        f"{'write' if write else 'read'} of {nbytes} bytes"
                    )
            yield self.env.timeout(access_us)
            if offset is not None:
                self._last_end_offset = offset + nbytes
            else:
                self._last_end_offset = None  # unknown position: next is random
        if write:
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
        else:
            self.stats.reads += 1
            self.stats.bytes_read += nbytes
        if sequential:
            self.stats.sequential_hits += 1
        if obs is not None:
            obs.end(sp, sequential=sequential)
            obs.count(
                "disk.bytes_written" if write else "disk.bytes_read",
                nbytes,
                disk=self.name,
            )
            obs.observe("disk.access_us", self.env.now - start, disk=self.name)
        return self.env.now - start

    def __repr__(self) -> str:
        return f"<SCSIDisk {self.name!r} {self.stats!r}>"
