"""Filesystem models: Solaris UFS vs the VxWorks DOS filesystem.

Table 4, Experiment I, reports the same MPEG file streaming at **1 ms per
1000-byte frame under UFS** but **8 ms under the VxWorks (DOS) filesystem
mounted on Solaris**. The paper attributes the gap to UFS's 8 KB logical
blocks with block caching and prefetch. The models:

* :class:`UFS` — 8 KB blocks, buffer cache, read-ahead: a sequential frame
  read usually hits the cache (7 of every 8 one-KB frames), and the miss
  that does go to disk is a *sequential* block read that also prefetches the
  next block, overlapping its cost with application processing.
* :class:`DosFS` — FAT-chained clusters, **no buffer cache and no
  read-ahead**: every application read is an independent positional disk
  access (the paper's "common" 4.2 ms disk component in Experiments
  II/III). In the mounted-on-host configuration (``chain_cached=False``,
  Experiment I / VxWorks-fs row) each read *additionally* pays a FAT
  metadata access — two positional I/Os per frame ⇒ ≈8 ms. On the NI the
  producer holds its open file's FAT chain in card memory
  (``chain_cached=True``) so only the data access remains.

Both expose the same ``open``/``File.read_next`` streaming interface the
frame producers use.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Environment, Event

from .disk import SCSIDisk

__all__ = ["Filesystem", "File", "UFS", "DosFS"]


class File:
    """A sequential reader over a named file's extent."""

    def __init__(self, fs: "Filesystem", name: str, size_bytes: int) -> None:
        self.fs = fs
        self.name = name
        self.size_bytes = size_bytes
        self.offset = 0

    @property
    def eof(self) -> bool:
        return self.offset >= self.size_bytes

    def read_next(self, nbytes: int) -> Generator[Event, None, int]:
        """Process: read the next *nbytes* sequentially; returns bytes read."""
        if self.eof:
            return 0
        nbytes = min(nbytes, self.size_bytes - self.offset)
        obs = self.fs.env.obs
        sp = (
            obs.begin(
                "fs",
                track=self.fs.disk.track,
                file=self.name,
                bytes=nbytes,
                fstype=self.fs.fstype,
            )
            if obs is not None
            else None
        )
        yield from self.fs._read(self, self.offset, nbytes)
        self.offset += nbytes
        if obs is not None:
            obs.end(sp)
            obs.count("fs.reads", fs=self.fs.fstype)
        return nbytes

    def rewind(self) -> None:
        self.offset = 0


class Filesystem:
    """Common machinery: a disk, per-read CPU overhead, and statistics."""

    #: human-readable filesystem type for experiment tables
    fstype = "abstract"

    def __init__(self, env: Environment, disk: SCSIDisk, per_read_overhead_us: float) -> None:
        self.env = env
        self.disk = disk
        #: CPU/syscall/copy overhead charged on every application read
        self.per_read_overhead_us = per_read_overhead_us
        self.reads = 0
        self.disk_accesses = 0
        self.cache_hits = 0

    def open(self, name: str, size_bytes: int) -> File:
        if size_bytes <= 0:
            raise ValueError("file size must be positive")
        return File(self, name, size_bytes)

    def _read(self, file: File, offset: int, nbytes: int) -> Generator[Event, None, None]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} reads={self.reads} disk={self.disk_accesses} "
            f"hits={self.cache_hits}>"
        )


class UFS(Filesystem):
    """Solaris UFS: 8 KB logical blocks, buffer cache, one-block read-ahead."""

    fstype = "ufs"
    BLOCK_BYTES = 8192

    def __init__(
        self,
        env: Environment,
        disk: SCSIDisk,
        per_read_overhead_us: float = 320.0,
    ) -> None:
        super().__init__(env, disk, per_read_overhead_us)
        #: highest block index already resident (per file name)
        self._cached_through: dict[str, int] = {}

    #: blocks fetched per miss (the missed block + one read-ahead block)
    READAHEAD_BLOCKS = 2

    def _read(self, file: File, offset: int, nbytes: int) -> Generator[Event, None, None]:
        self.reads += 1
        first_block = offset // self.BLOCK_BYTES
        last_block = (offset + nbytes - 1) // self.BLOCK_BYTES
        cached_through = self._cached_through.get(file.name, -1)
        obs = self.env.obs
        for block in range(first_block, last_block + 1):
            if block <= cached_through:
                self.cache_hits += 1
                if obs is not None:
                    obs.count("fs.cache_hits", fs=self.fstype)
                continue
            # Miss: one multi-block command fetches the missed block plus
            # read-ahead; streamed blocks after the first cost only media
            # transfer + track following.
            self.disk_accesses += 1
            yield from self.disk.read(
                self.READAHEAD_BLOCKS * self.BLOCK_BYTES,
                offset=block * self.BLOCK_BYTES,
            )
            cached_through = block + self.READAHEAD_BLOCKS - 1
            self._cached_through[file.name] = cached_through
        yield self.env.timeout(self.per_read_overhead_us)


class DosFS(Filesystem):
    """VxWorks dosFs: FAT clusters, optional cached cluster chain.

    ``chain_cached=False`` models the paper's Experiment-I configuration
    (dosFs volume mounted on the Solaris host): every application read pays
    a FAT metadata access plus the data access. ``chain_cached=True`` models
    the producer thread on the NI streaming its own open file: the chain is
    walked once and held in card memory, so each read is one disk access.

    Note the operational constraint carried by :mod:`repro.hw.cache`: the
    VxWorks SCSI driver disables the data cache on the card that performs
    these reads.
    """

    fstype = "dosfs"
    CLUSTER_BYTES = 1024

    def __init__(
        self,
        env: Environment,
        disk: SCSIDisk,
        per_read_overhead_us: float = 60.0,
        chain_cached: bool = True,
    ) -> None:
        super().__init__(env, disk, per_read_overhead_us)
        self.chain_cached = chain_cached
        self.fat_accesses = 0

    def _read(self, file: File, offset: int, nbytes: int) -> Generator[Event, None, None]:
        self.reads += 1
        if not self.chain_cached:
            # FAT lookup: a small read in the FAT region, positionally
            # disjoint from the data — a full random access.
            self.fat_accesses += 1
            self.disk_accesses += 1
            obs = self.env.obs
            if obs is not None:
                obs.count("fs.fat_accesses", fs=self.fstype)
            yield from self.disk.read(512)  # offset=None -> random
        # Data access: dosFs has no buffer cache and no read-ahead, so every
        # cluster is an independent command that pays full positioning (the
        # drive has lost rotational position between commands; interleaved
        # FAT traffic defeats any residual sequentiality).
        clusters = max(1, (nbytes + self.CLUSTER_BYTES - 1) // self.CLUSTER_BYTES)
        for _ in range(clusters):
            self.disk_accesses += 1
            yield from self.disk.read(self.CLUSTER_BYTES)  # random positioning
        yield self.env.timeout(self.per_read_overhead_us)
