"""Network-interface card models.

:class:`I960RDCard` is the star of the paper: an I2O-compliant NI with an
Intel i960 RD I/O co-processor (66 MHz, no FPU), 4 MB of local memory
(expandable to 36 MB), the 1004-register memory-mapped "hardware queue"
file, two SCSI ports with directly attached disks, two 100 Mbps Ethernet
ports, and a bus-master DMA engine on its PCI segment.

:class:`Intel82557NIC` is the dumb transceiver NI used for the host-based
baseline (Experiment I / host-scheduler runs): no co-processor, so all
protocol work is charged to the host CPU.

One hardware constraint the paper leans on repeatedly is encoded here: the
VxWorks disk driver runs with the card's **data cache disabled** — a card
that sources frames from its own disks cannot cache scheduler state, which
is why the paper dedicates a disk-less NI to the scheduler (§4.2).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim import Environment

from .cache import DataCache
from .cpu import CPU, I960RD_66, CPUSpec
from .disk import SCSIDisk
from .ethernet import EthernetPort, I960_STACK, StackCosts
from .filesystem import DosFS
from .memory import MB, HardwareQueueFile, MemoryRegion
from .pci import DMAEngine, PCISegment

__all__ = ["I960RDCard", "Intel82557NIC"]


class I960RDCard:
    """An i960 RD I2O network interface card."""

    SCSI_PORTS = 2
    ETHERNET_PORTS = 2

    def __init__(
        self,
        env: Environment,
        segment: PCISegment,
        name: str = "i2o0",
        memory_mb: int = 4,
        cpu_spec: CPUSpec = I960RD_66,
        stack: StackCosts = I960_STACK,
        cache_hit_ratio: float = 0.75,
    ) -> None:
        if not 4 <= memory_mb <= 36:
            raise ValueError("i960 RD boards ship with 4..36 MB of local memory")
        self.env = env
        self.name = name
        #: trace track of this card's crash/reset instants, built once
        self.track = f"card:{name}"
        self.cache = DataCache(hit_ratio=cache_hit_ratio, enabled=False)
        self.cpu = CPU(cpu_spec, cache=self.cache, name=f"{name}.cpu")
        self.memory = MemoryRegion(memory_mb * MB, name=f"{name}.mem", pinned=True)
        self.hardware_queues = HardwareQueueFile()
        self.segment = segment
        self.dma = DMAEngine(env, segment, owner=self)
        self.stack = stack
        self.eth_ports = [
            EthernetPort(env, name=f"{name}.eth{i}") for i in range(self.ETHERNET_PORTS)
        ]
        self._disks: list[SCSIDisk] = []
        self._filesystems: list[DosFS] = []
        # -- fault hooks: a crashed card serves nothing until reset ---------
        self.crashed = False
        self.crash_count = 0
        #: callbacks fired on crash()/reset() — services subscribe to shed
        #: and re-admit streams (graceful degradation instead of wedging)
        self.on_crash: list[Callable[[], None]] = []
        self.on_reset: list[Callable[[], None]] = []
        segment.attach(self)

    # -- storage -----------------------------------------------------------------
    def attach_disk(self, disk: Optional[SCSIDisk] = None, chain_cached: bool = True) -> DosFS:
        """Attach a SCSI disk (with a dosFs volume) to a free SCSI port.

        Attaching a disk *disables the data cache*: the VxWorks SCSI driver
        requires it off (paper §4.2, "the disk driver disables the data
        cache automatically on reboot").
        """
        if len(self._disks) >= self.SCSI_PORTS:
            raise RuntimeError(f"{self.name}: both SCSI ports in use")
        if disk is None:
            disk = SCSIDisk(self.env, name=f"{self.name}.disk{len(self._disks)}")
        fs = DosFS(self.env, disk, chain_cached=chain_cached)
        self._disks.append(disk)
        self._filesystems.append(fs)
        self.cache.disable()
        return fs

    @property
    def disks(self) -> list[SCSIDisk]:
        return list(self._disks)

    @property
    def filesystems(self) -> list[DosFS]:
        return list(self._filesystems)

    @property
    def has_disks(self) -> bool:
        return bool(self._disks)

    # -- fault injection ------------------------------------------------------------
    def crash(self) -> None:
        """Hard fault: firmware wedge / watchdog trip. The card stops
        serving (frames in its memory are lost) until :meth:`reset`."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        obs = self.env.obs
        if obs is not None:
            obs.count("nic.crashes", card=self.name)
            obs.instant("card_crash", track=self.track, card=self.name)
        for callback in list(self.on_crash):
            callback()

    def reset(self) -> None:
        """Bring a crashed card back (board reset + runtime reload)."""
        if not self.crashed:
            return
        self.crashed = False
        obs = self.env.obs
        if obs is not None:
            obs.count("nic.resets", card=self.name)
            obs.instant("card_reset", track=self.track, card=self.name)
        for callback in list(self.on_reset):
            callback()

    def status_probe(self):
        """Process (host side): read the card's status word over PCI.

        One PIO read of the memory-mapped status register; returns True
        when the firmware is alive. The read always completes — PCI reads
        of a wedged board return junk, they don't hang — which is what
        lets a failure detector tell a crashed card (probe reports dead)
        from a partitioned message path (probe reports alive while
        heartbeats go missing).
        """
        yield from self.segment.pio_read()
        return not self.crashed

    # -- cache policy ---------------------------------------------------------------
    def enable_data_cache(self) -> None:
        """Turn the data cache on — only legal on a disk-less card."""
        if self._disks:
            raise RuntimeError(
                f"{self.name}: cannot enable data cache with SCSI disks attached "
                "(VxWorks disk driver constraint)"
            )
        self.cache.enable()

    def __repr__(self) -> str:
        return (
            f"<I960RDCard {self.name!r} disks={len(self._disks)} "
            f"cache={'on' if self.cache.enabled else 'off'}>"
        )


class Intel82557NIC:
    """A plain 100 Mbps Ethernet transceiver NI (no co-processor).

    Frames reach it over the PCI segment from host memory; all protocol
    processing happens on the host CPU (charged by the host OS model).
    """

    def __init__(self, env: Environment, segment: PCISegment, name: str = "eepro0") -> None:
        self.env = env
        self.name = name
        self.segment = segment
        self.eth_port = EthernetPort(env, name=f"{name}.eth")
        segment.attach(self)

    def __repr__(self) -> str:
        return f"<Intel82557NIC {self.name!r}>"
