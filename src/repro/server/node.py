"""A server compute node: host CPUs, buses, slots, cards, disks.

Mirrors the paper's testbed: a quad Pentium Pro running a Solaris-like
time-sharing OS, 128 MB of memory, one or two PCI bus segments behind
host bridges, and a population of I2O i960 RD cards, plain Intel 82557
NICs, and host disk controllers in the slots.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.bus import Bus
from repro.hw.cpu import CPU, CPUSpec, PENTIUM_PRO_200
from repro.hw.disk import SCSIDisk
from repro.hw.ethernet import HOST_STACK, StackCosts
from repro.hw.filesystem import DosFS, Filesystem, UFS
from repro.hw.memory import MB, MemoryRegion
from repro.hw.nic import I960RDCard, Intel82557NIC
from repro.hw.pci import PCIBridge, PCISegment
from repro.rtos.solaris import SolarisHostOS
from repro.sim import Environment

__all__ = ["DiskController", "ServerNode"]


class DiskController:
    """A plain (non-I2O) SCSI controller card with one attached disk.

    Transfers between its disk and host memory cross the PCI segment *and*
    the host system bus — the path-A storage leg.
    """

    def __init__(self, env: Environment, segment: PCISegment, name: str = "scsi0") -> None:
        self.env = env
        self.segment = segment
        self.name = name
        self.disk = SCSIDisk(env, name=f"{name}.disk")
        segment.attach(self)

    def mount_ufs(self) -> UFS:
        """Mount the disk as a Solaris UFS volume."""
        return UFS(self.env, self.disk)

    def mount_dosfs(self) -> DosFS:
        """Mount the disk as a VxWorks dosFs volume on the host.

        The host has no cached FAT-chain integration for dosFs (the paper
        had to mount the VxWorks filesystem on Solaris to run Experiment
        I against the same volume) — hence ``chain_cached=False`` and a
        host-sized per-read overhead.
        """
        return DosFS(self.env, self.disk, chain_cached=False, per_read_overhead_us=300.0)


class ServerNode:
    """One cluster node (the paper's quad Pentium Pro server)."""

    def __init__(
        self,
        env: Environment,
        name: str = "node0",
        n_cpus: int = 4,
        memory_mb: int = 128,
        n_pci_segments: int = 1,
        cpu_spec: CPUSpec = PENTIUM_PRO_200,
        host_stack: StackCosts = HOST_STACK,
    ) -> None:
        if n_pci_segments < 1:
            raise ValueError("need at least one PCI segment")
        self.env = env
        self.name = name
        self.host_os = SolarisHostOS(env, n_cpus=n_cpus, cpu_spec=cpu_spec, name=f"{name}.os")
        #: host CPU instance for op-count → time conversion of host code
        self.host_cpu = CPU(cpu_spec, name=f"{name}.cpu")
        self.host_cpu.cache.enable()  # hosts run with caches on
        self.memory = MemoryRegion(memory_mb * MB, name=f"{name}.mem")
        self.system_bus = Bus(env, f"{name}.sysbus", bandwidth_mb_s=528.0)
        self.host_stack = host_stack
        self.segments = [
            PCISegment(env, name=f"{name}.pci{i}") for i in range(n_pci_segments)
        ]
        self.bridges = [
            PCIBridge(env, self.system_bus, seg) for seg in self.segments
        ]
        self.i960_cards: list[I960RDCard] = []
        self.nics: list[Intel82557NIC] = []
        self.disk_controllers: list[DiskController] = []

    # -- slot population ---------------------------------------------------------
    def add_i960_card(self, segment: int = 0, **kwargs) -> I960RDCard:
        card = I960RDCard(
            self.env,
            self.segments[segment],
            name=f"{self.name}.i2o{len(self.i960_cards)}",
            **kwargs,
        )
        self.i960_cards.append(card)
        return card

    def add_82557_nic(self, segment: int = 0) -> Intel82557NIC:
        nic = Intel82557NIC(
            self.env,
            self.segments[segment],
            name=f"{self.name}.eepro{len(self.nics)}",
        )
        self.nics.append(nic)
        return nic

    def add_disk_controller(self, segment: int = 0) -> DiskController:
        ctrl = DiskController(
            self.env,
            self.segments[segment],
            name=f"{self.name}.scsi{len(self.disk_controllers)}",
        )
        self.disk_controllers.append(ctrl)
        return ctrl

    def bridge_for(self, segment: PCISegment) -> PCIBridge:
        for bridge in self.bridges:
            if bridge.segment is segment:
                return bridge
        raise ValueError(f"{segment.name} is not a segment of {self.name}")

    def __repr__(self) -> str:
        return (
            f"<ServerNode {self.name!r} cpus={self.host_os.n_cpus} "
            f"i960={len(self.i960_cards)} nics={len(self.nics)}>"
        )
