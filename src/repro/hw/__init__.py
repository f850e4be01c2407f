"""Hardware models of the paper's platform.

CPU cycle-cost models (i960 RD, Pentium Pro, UltraSPARC), data caches,
memory regions and the I2O hardware-queue register file, PCI segments with
PIO/peer-to-peer DMA, SCSI disks with UFS/dosFs filesystem models, switched
100 Mbps Ethernet, and the composite NI cards.
"""

from .bus import Bus
from .cache import DataCache
from .cpu import CPU, CPUSpec, I960RD_66, PENTIUM_PRO_200, ULTRASPARC_300
from .disk import DiskMediaError, SCSIDisk
from .ethernet import (
    CLIENT_STACK,
    HOST_STACK,
    I960_STACK,
    EthernetLink,
    EthernetPort,
    EthernetSwitch,
    NetFrame,
    StackCosts,
)
from .filesystem import DosFS, File, Filesystem, UFS
from .memory import MB, Allocation, HardwareQueueFile, MemoryRegion, OutOfMemoryError
from .nic import I960RDCard, Intel82557NIC
from .pci import DMAEngine, PCIBridge, PCISegment, PIO_READ_US, PIO_WRITE_US

__all__ = [
    "Bus",
    "DataCache",
    "CPU",
    "CPUSpec",
    "I960RD_66",
    "PENTIUM_PRO_200",
    "ULTRASPARC_300",
    "SCSIDisk",
    "DiskMediaError",
    "EthernetLink",
    "EthernetPort",
    "EthernetSwitch",
    "NetFrame",
    "StackCosts",
    "I960_STACK",
    "HOST_STACK",
    "CLIENT_STACK",
    "Filesystem",
    "File",
    "UFS",
    "DosFS",
    "MemoryRegion",
    "Allocation",
    "HardwareQueueFile",
    "OutOfMemoryError",
    "MB",
    "I960RDCard",
    "Intel82557NIC",
    "PCISegment",
    "PCIBridge",
    "DMAEngine",
    "PIO_READ_US",
    "PIO_WRITE_US",
]
