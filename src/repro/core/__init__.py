"""The paper's primary contribution: the DWCS media scheduler.

Algorithm (:mod:`repro.core.dwcs`), stream attributes, op-counted schedule
representations (per-stream rings in pinned memory or MMIO registers, dual
heaps vs linear scan), the embedded cost model, and the engines that drive
the scheduler for microbenchmarks and live streaming.
"""

from .admission import AdmissionController, AdmissionDecision, mandatory_utilization
from .attributes import StreamSpec, StreamState
from .costs import DWCSCostModel
from .dwcs import Decision, DWCSScheduler, SchedulerStats
from .engine import MicrobenchEngine, MicrobenchResult, StreamingEngine
from .heaps import OpHeap
from .queues import CircularBufferQueue, HardwareQueueRing, PacketQueue, QueueFullError
from .selection import DualHeaps, Entry, LinearScan, SelectionStructure, compare_entries

__all__ = [
    "StreamSpec",
    "StreamState",
    "DWCSCostModel",
    "DWCSScheduler",
    "Decision",
    "SchedulerStats",
    "MicrobenchEngine",
    "MicrobenchResult",
    "StreamingEngine",
    "OpHeap",
    "PacketQueue",
    "CircularBufferQueue",
    "HardwareQueueRing",
    "QueueFullError",
    "SelectionStructure",
    "LinearScan",
    "DualHeaps",
    "Entry",
    "compare_entries",
    "AdmissionController",
    "AdmissionDecision",
    "mandatory_utilization",
]
