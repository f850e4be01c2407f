"""Media frame and frame-descriptor types.

The unit of streaming *and* of scheduling in the paper is an MPEG-I frame.
The NI keeps a **single copy** of each frame's payload in card memory and
manipulates compact *descriptors* (address + attributes) — a design point
the paper stresses for conserving the i960 RD's 4 MB of local memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["FrameType", "MediaFrame", "FrameDescriptor", "DESCRIPTOR_BYTES"]

#: size of a packed frame descriptor in NI memory (address + attributes);
#: compact by design ("compact data structures ... that minimize the use of
#: NI memory").
DESCRIPTOR_BYTES = 32


class FrameType(enum.Enum):
    """MPEG-I picture types."""

    I = "I"
    P = "P"
    B = "B"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class MediaFrame:
    """One MPEG-I frame as produced by the segmenter."""

    stream_id: str
    seqno: int
    ftype: FrameType
    size_bytes: int
    #: presentation timestamp within the stream, µs
    pts_us: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("frame size must be positive")
        if self.seqno < 0:
            raise ValueError("seqno must be non-negative")


@dataclass
class FrameDescriptor:
    """Scheduler-side handle: where the frame lives plus QoS attributes.

    ``address`` stands in for the frame's location in pinned NI memory (the
    scheduler "manipulate[s] addresses of frames" rather than copying).
    ``deadline_us`` and the stream's loss-tolerance drive DWCS.
    """

    frame: MediaFrame
    address: int = 0
    #: latest service-start time (absolute sim time, µs)
    deadline_us: float = 0.0
    #: when the descriptor entered the scheduler's queues (for queuing-delay
    #: accounting, Figures 8/10)
    enqueued_at_us: float = 0.0
    #: set once this packet's deadline miss has been window-accounted, so a
    #: late-but-transmitted packet is charged exactly one miss
    miss_handled: bool = False

    @property
    def stream_id(self) -> str:
        return self.frame.stream_id

    @property
    def size_bytes(self) -> int:
        return self.frame.size_bytes
