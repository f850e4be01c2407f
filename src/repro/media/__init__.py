"""Media substrate: synthetic MPEG-1 encoding, segmentation into I/P/B
frames, frame descriptors, and the client/player model."""

from .adaptation import Rendition, quality_ladder
from .frames import DESCRIPTOR_BYTES, FrameDescriptor, FrameType, MediaFrame
from .mpeg import GOPStructure, MPEGEncoder, MPEGFile, segment
from .player import MPEGClient, StreamReception

__all__ = [
    "FrameType",
    "MediaFrame",
    "FrameDescriptor",
    "DESCRIPTOR_BYTES",
    "GOPStructure",
    "MPEGEncoder",
    "MPEGFile",
    "segment",
    "MPEGClient",
    "StreamReception",
    "Rendition",
    "quality_ladder",
]
