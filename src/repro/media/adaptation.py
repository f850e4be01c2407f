"""The quality ladder: renditions of one encoded file, best first.

The paper's introduction motivates end-to-end adaptation: "media
caching/buffering and runtime variation of delivered service quality are
two of many techniques that attempt to deal with ... fluctuations in the
service offerings experienced by clients". :func:`quality_ladder` builds
the three renditions of one encoded file from its GOP structure, each a
plain frame list produced by the segmentation filter: ``full`` (I+P+B),
``anchors`` (I+P, the B frames shed) and ``intra`` (I only).

The failover service (:class:`repro.server.failover.HAStreamingService`)
reads the ``anchors`` rung: a stream that migrates degraded after a card
failure sheds its B frames, and the rung's share of the file's frames
scales the admission cost the stream asks of the surviving card.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frames import FrameType, MediaFrame
from .mpeg import MPEGFile, segment

__all__ = ["Rendition", "quality_ladder"]


@dataclass(frozen=True)
class Rendition:
    """One rung of the quality ladder."""

    name: str
    frames: tuple[MediaFrame, ...]
    #: fraction of the full rendition's bytes this rung carries
    byte_fraction: float

    def __len__(self) -> int:
        return len(self.frames)


def quality_ladder(file: MPEGFile) -> list[Rendition]:
    """Best-first renditions of *file*: full → anchors → intra."""
    total = file.size_bytes or 1
    rungs = []
    for name, types in (
        ("full", None),
        ("anchors", (FrameType.I, FrameType.P)),
        ("intra", (FrameType.I,)),
    ):
        frames = tuple(segment(file, types=types))
        if not frames:
            continue  # e.g. an all-B segment can't provide this rung
        rung_bytes = sum(f.size_bytes for f in frames)
        rungs.append(
            Rendition(name=name, frames=frames, byte_fraction=rung_bytes / total)
        )
    return rungs

