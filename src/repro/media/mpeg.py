"""Synthetic MPEG-1 elementary streams and the segmenter.

The paper sources streams by running "an MPEG segmentation program ... for
segmenting an MPEG encoded file into I, P and B frames", emulating an MPEG
player's demux stage. We have no MPEG files here (and the scheduler never
inspects pixel data), so :class:`MPEGEncoder` synthesizes a statistically
faithful elementary stream — GOP structure, per-type frame-size ratios,
target bitrate — and :func:`segment` plays the role of the segmentation
program, turning a byte extent into a list of typed frames.

Defaults follow MPEG-1 constrained-parameters practice: GOP N=12/M=3
(IBBPBBPBBPBB), 30 fps, I:P:B size ratio ≈ 5:3:1, lognormal size jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.sim import RandomStreams

from .frames import FrameType, MediaFrame

__all__ = ["GOPStructure", "MPEGEncoder", "MPEGFile", "segment"]


@dataclass(frozen=True)
class GOPStructure:
    """Group-of-pictures pattern: N frames per GOP, M-1 B-frames per anchor."""

    n: int = 12
    m: int = 3

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("GOP parameters must be >= 1")
        if self.n % self.m != 0:
            raise ValueError("N must be a multiple of M for a regular GOP")

    def pattern(self) -> list[FrameType]:
        """Display-order frame types of one GOP (starts with the I frame)."""
        types: list[FrameType] = []
        for i in range(self.n):
            if i == 0:
                types.append(FrameType.I)
            elif i % self.m == 0:
                types.append(FrameType.P)
            else:
                types.append(FrameType.B)
        return types


@dataclass
class MPEGFile:
    """A synthesized MPEG-1 elementary stream 'file'."""

    name: str
    frames: list[MediaFrame]
    fps: float

    @property
    def size_bytes(self) -> int:
        return sum(f.size_bytes for f in self.frames)

    @property
    def duration_us(self) -> float:
        return len(self.frames) * 1_000_000.0 / self.fps

    @property
    def mean_bitrate_bps(self) -> float:
        return self.size_bytes * 8.0 / (self.duration_us / 1_000_000.0)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[MediaFrame]:
        return iter(self.frames)


class MPEGEncoder:
    """Deterministic synthetic MPEG-1 encoder.

    Parameters
    ----------
    bitrate_bps:
        Target mean elementary-stream bitrate.
    fps:
        Frame rate (MPEG-1 SIF is typically 24–30).
    gop:
        GOP structure.
    size_jitter:
        Lognormal sigma applied to per-frame sizes (0 disables jitter).
    rng:
        Named random streams (one substream per file name) so the same seed
        and file name always produce the same stream.
    """

    #: relative sizes of I, P, B pictures
    TYPE_WEIGHTS = {FrameType.I: 5.0, FrameType.P: 3.0, FrameType.B: 1.0}

    def __init__(
        self,
        bitrate_bps: float = 1_500_000.0,
        fps: float = 30.0,
        gop: GOPStructure = GOPStructure(),
        size_jitter: float = 0.15,
        rng: Optional[RandomStreams] = None,
    ) -> None:
        if bitrate_bps <= 0 or fps <= 0:
            raise ValueError("bitrate and fps must be positive")
        if size_jitter < 0:
            raise ValueError("size jitter must be non-negative")
        self.bitrate_bps = bitrate_bps
        self.fps = fps
        self.gop = gop
        self.size_jitter = size_jitter
        self.rng = rng if rng is not None else RandomStreams(seed=0)

    def _base_sizes(self) -> dict[FrameType, float]:
        """Mean size per frame type meeting the target bitrate."""
        pattern = self.gop.pattern()
        bytes_per_frame = self.bitrate_bps / 8.0 / self.fps
        weight_sum = sum(self.TYPE_WEIGHTS[t] for t in pattern)
        unit = bytes_per_frame * len(pattern) / weight_sum
        return {t: unit * w for t, w in self.TYPE_WEIGHTS.items()}

    def encode(self, name: str, n_frames: int) -> MPEGFile:
        """Synthesize *n_frames* frames as stream/file *name*.

        The per-frame lognormal sizes are drawn **vectorized**: one
        ``Generator.lognormal(mean=mu_array, sigma)`` call, which loops
        the same scalar C routine (libm ``exp`` over one normal draw per
        element) the old one-draw-per-frame Python loop invoked — same
        generator-stream consumption, same float64 arithmetic, so a
        batched stream is bit-identical to the per-frame loop on every
        platform (a ``np.exp`` ufunc would not be: its SIMD kernels are
        not guaranteed to match scalar libm). Pinned by tests and the
        golden-digest oracle.
        """
        if n_frames < 1:
            raise ValueError("need at least one frame")
        gen = self.rng.stream(f"mpeg:{name}")
        base = self._base_sizes()
        pattern = self.gop.pattern()
        types = [pattern[i % len(pattern)] for i in range(n_frames)]
        if self.size_jitter > 0:
            # lognormal with the requested mean: exp(mu + s^2/2) = mean.
            # mu is computed once per frame *type* with the same scalar
            # np.log call the per-frame loop made, then fanned out.
            mu_by_type = {
                t: np.log(m) - self.size_jitter**2 / 2.0 for t, m in base.items()
            }
            mu = np.array([mu_by_type[t] for t in types], dtype=np.float64)
            sizes = gen.lognormal(mean=mu, sigma=self.size_jitter).tolist()
        else:
            sizes = [base[t] for t in types]
        frame_period_us = 1_000_000.0 / self.fps
        frames = [
            MediaFrame(
                stream_id=name,
                seqno=i,
                ftype=types[i],
                size_bytes=max(64, int(round(sizes[i]))),
                pts_us=i * frame_period_us,
            )
            for i in range(n_frames)
        ]
        return MPEGFile(name=name, frames=frames, fps=self.fps)


def segment(file: MPEGFile, types: Optional[Sequence[FrameType]] = None) -> list[MediaFrame]:
    """The 'MPEG segmentation program': split a file into typed frames.

    With *types* given, returns only frames of those types (a player that
    drops B-frames under resource pressure selects I+P, for example).
    """
    if types is None:
        return list(file.frames)
    wanted = set(types)
    return [f for f in file.frames if f.ftype in wanted]
