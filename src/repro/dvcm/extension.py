"""DVCM extension modules.

"The third set of DVCM functions are the extensions that support specific
applications' needs" — run-time loadable modules that add *instructions* to
the virtual communication machine. An instruction is a named handler the
NI runtime dispatches messages to; handlers run on the NI CPU (charged
compute) and may be simulation processes.

:class:`MediaSchedulerExtension` is the paper's flagship extension: it wraps
the DWCS :class:`~repro.core.engine.StreamingEngine` behind four
instructions (``open_stream``, ``submit_frame``, ``stream_stats``,
``close_stream``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.attributes import StreamSpec
from repro.core.engine import StreamingEngine
from repro.media.frames import MediaFrame

__all__ = ["ExtensionModule", "Instruction", "MediaSchedulerExtension"]

#: handler(payload) -> result (plain callable; the runtime charges compute)
Instruction = Callable[[dict[str, Any]], Any]


class ExtensionModule:
    """Base class: a named bundle of DVCM instructions."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._instructions: dict[str, Instruction] = {}

    def provide(self, name: str, handler: Instruction) -> None:
        """Register instruction *name* (qualified as '<module>.<name>')."""
        if name in self._instructions:
            raise ValueError(f"instruction {name!r} already provided by {self.name!r}")
        self._instructions[name] = handler

    def instructions(self) -> dict[str, Instruction]:
        return dict(self._instructions)

    def qualified(self, name: str) -> str:
        return f"{self.name}.{name}"

    def __repr__(self) -> str:
        return f"<ExtensionModule {self.name!r} {sorted(self._instructions)}>"


class MediaSchedulerExtension(ExtensionModule):
    """The NI-resident media scheduler as a DVCM extension."""

    def __init__(self, engine: StreamingEngine) -> None:
        super().__init__("media")
        self.engine = engine
        self.provide("open_stream", self._open_stream)
        self.provide("submit_frame", self._submit_frame)
        self.provide("stream_stats", self._stream_stats)
        self.provide("close_stream", self._close_stream)

    # -- instruction handlers ----------------------------------------------------
    def _open_stream(self, payload: dict[str, Any]) -> str:
        spec = StreamSpec(
            stream_id=payload["stream_id"],
            period_us=float(payload["period_us"]),
            loss_x=int(payload["loss_x"]),
            loss_y=int(payload["loss_y"]),
            drop_late=bool(payload.get("drop_late", True)),
        )
        self.engine.scheduler.add_stream(spec)
        return spec.stream_id

    def _submit_frame(self, payload: dict[str, Any]) -> int:
        frame: MediaFrame = payload["frame"]
        desc = self.engine.submit(frame, address=payload.get("address", 0))
        return desc.frame.seqno

    def _stream_stats(self, payload: dict[str, Any]) -> dict[str, Any]:
        sid = payload["stream_id"]
        state = self.engine.scheduler.streams[sid]
        return {
            "serviced": state.serviced,
            "dropped": state.dropped,
            "sent_late": state.sent_late,
            "violations": state.violations,
            "queued": self.engine.scheduler.queue_depth(sid),
        }

    def _close_stream(self, payload: dict[str, Any]) -> bool:
        self.engine.scheduler.remove_stream(payload["stream_id"])
        return True
