"""Processes: generator coroutines driven by the event loop.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects. When a yielded event triggers, the process resumes with the event's
value (or the event's exception is thrown into it). A process is itself an
event that triggers when the generator returns (value = return value) or
raises (failure).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .errors import Interrupt, SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

__all__ = ["Process"]


class Process(Event):
    """A running generator; also an event for its own termination."""

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        # Event.__init__ inlined; processes are created per request/stream.
        self.env = env
        self.name = name or getattr(generator, "__name__", None)
        self._state = 0  # PENDING
        self._value: Any = None
        self._ok = True
        self.callbacks = []
        self.defused = False
        self._generator = generator
        #: the event this process is currently waiting on (None when running
        #: or finished).
        self._target: Optional[Event] = None
        #: the bound resume callback, materialized once — creating a fresh
        #: bound method per yield is measurable at ~1 resume/event
        self._resume_cb = self._resume
        # Kick the process off via an immediately-scheduled init event.
        init = Event(env, name=self.name)
        init.callbacks.append(self._resume_cb)
        init.succeed()

    # -- introspection ------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == 0  # PENDING

    # -- interruption --------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (the target event
        stays valid and may trigger later — the process simply no longer
        listens to it).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver asynchronously through a failed event so ordering follows
        # the normal event queue; URGENT priority beats same-time events.
        carrier = Event(self.env, name=f"interrupt:{self.name}")
        carrier.defused = True
        carrier._ok = False
        carrier._value = Interrupt(cause)
        carrier._state = 1  # TRIGGERED
        carrier.callbacks.append(self._resume_cb)
        self.env._schedule_event(carrier, priority=0)

    # -- kernel --------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome.

        This runs once per yield of every process — the busiest callback in
        the kernel — so state checks read the slots directly instead of
        going through the ``is_alive``/``processed`` properties.
        """
        if self._state != 0:  # not PENDING: the generator already finished
            # e.g. an interrupt landed after normal termination in the same
            # time step, or a stale target fired; nothing to do.
            return
        # Detach from the previous target: necessary when an interrupt
        # arrives while the old target is still pending. A processed target
        # has no callbacks left (run(until=...) can stop the loop before
        # this process's callback ran).
        target = self._target
        if target is not None and target is not event and target._state != 2:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        env = self.env
        env.active_process = self
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event.defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            env.active_process = None
            # the bound method refers back to this process: dropping it lets
            # reference counting free a finished process
            self._resume_cb = None
            self.succeed(stop.value)
            return
        except BaseException as err:
            env.active_process = None
            self._resume_cb = None
            # This frame refers to the process, so the failure's traceback
            # starts below it, at the generator; an error the generator
            # never saw (no tb_next) keeps the whole traceback. No local
            # names the traceback: it would refer back to this frame.
            if err.__traceback__.tb_next is not None:
                err.__traceback__ = err.__traceback__.tb_next
            self.fail(err)
            return
        env.active_process = None

        if not isinstance(next_target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {next_target!r}"
            )
        if next_target.env is not env:
            raise SimulationError("yielded an event from a different environment")
        self._target = next_target
        if next_target._state == 2:  # PROCESSED
            # Already done: resume on a fresh zero-delay event carrying the
            # same outcome so time ordering stays in the queue.
            carrier = Event(env)
            carrier.callbacks.append(self._resume_cb)
            carrier.trigger(next_target)
            # A failed-but-processed target has already surfaced or been
            # defused once; waiting on it re-delivers, so mark defused.
            carrier.defused = True
            self._target = carrier
        else:
            next_target.callbacks.append(self._resume_cb)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name!r} {state}>"
