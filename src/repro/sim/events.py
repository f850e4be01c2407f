"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with an optional value. Processes
wait on events by ``yield``-ing them; arbitrary callbacks may also be
attached. :class:`AnyOf` lets a process wait for the first of several
events: the streaming engine's idle wait races a wakeup against a timeout.

The design follows the SimPy event model closely enough that readers familiar
with SimPy can navigate it, but it is an independent implementation tuned for
this reproduction (deterministic ordering, microsecond time base).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

__all__ = ["Event", "Timeout", "AnyOf", "ConditionValue"]

# Event lifecycle states.
PENDING = 0
TRIGGERED = 1  # scheduled for processing, value fixed
PROCESSED = 2  # callbacks have run

#: default queue priority — must match ``environment.NORMAL`` (the
#: environment imports this module, so the constant lives here too)
_NORMAL = 1


class Event:
    """A one-shot event that may succeed with a value or fail with an error.

    Parameters
    ----------
    env:
        Owning environment.
    name:
        Optional debug label shown in ``repr``.
    """

    __slots__ = ("env", "name", "_state", "_value", "_ok", "callbacks", "defused")

    def __init__(self, env: "Environment", name: Optional[str] = None) -> None:
        self.env = env
        self.name = name
        self._state = PENDING
        self._value: Any = None
        self._ok = True
        self.callbacks: list[Callable[["Event"], None]] = []
        #: a failed event whose exception was delivered to a waiter is
        #: "defused"; undefused failures crash the run at process exit.
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value/exception has been fixed for this event."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if self._state == PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._state == PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Fix a success value and schedule callback processing now."""
        if self._state:  # != PENDING (0)
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        # inlined Environment._schedule_event(delay=0): triggering is the
        # hottest scheduling site in every workload
        env = self.env
        seq = env._seq = env._seq + 1
        heappush(env._queue, (env.now, _NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fix a failure and schedule callback processing now."""
        if self._state:  # != PENDING (0)
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        env = self.env
        seq = env._seq = env._seq + 1
        heappush(env._queue, (env.now, _NORMAL, seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of *event* onto this event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}[
            self._state
        ]
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers *delay* time units after its creation.

    Built only by :meth:`Environment.timeout
    <repro.sim.environment.Environment.timeout>`, which skips the class
    call; its outcome is fixed at creation, but it stays pending until the
    clock reaches it, so waiters created meanwhile block.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        raise SimulationError("build a Timeout with env.timeout(delay)")

    def succeed(self, value: Any = None) -> "Event":
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":
        raise SimulationError("Timeout events trigger themselves")


class ConditionValue:
    """Ordered mapping of events to values for triggered condition members."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict[Event, Any]:
        return {e: e.value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class AnyOf(Event):
    """Triggers as soon as any member event triggers, and fails with the
    first member that fails. Its value is a :class:`ConditionValue` of the
    members triggered by then; with no members it succeeds at once.

    Once it has fired or failed, it takes its callback off every member
    that has not run its callbacks yet: that callback would return at once,
    and left in place it would hold the condition in a reference cycle
    (condition -> member -> callback -> condition) until the member fires.
    A member that never fires, like the idle wait's wakeup that its timeout
    beats, would leave the pair for the cyclic garbage collector.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        members = self._events = list(events)
        for e in members:
            if e.env is not env:
                raise SimulationError("cannot mix events from different environments")
        # one bound method for every member; _detach finds it by equality
        on_member = self._on_member
        for e in members:
            if e._state:  # TRIGGERED or PROCESSED: fires the condition now
                on_member(e)
                break  # later members would be ignored
            e.callbacks.append(on_member)
        if not members:
            self.succeed(ConditionValue())

    def _collect(self) -> ConditionValue:
        value = ConditionValue()
        collected = value.events
        for e in self._events:
            if e._state and e not in collected:
                collected.append(e)
        return value

    def _on_member(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            event.defused = True
            self.fail(event._value)
        self._detach()

    def _detach(self) -> None:
        """Remove this condition's callback from members yet to be processed."""
        on_member = self._on_member
        for e in self._events:
            if e._state != PROCESSED:
                try:
                    e.callbacks.remove(on_member)
                except ValueError:
                    # never registered (it fired the condition at
                    # construction, or came after the one that did), or its
                    # callbacks were cleared by their owner
                    pass
