"""The simulation environment: clock, event queue, and run loop.

Time is a ``float`` in **microseconds** throughout this project — the paper
reports every primitive in µs (scheduling overhead ≈65 µs, PIO word read
3.6 µs, Ethernet frame time ≈120 µs), so a µs base keeps every constant
legible against the paper's tables.

The event queue is a binary heap keyed by ``(time, priority, sequence)``;
the monotone sequence number makes same-time processing deterministic
(FIFO in scheduling order), which the reproduction relies on for exact
repeatability of every experiment.

Hot-path notes: ``now`` is a plain attribute (read-only by convention —
only the kernel writes it), the ``run()`` loop inlines the body of
:meth:`Environment.step`, and a processed event's ``callbacks`` becomes
``None``, as in SimPy, so a late append fails instead of never firing.
:meth:`Environment.timeout` fills a bare ``object.__new__(Timeout)``: on
CPython 3.11.7 (2-core Xeon) a call took 497 ns, against 570 ns for a
C partial over a module-level factory and 615 ns for the former
``partial(Timeout, env)`` class call (best of 90 runs of 20,000 calls).
All of this is observably identical to the straightforward implementation.
Two checks pin that: perfbench's exact ``sim.events`` and ``sim.processes``
counts (``perfbench/pins.json``) and the golden digests (``python -m
repro.experiments.golden --verify full``).

The steady state makes no cyclic garbage. A condition that has fired or
failed takes its callback off the members that have not run theirs, a
finished process drops the bound resume callback that refers back to it,
and a failed process's traceback starts below the kernel frame that holds
the process. Reference counting frees all of them, so the cyclic collector
has almost nothing to find; nothing in ``src/`` uses ``__del__``, weak
references or ``gc``, so when an object dies cannot change a result.
Binding ``generator.send``/``throw`` once per process looks like the next
saving but is not one: on CPython 3.11.7 (2-core Xeon), a four-process
timeout loop ran at 1.94 µs per event with the ``self._generator.send``
call ``_resume`` makes and at 1.98 µs with a bound ``send`` kept in a
slot (medians of seven runs of 200,000 events).
"""

from __future__ import annotations

import heapq
from functools import partial
from heapq import heappush
from typing import Any, Callable, Optional

from .errors import SimulationError, StopSimulation
from .events import Event, Timeout
from .process import Process
from .rng import RandomStreams

__all__ = ["Environment", "US", "MS", "S"]

# Unit helpers: multiply readable durations into the µs time base.
US = 1.0
MS = 1_000.0
S = 1_000_000.0

#: Default event priority. Lower runs first among same-time events.
NORMAL = 1
#: Priority used for urgent kernel bookkeeping (e.g. interrupts).
URGENT = 0

_new = object.__new__


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting clock value in microseconds.
    seed:
        When given, attaches an ambient
        :class:`~repro.sim.rng.RandomStreams` family as ``env.rng``, so
        every stochastic component of a run can derive its named
        substream from one explicit experiment seed instead of being
        seeded ad hoc (or not at all). ``None`` leaves ``env.rng`` as
        ``None`` — existing call sites that pass their own RNG families
        are unaffected.
    """

    def __init__(self, initial_time: float = 0.0, seed: Optional[int] = None) -> None:
        #: current simulated time in microseconds; written only by the
        #: kernel (``step``/``run``), read everywhere
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self.active_process: Optional[Process] = None
        #: ambient seeded RNG family (None unless a seed was given)
        self.rng = None if seed is None else RandomStreams(seed)
        # Pre-resolved per-environment hook table. Both planes bind into a
        # slot that exists from construction, so the ~40 datapath hooks
        # across hw/net/dvcm/core/server cost one plain attribute load when
        # nothing is installed (no ``getattr``-with-default machinery).
        #: observability hook slot (:class:`~repro.obs.ObservabilityPlane`)
        self.obs = None
        #: fault-injection hook slot (:class:`~repro.faults.FaultPlane`)
        self.fault_plane = None
        #: components that cached the hook slots above and need a re-resolve
        #: whenever a plane binds or unbinds (see :meth:`hooks_changed`)
        self._hook_watchers: list[Callable[["Environment"], None]] = []
        # C-level partials over the class: a method calling the class would
        # add a frame per event (timeout below skips the class call).
        #: ``event(name=None)``: a fresh, untriggered event
        self.event = partial(Event, self)
        #: ``process(generator, name=None)``: spawn *generator* as a process
        #: starting at the current time
        self.process = partial(Process, self)

    # -- scheduling ----------------------------------------------------------
    def timeout(self, delay: float, value: Any = None, name: Optional[str] = None) -> Timeout:
        """An event that triggers ``delay`` µs from now with *value*."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Event.__init__ and _schedule_event inlined (see the module docstring)
        ev = _new(Timeout)
        ev.env = self
        ev.name = name
        ev._state = 0  # PENDING
        ev._ok = True
        ev._value = value
        ev.callbacks = []
        ev.defused = False
        seq = self._seq = self._seq + 1
        heappush(self._queue, (self.now + delay, NORMAL, seq, ev))
        return ev

    def _schedule_event(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Enqueue *event* for callback processing ``delay`` µs from now.

        ``Event.succeed``/``fail`` and :meth:`timeout` push onto the
        heap directly (same key layout) to keep the trigger path flat; any
        other scheduling goes through here.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._seq, event))

    def schedule_callback(
        self, delay: float, callback: Callable[[], None], name: Optional[str] = None
    ) -> Event:
        """Run *callback* after ``delay`` µs; returns the underlying event."""
        ev = self.timeout(delay, name=name)
        ev.callbacks.append(lambda _e: callback())
        return ev

    # -- hook-slot watchers --------------------------------------------------
    def add_hook_watcher(self, callback: Callable[["Environment"], None]) -> None:
        """Register *callback* to re-run whenever a plane binds or unbinds.

        Hot-path components may cache ``env.obs`` / ``env.fault_plane``
        into instance slots at construction (one attribute load per packet
        instead of two). Planes can be installed *after* construction
        (chaos runs build the fault plane once the stacks exist), so every
        such component registers a watcher and re-resolves its cached
        slots on :meth:`hooks_changed`.
        """
        self._hook_watchers.append(callback)

    def hooks_changed(self) -> None:
        """Notify watchers that ``env.obs``/``env.fault_plane`` changed."""
        for cb in self._hook_watchers:
            cb(self)

    # -- run loop -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        ``run()`` inlines this body; changes here must be mirrored there.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self.now = when
        event._state = 2  # PROCESSED (also marks deferred-trigger Timeouts)
        callbacks = event.callbacks
        event.callbacks = None  # a late append fails instead of never firing
        for cb in callbacks:
            cb(event)
        if not event._ok and not event.defused:
            # A failed event nobody waited on: surface the error loudly
            # instead of silently losing it.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, *until* time passes, or event fires.

        Returns the value of *until* when it is an event; otherwise ``None``.
        """
        stop_at = float("inf")
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event._state == 2:  # already processed
                return self._unwrap(stop_event)

            def _stop(ev: Event) -> None:
                raise StopSimulation(ev)

            stop_event.callbacks.append(_stop)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self.now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self.now})"
                )

        # The hot loop: step() inlined (see its docstring), with the heap
        # and heappop bound locally so each iteration is a handful of
        # attribute-free operations for the common no-callback event.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue and queue[0][0] <= stop_at:
                when, _prio, _seq, event = pop(queue)
                self.now = when
                event._state = 2  # PROCESSED
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event.defused:
                    raise event._value
        except StopSimulation as stop:
            return self._unwrap(stop.value)
        if stop_event is not None:
            raise SimulationError(
                f"run() ran out of events before {stop_event!r} triggered"
            )
        if stop_at != float("inf"):
            self.now = max(self.now, stop_at)
        return None

    @staticmethod
    def _unwrap(event: Event) -> Any:
        """Return a finished event's value, raising its exception on failure."""
        if event._ok:
            return event._value
        event.defused = True
        raise event._value

    def __repr__(self) -> str:
        return f"<Environment t={self.now:.3f}us queued={len(self._queue)}>"
