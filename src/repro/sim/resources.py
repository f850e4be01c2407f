"""Shared resources: counted resources (with priority-ordered waiters)
and FIFO stores (message channels).

These model contended hardware in the reproduction: a PCI bus segment is a
``Resource(capacity=1)`` (one transaction at a time, priority = arbitration),
a disk is a ``Resource(capacity=1)`` with FIFO request ordering, and I2O
message queues between host and NI are ``Store`` channels.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

__all__ = ["Request", "Resource", "Store", "StoreGet", "StorePut"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...  # resource held here
    """

    __slots__ = ("resource", "priority", "time")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        # Event.__init__ inlined: one Request per bus transaction / disk
        # command makes this constructor hot.
        env = resource.env
        self.env = env
        self.name = None
        self._state = 0  # PENDING
        self._value = None
        self._ok = True
        self.callbacks = []
        self.defused = False
        self.resource = resource
        self.priority = priority
        self.time = env.now

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource granting up to ``capacity`` simultaneous claims.

    Waiters are served in ``(priority, request time, FIFO)`` order; lower
    priority values are served first (priority 0 beats priority 1), which
    matches both PCI arbitration rank and RTOS task priority conventions
    used elsewhere in this project.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: Optional[str] = None) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: list[Request] = []
        self._waiters: list[tuple[tuple[float, float, int], Request]] = []
        self._seq = 0

    # -- public API ----------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current users."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._waiters)

    def request(self, priority: float = 0.0) -> Request:
        """Claim the resource; the returned event triggers when granted."""
        req = Request(self, priority)
        self._seq += 1
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            heapq.heappush(self._waiters, ((priority, req.time, self._seq), req))
        return req

    def release(self, request: Request) -> None:
        """Return a granted claim; wakes the best waiter if any.

        Releasing a still-queued request cancels it. Releasing twice is a
        no-op, so ``with`` blocks compose with explicit early release.
        """
        if request in self.users:
            self.users.remove(request)
            self._wake()
        else:
            # Cancel if still waiting. Removing the tail leaves the heap
            # invariant intact, so only a mid-heap removal pays the O(n)
            # re-heapify (the common cancel — the most recently queued,
            # worst-priority waiter — sits at or near the tail).
            for i, (_key, waiter) in enumerate(self._waiters):
                if waiter is request:
                    if i == len(self._waiters) - 1:
                        self._waiters.pop()
                    else:
                        del self._waiters[i]
                        heapq.heapify(self._waiters)
                    break

    # -- internals -------------------------------------------------------------
    def _wake(self) -> None:
        while self._waiters and len(self.users) < self.capacity:
            _key, req = heapq.heappop(self._waiters)
            self.users.append(req)
            req.succeed()

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<{type(self).__name__}{label} {len(self.users)}/{self.capacity} "
            f"queued={len(self._waiters)}>"
        )


class StorePut(Event):
    """Pending put into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        self.env = store.env
        self.name = None
        self._state = 0  # PENDING
        self._value = None
        self._ok = True
        self.callbacks = []
        self.defused = False
        self.item = item


class StoreGet(Event):
    """Pending get from a :class:`Store`; value is the retrieved item."""

    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None) -> None:
        self.env = store.env
        self.name = None
        self._state = 0  # PENDING
        self._value = None
        self._ok = True
        self.callbacks = []
        self.defused = False
        self.filter = filter


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put`` blocks when full; ``get`` blocks when no (matching) item exists.
    Used as the message channel for I2O queues and frame hand-off between
    producers and the scheduler.
    """

    def __init__(
        self, env: "Environment", capacity: float = float("inf"), name: Optional[str] = None
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: list[Any] = []
        self._puts: list[StorePut] = []
        self._gets: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self, item)
        if not self._puts and len(self.items) < self.capacity:
            # what _dispatch would do: admit it at once, then deposit it
            ev.succeed()
            self._deposit(item)
            return ev
        self._puts.append(ev)
        self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Deposit *item* without a completion event.

        For fire-and-forget producers into effectively unbounded channels
        (network inboxes, reply queues): the evented :meth:`put` costs a
        kernel event per item that nobody ever waits on. Raises
        :class:`SimulationError` if the store is full — callers must only
        use this where capacity is not a constraint.
        """
        if len(self.items) >= self.capacity:
            raise SimulationError(
                f"put_nowait into full store {self.name!r} "
                f"({len(self.items)}/{self.capacity})"
            )
        self._deposit(item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        ev = StoreGet(self, filter)
        self._gets.append(ev)
        if self.items or self._puts:  # else _dispatch would find nothing
            self._dispatch()
        return ev

    def _deposit(self, item: Any) -> None:
        """Add an admitted *item*: straight to a head getter that takes any
        item when nothing else waits (as :meth:`_dispatch` would)."""
        gets = self._gets
        if gets and gets[0].filter is None and not self.items and not self._puts:
            gets.pop(0).succeed(item)
            return
        self.items.append(item)
        if gets:
            self._dispatch()

    def cancel(self, event: Event) -> None:
        """Withdraw a pending put/get."""
        if isinstance(event, StorePut) and event in self._puts:
            self._puts.remove(event)
        elif isinstance(event, StoreGet) and event in self._gets:
            self._gets.remove(event)

    def _dispatch(self) -> None:
        items = self.items
        puts = self._puts
        gets = self._gets
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            # Admit pending puts while capacity remains.
            while puts and len(items) < capacity:
                put = puts.pop(0)
                items.append(put.item)
                put.succeed()
                progressed = True
            # Serve pending gets with matching items.
            i = 0
            while i < len(gets):
                get = gets[i]
                matched = None
                for j, item in enumerate(items):
                    if get.filter is None or get.filter(item):
                        matched = j
                        break
                if matched is None:
                    i += 1
                    continue
                item = items.pop(matched)
                gets.pop(i)
                get.succeed(item)
                progressed = True

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Store{label} items={len(self.items)} gets={len(self._gets)}>"
