"""Tasks and CPU-time requests.

The OS models share one execution abstraction: a :class:`Task` is a
simulation process that, whenever it needs processor time, yields
``task.compute(us)``. The owning kernel serves these requests through its
scheduling policy — so the *rate at which a task receives CPU* (the quantity
the paper's Figures 6–8 are about) emerges from contention, quanta, and
priorities rather than being assumed.

A task that sleeps (``yield env.timeout(...)``) or blocks on I/O consumes no
CPU, exactly like a blocked thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import OSKernel

__all__ = ["Task", "WorkRequest"]


class WorkRequest:
    """An outstanding demand for CPU time by a task.

    It is ranked by its task's effective priority, ``task.priority +
    task.decay_offset``, and may run only on ``task.bound_cpu`` when that
    is set; the kernel reads both off the task on every submission.
    """

    __slots__ = ("task", "remaining_us", "event", "seq")

    def __init__(self, task: "Task", amount_us: float, event: Event, seq: int) -> None:
        self.task = task
        self.remaining_us = amount_us
        self.event = event
        self.seq = seq

    def __repr__(self) -> str:
        return f"<WorkRequest {self.task.name!r} {self.remaining_us:.1f}us left>"


class Task:
    """A schedulable thread of control under an OS kernel.

    Parameters
    ----------
    kernel:
        The owning OS model.
    name:
        Debug/reporting label.
    priority:
        Lower value = more important (VxWorks convention, 0..255).
    bound_cpu:
        Optional CPU index this task is pinned to (Solaris ``pbind``).
    """

    def __init__(
        self,
        kernel: "OSKernel",
        name: str,
        priority: int = 100,
        bound_cpu: Optional[int] = None,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.priority = priority
        self.bound_cpu = bound_cpu
        #: dynamic penalty added by time-sharing priority decay (0 = fresh);
        #: see :meth:`repro.rtos.solaris.SolarisHostOS.enable_ts_decay`
        self.decay_offset = 0
        #: cumulative CPU time actually received, µs
        self.cpu_time_us = 0.0
        #: number of compute() requests issued
        self.requests = 0
        self.process = None  # set by kernel.spawn
        #: debug label for compute events, built once (compute() is hot)
        self._compute_label = f"compute:{name}"

    def compute(self, amount_us: float) -> Event:
        """Request *amount_us* of CPU; the event fires when fully served."""
        if amount_us < 0:
            raise ValueError(f"negative compute amount {amount_us}")
        self.requests += 1
        if amount_us == 0:
            ev = self.kernel.env.event()
            ev.succeed()
            return ev
        return self.kernel._submit(self, amount_us)

    def __repr__(self) -> str:
        return f"<Task {self.name!r} prio={self.priority} cpu={self.cpu_time_us:.0f}us>"
