"""Exception types raised by the simulation kernel.

The kernel distinguishes two failure modes:

* :class:`SimulationError` — programming errors in the use of the kernel
  (scheduling into the past, re-triggering an event, ...).
* :class:`Interrupt` — delivered *into* a process when another process
  interrupts it (e.g. preemption of a CPU slice).
"""

from __future__ import annotations

from typing import Any

__all__ = ["SimulationError", "Interrupt", "StopSimulation"]


class SimulationError(RuntimeError):
    """Incorrect use of the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown inside a process when it is interrupted by another process.

    ``cause`` is whatever the interrupter passed to
    :meth:`~repro.sim.process.Process.interrupt` (the RTOS kernel passes
    ``"preempt"`` when a better-ranked task takes the CPU), or ``None``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]

