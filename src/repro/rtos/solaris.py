"""Solaris-like time-sharing host OS.

The host side of the paper's comparison: a multiprocessor time-sharing
kernel (quantum-based round robin) where the DWCS scheduler process competes
with the Apache process pool and httperf-driven work. Every context switch
charges the Pentium Pro's switch + cache-pollution cost — "context
switches ... are expensive due to the CPU's deep cache hierarchy
and due to cache pollution".

``pbind`` (binding the scheduler to a processor, as the paper does with the
Solaris ``pbind`` facility) is exposed through the ``bound_cpu`` spawn
argument.
"""

from __future__ import annotations

from typing import Generator

from repro.hw.cpu import CPUSpec, PENTIUM_PRO_200
from repro.sim import Environment

from .kernel import OSKernel

__all__ = ["SolarisHostOS"]


class SolarisHostOS(OSKernel):
    """Time-sharing multiprocessor kernel."""

    preemptive = False
    #: TS-class time slice. Solaris 2.x dispatches time-sharing processes
    #: with quanta between 20 ms (best priority) and 200 ms (worst); a
    #: CPU-bound web request therefore holds a processor for a long slice,
    #: which is precisely the stall mechanism that starves a host-resident
    #: packet scheduler (Figures 7/8). 100 ms models the mid-table slice.
    quantum_us = 100_000.0
    requeue_to_back = True

    def __init__(
        self,
        env: Environment,
        n_cpus: int = 2,
        cpu_spec: CPUSpec = PENTIUM_PRO_200,
        name: str = "solaris",
    ) -> None:
        super().__init__(env, n_cpus=n_cpus, cpu_spec=cpu_spec, name=name)

    # -- time-sharing priority decay ------------------------------------------
    def enable_ts_decay(
        self,
        window_us: float = 1_000_000.0,
        max_penalty: int = 30,
    ) -> None:
        """Start the ts_update-style priority recalculation.

        Once per *window*, every task's recent CPU share sets a dynamic
        penalty on its priority (0 for sleepers, up to *max_penalty* for a
        task that consumed a full CPU): CPU hogs sink toward the bottom of
        the dispatch order, interactive tasks float back up. This is the
        dynamic mechanism whose steady state the streaming experiments
        model with static priorities.
        """
        if window_us <= 0 or max_penalty < 1:
            raise ValueError("window and penalty must be positive")
        self.env.process(
            self._ts_update(window_us, max_penalty), name=f"{self.name}.ts_update"
        )

    def _ts_update(self, window_us: float, max_penalty: int) -> Generator:
        last_cpu: dict[int, float] = {}
        while True:
            yield self.env.timeout(window_us)
            for task in self.tasks:
                used = task.cpu_time_us - last_cpu.get(id(task), 0.0)
                last_cpu[id(task)] = task.cpu_time_us
                share = min(1.0, used / window_us)
                task.decay_offset = int(round(share * max_penalty))
