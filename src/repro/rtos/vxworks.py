"""The VxWorks 'wind' scheduler running on the NI.

A stand-alone embedded VxWorks configuration: strict priority, preemptive,
run-to-completion within a priority level, and only a handful of light
system tasks. This is the substrate of the paper's NI-resident scheduler —
and the structural reason for its load immunity: nothing else competes for
the NI CPU, so the DWCS task "receives NI-CPU at a rate with lower
variability".

Priorities follow the VxWorks convention: 0 is most urgent, 255 least.
"""

from __future__ import annotations

from typing import Generator

from repro.hw.cpu import CPUSpec, I960RD_66
from repro.sim import Environment

from .kernel import OSKernel
from .task import Task

__all__ = ["WindScheduler"]

#: priority given to the resident system tasks (tNetTask-class work)
SYSTEM_TASK_PRIORITY = 50
#: default priority for spawned application tasks
DEFAULT_TASK_PRIORITY = 100


class WindScheduler(OSKernel):
    """Priority-preemptive single-CPU RTOS kernel (VxWorks 'wind')."""

    preemptive = True
    quantum_us = float("inf")  # run to completion within a priority
    requeue_to_back = False

    def __init__(
        self,
        env: Environment,
        cpu_spec: CPUSpec = I960RD_66,
        name: str = "vxworks",
    ) -> None:
        super().__init__(env, n_cpus=1, cpu_spec=cpu_spec, name=name)

    def spawn_system_tasks(
        self,
        period_us: float = 50_000.0,
        burst_us: float = 100.0,
        count: int = 2,
    ) -> list[Task]:
        """Start the few periodic housekeeping tasks of an embedded image.

        Defaults give the near-zero background load of a stand-alone
        VxWorks configuration (≈0.2 % per task).
        """
        tasks = []
        for i in range(count):
            tasks.append(
                self.spawn(
                    f"tSys{i}",
                    lambda task: self._periodic(task, period_us, burst_us),
                    priority=SYSTEM_TASK_PRIORITY,
                )
            )
        return tasks

    def _periodic(self, task: Task, period_us: float, burst_us: float) -> Generator:
        while True:
            yield task.compute(burst_us)
            yield self.env.timeout(period_us)
