"""OS kernel base: ready queue, per-CPU dispatchers, context-switch costs.

Subclasses fix the policy:

* :class:`~repro.rtos.vxworks.WindScheduler` — strict priority, preemptive,
  run-to-completion (the VxWorks 'wind' scheduler on the NI);
* :class:`~repro.rtos.solaris.SolarisHostOS` — time-sharing round-robin with
  a quantum, multiprocessor, with system daemons (the host).

The kernel serves :class:`~repro.rtos.task.WorkRequest`s: each dispatcher
(one per CPU) repeatedly selects a request, charges context-switch overhead
when it switches tasks, runs a slice, and either completes the request or
requeues it. All de-facto scheduling behaviour the paper measures — queueing
behind web-server processes, variable service rate, jitter — emerges here.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Optional

from repro.sim import Environment, Event, Interrupt
from repro.hw.cpu import CPUSpec

from .task import Task, WorkRequest

__all__ = ["OSKernel"]

#: slices smaller than this are treated as complete (float guard)
_EPSILON_US = 1e-6


class OSKernel:
    """Base scheduler: heap-ordered ready queue + one dispatcher per CPU."""

    #: policy: does a new arrival preempt a running lower-priority task?
    preemptive = False
    #: policy: maximum slice before the task is rotated to the queue's back
    quantum_us: float = float("inf")
    #: policy: does a requeued (expired-quantum) request go behind newer
    #: arrivals (True: time sharing) or stay ahead of its class (False)?
    requeue_to_back = False

    def __init__(
        self,
        env: Environment,
        n_cpus: int = 1,
        cpu_spec: Optional[CPUSpec] = None,
        name: str = "os",
    ) -> None:
        if n_cpus < 1:
            raise ValueError("need at least one CPU")
        self.env = env
        self.name = name
        self.n_cpus = n_cpus
        self.cpu_spec = cpu_spec
        self._ready: list[tuple[int, int, WorkRequest]] = []
        self._seq = 0
        self._idle_waiters: list[Event] = []
        self._running: list[Optional[WorkRequest]] = [None] * n_cpus
        self._last_task: list[Optional[Task]] = [None] * n_cpus
        #: cumulative busy time (work + switch overhead) per CPU, µs
        self.busy_us = [0.0] * n_cpus
        self._slice_started = [0.0] * n_cpus
        self.context_switches = 0
        self.tasks: list[Task] = []
        self._dispatchers = [
            env.process(self._dispatcher(i), name=f"{name}.cpu{i}") for i in range(n_cpus)
        ]

    # -- public API ----------------------------------------------------------
    def spawn(
        self,
        name: str,
        body: Callable[[Task], Generator],
        priority: int = 100,
        bound_cpu: Optional[int] = None,
    ) -> Task:
        """Create a task and start its body as a simulation process."""
        if bound_cpu is not None and not 0 <= bound_cpu < self.n_cpus:
            raise ValueError(f"bound_cpu {bound_cpu} out of range")
        task = Task(self, name, priority=priority, bound_cpu=bound_cpu)
        task.process = self.env.process(body(task), name=f"{self.name}.{name}")
        self.tasks.append(task)
        return task

    def cumulative_busy_us(self) -> float:
        """Total busy µs across CPUs, including currently-running slices."""
        total = sum(self.busy_us)
        for i, req in enumerate(self._running):
            if req is not None:
                # a mid-switch CPU has its slice start in the future (the
                # switch overhead was charged up-front); clamp at zero
                total += max(0.0, self.env.now - self._slice_started[i])
        return total

    @property
    def ready_queue_length(self) -> int:
        return len(self._ready)

    # -- submission -------------------------------------------------------------
    def _submit(self, task: Task, amount_us: float) -> Event:
        # runs once per compute(), so _wake_idle is inlined
        ev = Event(self.env, task._compute_label)
        seq = self._seq = self._seq + 1
        req = WorkRequest(task, amount_us, ev, seq)
        heapq.heappush(self._ready, (task.priority + task.decay_offset, seq, req))
        if self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            for w in waiters:
                w.succeed()
        if self.preemptive:
            self._maybe_preempt(req)
        return ev

    def _requeue(self, req: WorkRequest) -> None:
        if self.requeue_to_back:
            self._seq += 1
            req.seq = self._seq
        task = req.task
        heapq.heappush(self._ready, (task.priority + task.decay_offset, req.seq, req))
        self._wake_idle()

    def _wake_idle(self) -> None:
        if self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            for w in waiters:
                w.succeed()

    # -- preemption ----------------------------------------------------------------
    def _maybe_preempt(self, newcomer: WorkRequest) -> None:
        """Interrupt the worst-ranked running slice if *newcomer* outranks it."""
        task = newcomer.task
        bound = task.bound_cpu
        worst_idx: Optional[int] = None
        worst_prio = task.priority + task.decay_offset
        for i, running in enumerate(self._running):
            if running is None:
                return  # an idle CPU will pick the newcomer up immediately
            if bound is not None and i != bound:
                continue
            other = running.task
            prio = other.priority + other.decay_offset
            if prio > worst_prio:
                worst_prio = prio
                worst_idx = i
        if worst_idx is not None:
            self._dispatchers[worst_idx].interrupt("preempt")

    # -- selection -------------------------------------------------------------------
    def _select(self, cpu_idx: int) -> Optional[WorkRequest]:
        """Pop the best eligible request for *cpu_idx* (affinity-aware)."""
        ready = self._ready
        if not ready:
            return None
        bound = ready[0][2].task.bound_cpu
        if bound is None or bound == cpu_idx:
            return heapq.heappop(ready)[2]  # the common case: the top may run here
        skipped = [heapq.heappop(ready)]
        chosen: Optional[WorkRequest] = None
        while ready:
            entry = heapq.heappop(ready)
            bound = entry[2].task.bound_cpu
            if bound is None or bound == cpu_idx:
                chosen = entry[2]
                break
            skipped.append(entry)
        for entry in skipped:
            heapq.heappush(ready, entry)
        return chosen

    # -- the dispatcher loop -----------------------------------------------------------
    def _dispatcher(self, cpu_idx: int) -> Generator:
        # Loop invariants bound once per dispatcher: the spec is a frozen
        # dataclass and quantum_us is a class policy constant, so the switch
        # overhead and quantum never change for the life of the kernel.
        env = self.env
        timeout = env.timeout
        select = self._select
        running = self._running
        last_task = self._last_task
        busy_us = self.busy_us
        slice_started = self._slice_started
        quantum = self.quantum_us
        switch_us = 0.0
        if self.cpu_spec is not None:
            switch_us = self.cpu_spec.context_switch_us + self.cpu_spec.cache_pollution_us
        idle_label = f"{self.name}.cpu{cpu_idx}.idle"  # built once, reused per idle spin
        while True:
            req = select(cpu_idx)
            if req is None:
                waiter = Event(env, idle_label)
                # NOT bound locally: _wake_idle swaps the list wholesale
                self._idle_waiters.append(waiter)
                try:
                    yield waiter
                except Interrupt:
                    pass  # stale preempt aimed at a now-idle CPU
                continue

            # Context-switch cost when the CPU changes tasks. The CPU is
            # occupied (and preemptible) for the duration of the switch.
            if switch_us > 0.0 and last_task[cpu_idx] is not req.task:
                self.context_switches += 1
                busy_us[cpu_idx] += switch_us
                running[cpu_idx] = req
                slice_started[cpu_idx] = env.now + switch_us
                try:
                    yield timeout(switch_us)
                except Interrupt:
                    # preempted mid-switch: put the victim back and
                    # re-select so the preemptor actually runs
                    running[cpu_idx] = None
                    self._requeue(req)
                    last_task[cpu_idx] = None
                    continue
                finally:
                    running[cpu_idx] = None
            last_task[cpu_idx] = req.task

            remaining = req.remaining_us
            slice_us = quantum if quantum < remaining else remaining
            running[cpu_idx] = req
            slice_started[cpu_idx] = env.now
            preempted = False
            try:
                yield timeout(slice_us)
            except Interrupt:
                preempted = True
            elapsed = env.now - slice_started[cpu_idx]
            running[cpu_idx] = None
            req.remaining_us -= elapsed
            req.task.cpu_time_us += elapsed
            busy_us[cpu_idx] += elapsed

            if req.remaining_us <= _EPSILON_US:
                req.event.succeed()
            else:
                self._requeue(req)
            if preempted:
                # force a re-selection so the preemptor runs next
                self._last_task[cpu_idx] = None

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} cpus={self.n_cpus} "
            f"ready={len(self._ready)}>"
        )
