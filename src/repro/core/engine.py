"""Scheduler engines: driving DWCS on a simulated CPU.

Two drivers cover the paper's two measurement styles:

* :class:`MicrobenchEngine` — the Tables 1–3 loop: descriptors are
  pre-written into the rings, then the scheduler drains them back-to-back on
  a dedicated CPU (plain timeouts, no OS contention), work-conserving. Also
  provides the "w/o Scheduler" bypass: "we simply re-route execution in the
  code to a point where the address of the frame to be dispatched is readily
  available and does not need scheduler rules."

* :class:`StreamingEngine` — the Figures 7–10 service: the scheduler runs
  as an OS task (VxWorks on the NI, Solaris time-sharing on the host),
  paced by packet release times, with producers injecting concurrently. The
  rate at which the task's ``compute()`` requests are served is what host
  load degrades.

Both charge decision and dispatch costs through the CPU cost model and hand
transmissions to a caller-supplied ``transmit(descriptor)`` process factory
(fire-and-forget: the MAC serializes on its own link resource). Dispatch is
coupled to scheduling (paper §3.1.1): each cycle charges the device
programming inline, so no dispatch queue adds delay or jitter. The
asynchronous alternative is measured in ``benchmarks/test_ablations_bench.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.fixedpoint import OpCounter
from repro.hw.cpu import CPU
from repro.media.frames import FrameDescriptor, MediaFrame
from repro.rtos.task import Task
from repro.sim import AnyOf, Environment, Event, TallyStats, TimeSeries

from .dwcs import Decision, DWCSScheduler

__all__ = ["MicrobenchEngine", "MicrobenchResult", "StreamingEngine"]

TransmitFn = Callable[[FrameDescriptor], Generator]


@dataclass
class MicrobenchResult:
    """Timing outcome of a drain-the-rings run (one Table 1/2/3 column)."""

    frames: int
    total_us: float

    @property
    def avg_frame_us(self) -> float:
        return self.total_us / self.frames if self.frames else 0.0


class MicrobenchEngine:
    """Tables 1–3: drain pre-filled rings on a dedicated CPU."""

    def __init__(
        self,
        env: Environment,
        scheduler: DWCSScheduler,
        cpu: CPU,
        working_set_bytes: Optional[int] = None,
    ) -> None:
        if not scheduler.work_conserving:
            raise ValueError("microbenchmarks drain back-to-back: use work_conserving=True")
        self.env = env
        self.scheduler = scheduler
        self.cpu = cpu
        self.working_set_bytes = working_set_bytes

    def run_with_scheduler(self) -> Generator[Event, None, MicrobenchResult]:
        """Process: schedule+dispatch every queued frame ('Total Sched time')."""
        start = self.env.now
        frames = 0
        while self.scheduler.backlog:
            decision = self.scheduler.schedule(self.env.now)
            yield self.env.timeout(
                self.cpu.time_for(decision.ops, self.working_set_bytes)
            )
            if decision.serviced is not None:
                d_ops = self.scheduler.dispatch_ops()
                yield self.env.timeout(self.cpu.time_for(d_ops, self.working_set_bytes))
                frames += 1
        return MicrobenchResult(frames=frames, total_us=self.env.now - start)

    def run_without_scheduler(self) -> Generator[Event, None, MicrobenchResult]:
        """Process: the bypass loop — dispatch only, no scheduler rules."""
        start = self.env.now
        frames = 0
        scratch = OpCounter()
        for queue in self.scheduler.queues.values():
            while not queue.empty:
                # the frame address is "readily available": one ring pop
                queue.pop(scratch)
                d_ops = self.scheduler.dispatch_ops()
                yield self.env.timeout(self.cpu.time_for(d_ops, self.working_set_bytes))
                frames += 1
        return MicrobenchResult(frames=frames, total_us=self.env.now - start)


class StreamingEngine:
    """Figures 7–10: DWCS as an OS task serving live producers."""

    def __init__(
        self,
        env: Environment,
        scheduler: DWCSScheduler,
        cpu: CPU,
        transmit: TransmitFn,
        working_set_bytes: Optional[int] = None,
        idle_poll_us: float = 2_000.0,
    ) -> None:
        self.env = env
        self.scheduler = scheduler
        self.cpu = cpu
        self.transmit = transmit
        self.working_set_bytes = working_set_bytes
        #: optional callback invoked for every dropped descriptor (frame
        #: memory reclamation, loss reporting, ...)
        self.on_drop: Optional[Callable[[FrameDescriptor], None]] = None
        #: optional callback invoked after every cycle that changed stream
        #: state (a dispatch and/or drops) — the checkpointing plane's hook;
        #: receives the :class:`~repro.core.dwcs.Decision`
        self.on_epoch: Optional[Callable[[Decision], None]] = None
        #: state-changing cycles completed (epochs the HA plane mirrors)
        self.epochs = 0
        #: how long to sleep when nothing is eligible and no release is known
        self.idle_poll_us = idle_poll_us
        self._wakeup: Optional[Event] = None
        self.stopped = False
        #: True while the dispatch substrate is down (NI crash): the task
        #: parks instead of scheduling into a dead transmit path
        self.paused = False
        self._resume: Optional[Event] = None
        # -- instrumentation (per stream) -----------------------------------
        #: queuing delay of each dispatched frame, µs (Figures 8/10)
        self.queuing_delay_us: dict[str, TimeSeries] = {}
        self.delay_stats: dict[str, TallyStats] = {}
        self.frames_sent: dict[str, int] = {}
        #: open scheduler-queue spans, keyed by descriptor identity; ended
        #: on dispatch or drop (observability plane only)
        self._squeue_spans: dict[int, int] = {}

    # -- producer-facing ------------------------------------------------------
    def submit(self, frame: MediaFrame, address: int = 0) -> FrameDescriptor:
        """Inject a frame and wake the scheduler task if it is idle."""
        desc = self.scheduler.enqueue(frame, self.env.now, address=address)
        obs = self.env.obs
        if obs is not None:
            sp = obs.begin(
                "squeue",
                track="sched:rings",
                stream=frame.stream_id,
                seq=frame.seqno,
            )
            if sp is not None:
                self._squeue_spans[id(desc)] = sp
            obs.count("engine.frames_submitted", stream=frame.stream_id)
        wakeup = self._wakeup
        if wakeup is not None and not wakeup._state:  # still pending (runs per frame)
            wakeup.succeed()
        return desc

    def stop(self) -> None:
        self.stopped = True
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        if self._resume is not None and not self._resume.triggered:
            self._resume.succeed()

    def pause(self) -> None:
        """Park the scheduler task (transmit path down, e.g. NI crash).

        Producers may keep submitting — frames queue in the rings and age;
        on :meth:`resume` the scheduler's normal miss processing drops the
        late ones and accounts the violations.
        """
        self.paused = True

    def resume(self) -> None:
        """Restart scheduling after a pause (NI reset complete)."""
        if not self.paused:
            return
        self.paused = False
        if self._resume is not None and not self._resume.triggered:
            self._resume.succeed()

    # -- the scheduler task -------------------------------------------------------
    def task_body(self, task: Task) -> Generator:
        """OS-task body: run scheduling cycles, paced by releases and load."""
        env = self.env
        while not self.stopped:
            if self.paused:
                self._resume = env.event()
                yield self._resume
                self._resume = None
                continue
            decision = self.scheduler.schedule(env.now)
            yield task.compute(self.cpu.time_for(decision.ops, self.working_set_bytes))
            obs = env.obs
            if obs is not None:
                for dropped in decision.dropped:
                    obs.end(
                        self._squeue_spans.pop(id(dropped), None), dropped=True
                    )
                    obs.count("engine.frames_dropped", stream=dropped.stream_id)
                    obs.instant(
                        "frame_drop",
                        track="sched:rings",
                        stream=dropped.stream_id,
                        seq=dropped.frame.seqno,
                    )
            if self.on_drop is not None:
                for dropped in decision.dropped:
                    self.on_drop(dropped)
            if decision.serviced is not None or decision.dropped:
                # stream state moved this cycle: an engine epoch the
                # checkpointing plane may mirror to host memory
                self.epochs += 1
                if self.on_epoch is not None:
                    self.on_epoch(decision)
            if decision.serviced is not None:
                d_ops = self.scheduler.dispatch_ops()
                sp = (
                    obs.begin(
                        "dispatch",
                        track=self.cpu.track,
                        stream=decision.serviced.stream_id,
                        seq=decision.serviced.frame.seqno,
                    )
                    if obs is not None
                    else None
                )
                yield task.compute(self.cpu.time_for(d_ops, self.working_set_bytes))
                if obs is not None:
                    obs.end(sp)
                env.process(self.transmit(decision.serviced))
                self._record_dispatch(decision)
            elif not self.scheduler._entries or decision.idle_until is not None:
                # Nothing to send: sleep until a release or a new arrival.
                # DWCS keeps a head-of-line entry exactly for each non-empty
                # queue: no entry means an empty backlog, with no recount.
                if decision.idle_until is not None and decision.idle_until > env.now:
                    delay = decision.idle_until - env.now
                else:
                    delay = self.idle_poll_us
                # `wakeup | timeout`, built directly in the same order
                wakeup = self._wakeup = Event(env)
                yield AnyOf(env, (wakeup, env.timeout(delay)))
                self._wakeup = None

    def _record_dispatch(self, decision: Decision) -> None:
        desc = decision.serviced
        assert desc is not None
        sid = desc.stream_id
        delay = self.env.now - desc.enqueued_at_us
        if sid not in self.queuing_delay_us:
            self.queuing_delay_us[sid] = TimeSeries(f"{sid}.qdelay")
            self.delay_stats[sid] = TallyStats(f"{sid}.qdelay")
            self.frames_sent[sid] = 0
        self.frames_sent[sid] += 1
        self.queuing_delay_us[sid].record(self.env.now, delay)
        self.delay_stats[sid].add(delay)
        obs = self.env.obs
        if obs is not None:
            obs.end(self._squeue_spans.pop(id(desc), None))
            obs.count("engine.frames_dispatched", stream=sid)
            obs.observe("engine.queuing_delay_us", delay, stream=sid)
