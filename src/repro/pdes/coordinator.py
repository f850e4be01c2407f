"""The conservative-lookahead window coordinator.

One partitioned run is a sequence of synchronized time windows. Between
windows the coordinator holds every undelivered :class:`CrossMessage`
and each partition's earliest-output-time (EOT) promise; from those it
derives the largest provably-safe bound and tells every partition to
simulate up to it.

The bound (per window, from synchronized time ``T``)::

    bound = min( until,
                 min_i  eot_i,                      # spontaneous sends
                 min_m  m.deliver_at + L(m.dst) )   # reactive sends

* ``eot_i`` is partition *i*'s promise: a lower bound on the delivery
  time of anything it sends while receiving nothing further. The
  default (:meth:`PartitionHarness.eot`) is the classic YAWNS bound —
  next local event time plus seam lookahead.
* The reactive cap covers cascades: a message delivered at ``d`` can
  provoke a reply no earlier than ``d``, which cannot arrive anywhere
  before ``d + L(dst)`` (``L`` = the reacting partition's seam
  lookahead). Bounding the window there guarantees every message
  *generated* during a window is delivered in a strictly later one.

Windows are EXCLUSIVE of their bound: a partition advances through
events strictly before the bound, so the bound tick itself runs in the
next window — after that window's deliveries are injected — and a
message delivering exactly at a window bound still precedes the tick's
local events, the order a monolithic kernel pins (the hypothesis
differential in ``tests/pdes`` found the inclusive-advance ordering
inversion). A final inclusive pass closes the horizon tick the way
``Environment.run(until=horizon)`` would.

Safety is checked, not assumed: every harvested message must deliver at
or after the bound of the window that produced it (an unsound EOT
promise raises :class:`CausalityError`), and the kernel itself refuses
to schedule a delivery into a partition's past.

Two executors run the same protocol:

* :class:`SerialExecutor` — all partitions in-process, advanced in
  index order. The reference: zero IPC, bit-identical result.
* :class:`ProcessExecutor` — partitions mapped round-robin onto K
  persistent spawn workers (one window command per worker per round,
  canonical dicts over a ``multiprocessing`` pipe, error envelopes with
  tracebacks). Workers advance
  their partitions concurrently; the coordinator's protocol is a pure
  function of the specs, so the merged fragments are byte-identical to
  the serial executor's for every worker count.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .partition import CrossMessage, PartitionHarness, PartitionSpec, resolve_builder

__all__ = [
    "CausalityError",
    "WorkerError",
    "Coordinator",
    "SerialExecutor",
    "ProcessExecutor",
    "run_partitioned",
]

_INF = float("inf")


class CausalityError(RuntimeError):
    """A partition violated its EOT promise or a message arrived late."""


class WorkerError(RuntimeError):
    """A partition worker process failed; carries the worker traceback."""


# -- executors ----------------------------------------------------------------


class SerialExecutor:
    """All partitions in one process, advanced in index order."""

    def __init__(self, specs: Sequence[PartitionSpec]) -> None:
        self.harnesses: dict[int, PartitionHarness] = {}
        for spec in specs:
            harness = resolve_builder(spec.builder)(spec)
            harness.build()
            self.harnesses[spec.index] = harness

    @property
    def workers(self) -> int:
        return 0

    def eots(self) -> dict[int, float]:
        return {i: h.eot() for i, h in sorted(self.harnesses.items())}

    def window(
        self,
        bound: float,
        deliveries: dict[int, list[CrossMessage]],
        final: bool = False,
    ) -> tuple[list[CrossMessage], dict[int, float]]:
        harvested: list[CrossMessage] = []
        for i, harness in sorted(self.harnesses.items()):
            harness.deliver(deliveries.get(i, []))
            harness.advance(bound, inclusive=final)
            harvested.extend(harness.harvest())
        return harvested, self.eots()

    def finish(self) -> dict[int, dict]:
        return {
            i: {"fragment": h.finish(), "stats": h.stats()}
            for i, h in sorted(self.harnesses.items())
        }

    def close(self) -> None:
        self.harnesses.clear()


def _pdes_worker_main(conn) -> None:
    """Worker process loop: build partitions, run window commands.

    Every reply is an envelope: ``{"ok": True, ...}`` or
    ``{"ok": False, "error": str, "traceback": str}`` — a failure inside
    one window settles as a coordinator-side :class:`WorkerError` instead
    of a hung pipe.
    """
    import time

    harnesses: dict[int, PartitionHarness] = {}
    cpu_after_build = 0.0
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            return
        try:
            op = cmd["cmd"]
            if op == "build":
                for data in cmd["specs"]:
                    spec = PartitionSpec.from_dict(data)
                    harness = resolve_builder(spec.builder)(spec)
                    harness.build()
                    harnesses[spec.index] = harness
                # bring-up CPU (interpreter import + topology build) is
                # reported here and baselined out of the finish-time
                # number, so the bench can attribute window work and
                # startup separately; neither reaches a digest
                cpu_after_build = time.process_time()
                reply = {
                    "ok": True,
                    "eots": {i: h.eot() for i, h in harnesses.items()},
                    "cpu_s": cpu_after_build,
                }
            elif op == "window":
                harvested: list[dict] = []
                for i in sorted(harnesses):
                    harness = harnesses[i]
                    msgs = [
                        CrossMessage.from_dict(m)
                        for m in cmd["deliveries"].get(i, [])
                    ]
                    harness.deliver(msgs)
                    harness.advance(
                        cmd["bound"], inclusive=cmd.get("final", False)
                    )
                    harvested.extend(m.canonical() for m in harness.harvest())
                reply = {
                    "ok": True,
                    "harvest": harvested,
                    "eots": {i: h.eot() for i, h in harnesses.items()},
                }
            elif op == "finish":
                reply = {
                    "ok": True,
                    "results": {
                        i: {"fragment": h.finish(), "stats": h.stats()}
                        for i, h in harnesses.items()
                    },
                    # this worker's window-phase CPU seconds (bring-up
                    # excluded): the bench harness reads it to report
                    # the partitioned critical path; it never reaches
                    # result fragments or digests
                    "cpu_s": time.process_time() - cpu_after_build,
                }
            elif op == "exit":
                return  # no reply: the parent is already tearing down
            else:  # pragma: no cover - protocol guard
                reply = {"ok": False, "error": f"unknown command {op!r}"}
        except BaseException as exc:  # noqa: BLE001 - envelope everything
            reply = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": _traceback.format_exc(),
            }
        conn.send(reply)


class ProcessExecutor:
    """Partitions round-robin on K persistent spawn workers."""

    def __init__(self, specs: Sequence[PartitionSpec], workers: int) -> None:
        import time
        from multiprocessing import get_context

        if workers < 1:
            raise ValueError("ProcessExecutor needs at least one worker")
        _t0 = time.perf_counter()
        #: per-worker window-phase CPU seconds, filled by finish()
        self.worker_cpu_s: dict[int, float] = {}
        #: per-worker bring-up CPU seconds (import + build), from build()
        self.worker_build_cpu_s: dict[int, float] = {}
        self.workers = min(workers, len(specs)) or 1
        self._owner: dict[int, int] = {
            spec.index: k % self.workers for k, spec in enumerate(specs)
        }
        ctx = get_context("spawn")
        self._conns = []
        self._procs = []
        by_worker: dict[int, list[dict]] = {w: [] for w in range(self.workers)}
        for spec in specs:
            by_worker[self._owner[spec.index]].append(spec.canonical())
        for w in range(self.workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_pdes_worker_main, args=(child,), daemon=True,
                name=f"pdes-worker-{w}",
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        for w in range(self.workers):
            self._conns[w].send({"cmd": "build", "specs": by_worker[w]})
        self._eots: dict[int, float] = {}
        for w in range(self.workers):
            reply = self._checked(self._conns[w].recv())
            self._eots.update(
                {int(i): v for i, v in reply["eots"].items()}
            )
            self.worker_build_cpu_s[w] = reply.get("cpu_s", 0.0)
        #: wall seconds to spawn + build every worker (bench telemetry)
        self.startup_s = time.perf_counter() - _t0

    def _checked(self, reply: dict) -> dict:
        if not reply.get("ok"):
            tb = reply.get("traceback", "")
            self.close()
            raise WorkerError(
                f"pdes worker failed: {reply.get('error')}\n{tb}"
            )
        return reply

    def eots(self) -> dict[int, float]:
        return dict(sorted(self._eots.items()))

    def window(
        self,
        bound: float,
        deliveries: dict[int, list[CrossMessage]],
        final: bool = False,
    ) -> tuple[list[CrossMessage], dict[int, float]]:
        per_worker: dict[int, dict[int, list[dict]]] = {
            w: {} for w in range(self.workers)
        }
        for i, msgs in deliveries.items():
            per_worker[self._owner[i]][i] = [m.canonical() for m in msgs]
        for w in range(self.workers):
            self._conns[w].send(
                {
                    "cmd": "window",
                    "bound": bound,
                    "deliveries": per_worker[w],
                    "final": final,
                }
            )
        harvested: list[CrossMessage] = []
        self._eots = {}
        # collect in worker order: deterministic, and the coordinator
        # re-sorts deliveries anyway
        for w in range(self.workers):
            reply = self._checked(self._conns[w].recv())
            harvested.extend(CrossMessage.from_dict(m) for m in reply["harvest"])
            self._eots.update({int(i): v for i, v in reply["eots"].items()})
        return harvested, self.eots()

    def finish(self) -> dict[int, dict]:
        for w in range(self.workers):
            self._conns[w].send({"cmd": "finish"})
        results: dict[int, dict] = {}
        for w in range(self.workers):
            reply = self._checked(self._conns[w].recv())
            results.update({int(i): r for i, r in reply["results"].items()})
            self.worker_cpu_s[w] = reply.get("cpu_s", 0.0)
        return dict(sorted(results.items()))

    def close(self) -> None:
        for conn, proc in zip(self._conns, self._procs):
            try:
                if not conn.closed:
                    conn.send({"cmd": "exit"})
                    conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)
        self._conns, self._procs = [], []


# -- the coordinator ----------------------------------------------------------


@dataclass
class RunStats:
    """Deterministic execution counters of one partitioned run."""

    partitions: int = 0
    workers: int = 0
    windows: int = 0
    messages: int = 0
    #: the synchronized bounds, in order — the window schedule itself is
    #: a pure function of the specs, so this is digest-stable
    bounds: list = field(default_factory=list)

    def canonical(self) -> dict:
        return {
            "partitions": self.partitions,
            "workers": self.workers,
            "windows": self.windows,
            "messages": self.messages,
            "bounds": list(self.bounds),
        }


class Coordinator:
    """Advance a set of partitions to ``until`` through safe windows."""

    def __init__(
        self,
        specs: Sequence[PartitionSpec],
        until: float,
        workers: Optional[int] = None,
    ) -> None:
        if not specs:
            raise ValueError("need at least one partition spec")
        indices = [s.index for s in specs]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate partition indices: {indices}")
        self.specs = list(specs)
        self.until = float(until)
        self.workers = workers
        self._lookahead = {s.index: s.lookahead_us for s in self.specs}

    def run(self) -> dict:
        """Execute the window protocol; returns fragments + stats.

        Returns ``{"fragments": {index: dict}, "partition_stats":
        {index: dict}, "stats": dict, "timing": dict}``. Everything
        except ``timing`` is canonical and deterministic; ``timing``
        carries wall/CPU measurements for the bench harness and must
        never be folded into digest-bearing result content.
        """
        import time as _time

        _t0 = _time.perf_counter()
        if self.workers:
            executor = ProcessExecutor(self.specs, self.workers)
        else:
            executor = SerialExecutor(self.specs)
        stats = RunStats(partitions=len(self.specs), workers=executor.workers)
        try:
            pending: list[CrossMessage] = []
            eots = executor.eots()
            t = 0.0
            while t < self.until:
                react_cap = min(
                    (m.deliver_at + self._lookahead[m.dst] for m in pending),
                    default=_INF,
                )
                bound = min(self.until, min(eots.values(), default=_INF), react_cap)
                if not bound > t:
                    raise CausalityError(
                        f"window bound {bound} does not advance past {t} — "
                        "an EOT promise or seam lookahead is unsound"
                    )
                due = sorted(
                    (m for m in pending if m.deliver_at <= bound),
                    key=lambda m: m.order_key,
                )
                pending = [m for m in pending if m.deliver_at > bound]
                deliveries: dict[int, list[CrossMessage]] = {}
                for m in due:
                    deliveries.setdefault(m.dst, []).append(m)
                harvested, eots = executor.window(bound, deliveries)
                for m in harvested:
                    if m.deliver_at < bound:
                        raise CausalityError(
                            f"partition {m.src} sent {m.kind!r} delivering at "
                            f"{m.deliver_at}, inside the window it was "
                            f"generated in (bound {bound}) — its EOT promise "
                            "was unsound"
                        )
                    if m.dst not in self._lookahead:
                        raise ValueError(
                            f"message {m.kind!r} addressed to unknown "
                            f"partition {m.dst}; valid indices: "
                            f"{sorted(self._lookahead)}"
                        )
                pending.extend(harvested)
                stats.windows += 1
                stats.messages += len(due)
                stats.bounds.append(bound)
                t = bound
            # Horizon closure. The loop's windows advance each partition
            # EXCLUSIVELY (events strictly before the bound), so tick
            # ``until`` itself is still queued everywhere — with every
            # delivery due at it already injected ahead of it. One
            # inclusive pass processes that tick exactly the way a
            # monolithic ``run(until=horizon)`` would; anything sent
            # from it delivers past the horizon and is dropped either
            # way, so the harvest needs no causality check.
            executor.window(self.until, {}, final=True)
            results = executor.finish()
        finally:
            executor.close()
        return {
            "fragments": {i: r["fragment"] for i, r in results.items()},
            "partition_stats": {i: r["stats"] for i, r in results.items()},
            "stats": stats.canonical(),
            "timing": {
                "wall_s": _time.perf_counter() - _t0,
                "startup_s": getattr(executor, "startup_s", 0.0),
                "worker_cpu_s": dict(getattr(executor, "worker_cpu_s", {})),
                "worker_build_cpu_s": dict(
                    getattr(executor, "worker_build_cpu_s", {})
                ),
            },
        }


def run_partitioned(
    specs: Sequence[PartitionSpec],
    until: float,
    workers: Optional[int] = None,
) -> dict:
    """One-call façade: coordinate *specs* to *until* on *workers*.

    ``workers=None``/``0`` runs the serial reference executor. Inside a
    daemonic process (e.g. a sweep worker that cannot fork children) the
    request quietly degrades to serial — the result is byte-identical
    either way, that being the whole point.
    """
    if workers:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            workers = None
    return Coordinator(specs, until, workers=workers).run()
