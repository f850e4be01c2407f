"""Opt-in wall-clock self-profiler (host time, never simulated time).

The simulation's golden digests pin *simulated* results bit for bit; what
they cannot tell us is where the *host's* wall-clock seconds go — the
question ROADMAP item 3c (compiled kernel) needs answered before picking
targets. This profiler answers it without touching the simulation at
all: it reads host frames from outside the interpreted workload, so an
instrumented run is bit-identical to an uninstrumented one **by
construction** (and the bench proves it anyway by recomputing the golden
digests with the profiler armed).

Two cooperating mechanisms (the ``sys.setprofile``/sampling hybrid):

* a **sampling thread** wakes every ``interval_s`` of host time, grabs
  the profiled thread's current frame stack via ``sys._current_frames``,
  and tallies the collapsed stack — wall seconds attribute to whoever
  holds the frame, at ~zero overhead for the workload;
* an optional ``sys.setprofile`` hook counts exact **call events** per
  function (enable with ``call_counts=True`` / ``REPRO_PROFILE_CALLS=1``)
  — expensive (every call pays the hook), so it is off by default and
  meant for "how many times", not "how long".

Activation is env-flag driven so any entry point can opt in without
plumbing: ``REPRO_PROFILE=1`` makes :func:`maybe_profile` return a live
profiler (else an inert one). Artifacts:

* :meth:`WallClockProfiler.collapsed` — collapsed-stack text
  (``a;b;c <samples>`` per line), directly flamegraph.pl / speedscope /
  inferno compatible;
* :meth:`WallClockProfiler.hotspots` — the per-module table
  (``repro.core.dwcs``, ``repro.sim.environment``...) that lands in
  ``BENCH_sim.json`` as ``hotspots``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Optional

__all__ = [
    "WallClockProfiler",
    "maybe_profile",
    "PROFILE_ENV_VAR",
    "PROFILE_CALLS_ENV_VAR",
    "DEFAULT_INTERVAL_S",
]

#: set (to anything but ""/"0") to arm the profiler at supported entry points
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: additionally count exact call events via sys.setprofile (expensive)
PROFILE_CALLS_ENV_VAR = "REPRO_PROFILE_CALLS"

#: sampling period, host seconds (500 Hz keeps overhead ~invisible while
#: resolving millisecond-scale hot loops over a multi-second workload)
DEFAULT_INTERVAL_S = 0.002


def _frame_label(frame) -> str:
    """``module:function`` for one frame (module falls back to filename)."""
    module = frame.f_globals.get("__name__") or os.path.basename(
        frame.f_code.co_filename
    )
    return f"{module}:{frame.f_code.co_name}"


class WallClockProfiler:
    """Sampling + call-count profiler for one thread of host execution.

    Use as a context manager around the workload::

        with WallClockProfiler() as prof:
            run_workload()
        print(prof.render_hotspots())

    An **inert** profiler (``enabled=False``) supports the same interface
    but records nothing — callers never need a conditional.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        call_counts: bool = False,
        enabled: bool = True,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval_s = interval_s
        self.call_counts_enabled = call_counts
        self.enabled = enabled
        #: collapsed stack tuple -> sample tally
        self.stacks: dict[tuple[str, ...], int] = {}
        #: function label -> exact call-event count (setprofile mode only)
        self.calls: dict[str, int] = {}
        self.samples = 0
        self.wall_s = 0.0
        self._target_ident: Optional[int] = None
        self._sampler: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._t0 = 0.0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "WallClockProfiler":
        """Begin profiling the *calling* thread."""
        if not self.enabled or self._sampler is not None:
            return self
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._t0 = time.perf_counter()
        if self.call_counts_enabled:
            sys.setprofile(self._profile_hook)
        self._sampler = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._sampler.start()
        return self

    def stop(self) -> "WallClockProfiler":
        if self._sampler is None:
            return self
        if self.call_counts_enabled:
            sys.setprofile(None)
        self._stop.set()
        self._sampler.join()
        self._sampler = None
        self.wall_s += time.perf_counter() - self._t0
        return self

    def __enter__(self) -> "WallClockProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- mechanisms ----------------------------------------------------------
    def _sample_loop(self) -> None:
        ident = self._target_ident
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(ident)
            if frame is None:
                continue
            stack: list[str] = []
            while frame is not None:
                stack.append(_frame_label(frame))
                frame = frame.f_back
            key = tuple(reversed(stack))
            self.stacks[key] = self.stacks.get(key, 0) + 1
            self.samples += 1

    def _profile_hook(self, frame, event: str, arg: Any) -> None:
        if event == "call":
            label = _frame_label(frame)
            self.calls[label] = self.calls.get(label, 0) + 1

    # -- analysis ------------------------------------------------------------
    def collapsed(self) -> str:
        """Collapsed-stack flamegraph text: ``frame;frame;... count``."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.stacks.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def hotspots(self, top: Optional[int] = 15) -> list[dict[str, Any]]:
        """Per-module attribution of sampled wall time.

        Each sample charges its **leaf** frame's module (self time). The
        rows carry sample counts, the share of all samples, and the
        estimated seconds (share x measured wall seconds) — sorted most
        expensive first, module name breaking ties.
        """
        by_module: dict[str, int] = {}
        for stack, count in self.stacks.items():
            module = stack[-1].split(":", 1)[0]
            by_module[module] = by_module.get(module, 0) + count
        total = self.samples or 1
        rows = [
            {
                "module": module,
                "samples": count,
                "share": count / total,
                "est_s": (count / total) * self.wall_s,
            }
            for module, count in by_module.items()
        ]
        rows.sort(key=lambda r: (-r["samples"], r["module"]))
        return rows[:top] if top is not None else rows

    def package_rollup(self) -> dict[str, float]:
        """Sample share per package ``repro.<pkg>`` of each sample's leaf
        module (``repro.net.ttp`` -> ``repro.net``), sorted, then
        ``"other"`` (always present) for leaves outside ``repro``."""
        counts: dict[str, int] = {}
        for stack, count in self.stacks.items():
            parts = stack[-1].split(":", 1)[0].split(".")
            family = ".".join(parts[:2]) if parts[0] == "repro" else "other"
            counts[family] = counts.get(family, 0) + count
        total = self.samples or 1
        shares = {f: counts[f] / total for f in sorted(counts) if f != "other"}
        shares["other"] = counts.get("other", 0) / total
        return shares

    def render_hotspots(self, top: int = 15) -> str:
        lines = [
            f"== hotspots: {self.samples} samples over {self.wall_s:.2f} s =="
        ]
        for row in self.hotspots(top):
            lines.append(
                f"  {row['module']:<40} {row['samples']:>7} samples "
                f"{row['share']:>6.1%}  ~{row['est_s']:.2f} s"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "live" if self._sampler is not None else "stopped"
        return f"<WallClockProfiler {state} samples={self.samples}>"


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0")


def maybe_profile(
    interval_s: float = DEFAULT_INTERVAL_S,
) -> WallClockProfiler:
    """The env-flag entry point: a live profiler when ``REPRO_PROFILE`` is
    set (``REPRO_PROFILE_CALLS`` additionally arms the setprofile hook),
    otherwise an inert one — callers wrap their workload unconditionally."""
    return WallClockProfiler(
        interval_s=interval_s,
        call_counts=_env_truthy(PROFILE_CALLS_ENV_VAR),
        enabled=_env_truthy(PROFILE_ENV_VAR),
    )
