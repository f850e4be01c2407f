"""Sensitivity analysis and mechanism knockouts.

Executable versions of docs/CALIBRATION.md's claims:

* :func:`cost_sensitivity` — perturb each fitted cost constant ±50 % and
  measure how the Table-1/2 cells move. Because each constant was a
  one-equation fit, the response should be smooth and roughly linear —
  and confined to the cells that constant explains.
* :func:`mechanism_knockouts` — turn the figure-level mechanisms off one
  at a time. The finding: the scheduler's decayed TS priority is the
  *necessary* mechanism (fresh priority ⇒ no degradation at all); the
  heavy tail shapes where degradation begins, but at a saturating window
  even dense small requests starve a decayed scheduler.

These are the falsifiability checks: if a knockout did *not* change the
result, the mechanism story in DESIGN.md would be wrong.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.core.costs import DWCSCostModel
from repro.core.engine import MicrobenchEngine
from repro.fixedpoint import FixedPointContext, SoftwareFloatContext
from repro.hw.cache import DataCache
from repro.hw.cpu import CPU, CPUSpec, I960RD_66
from repro.sim import Environment, S

from .calibration import microbench_scheduler
from .report import ExperimentResult

__all__ = ["cost_sensitivity", "mechanism_knockouts"]


def _avg_frame_us(
    ctx_factory: Callable,
    cpu_spec: CPUSpec,
    cache_enabled: bool,
    costs: DWCSCostModel | None = None,
    seed: int = 0,
) -> float:
    # the seed is pinned into the environment's ambient RNG family. The
    # microbench drains deterministic pre-filled rings, so today the run is
    # seed-invariant by construction — but the plumbing is explicit end to
    # end so a sweep's seed axis reaches the run, and any future
    # stochastic component inherits the pin instead of free-running.
    env = Environment(seed=seed)
    cpu = CPU(cpu_spec, cache=DataCache(enabled=cache_enabled))
    scheduler = microbench_scheduler(ctx_factory())
    if costs is not None:
        scheduler.costs = costs
    engine = MicrobenchEngine(env, scheduler, cpu)
    return env.run(until=env.process(engine.run_with_scheduler())).avg_frame_us


def cost_sensitivity(scale: float = 1.5, seed: int = 0) -> ExperimentResult:
    """Scale each fitted constant by *scale* and report the cell movement."""
    result = ExperimentResult(
        exp_id="Sensitivity: cost constants",
        title=f"Table-cell response to x{scale} on each fitted constant",
    )
    base_fixed = _avg_frame_us(
        FixedPointContext, I960RD_66, cache_enabled=False, seed=seed
    )
    base_soft = _avg_frame_us(
        SoftwareFloatContext, I960RD_66, cache_enabled=False, seed=seed
    )
    base_cached = _avg_frame_us(
        FixedPointContext, I960RD_66, cache_enabled=True, seed=seed
    )
    result.add_row("baseline avg frame (fixed, cache off)", base_fixed, "µs")

    # 1. software-FP emulation cost: moves only the software-FP build
    spec = replace(
        I960RD_66, fp_emulation_cycles=I960RD_66.fp_emulation_cycles * scale
    )
    soft = _avg_frame_us(SoftwareFloatContext, spec, cache_enabled=False, seed=seed)
    fixed = _avg_frame_us(FixedPointContext, spec, cache_enabled=False, seed=seed)
    result.add_row(
        f"software-FP cell under x{scale} fp_emulation_cycles", soft, "µs",
        note=f"moved {soft - base_soft:+.1f}µs",
    )
    result.add_row(
        f"fixed-point cell under x{scale} fp_emulation_cycles", fixed, "µs",
        note=f"moved {fixed - base_fixed:+.1f}µs (should be ~0)",
    )

    # 2. uncached memory cost: moves the cache-off cells, not cache-on ones
    spec = replace(
        I960RD_66, mem_uncached_cycles=I960RD_66.mem_uncached_cycles * scale
    )
    off = _avg_frame_us(FixedPointContext, spec, cache_enabled=False, seed=seed)
    on = _avg_frame_us(FixedPointContext, spec, cache_enabled=True, seed=seed)
    result.add_row(
        f"cache-off cell under x{scale} mem_uncached_cycles", off, "µs",
        note=f"moved {off - base_fixed:+.1f}µs",
    )
    result.add_row(
        f"cache-on cell under x{scale} mem_uncached_cycles", on, "µs",
        note=f"moved {on - base_cached:+.1f}µs (partial: misses remain)",
    )

    # 3. decision base: moves everything with-scheduler, uniformly
    costs = replace(
        DWCSCostModel(),
        decision_base_int_ops=int(DWCSCostModel().decision_base_int_ops * scale),
    )
    bumped = _avg_frame_us(FixedPointContext, I960RD_66, False, costs=costs, seed=seed)
    result.add_row(
        f"cache-off cell under x{scale} decision_base", bumped, "µs",
        note=f"moved {bumped - base_fixed:+.1f}µs",
    )
    result.notes.append(
        "each constant moves its own cells and leaves the others' nearly "
        "still — the fits are orthogonal"
    )
    return result


def mechanism_knockouts(duration_us: float = 60 * S, seed: int = 0) -> ExperimentResult:
    """Figure-7 degradation with its mechanisms disabled one at a time."""
    # imported here: the loading machinery pulls in the whole server stack
    from repro.hw.ethernet import EthernetSwitch
    from repro.metrics import Perfmeter
    from repro.server.node import ServerNode
    from repro.server.streaming import HostStreamingService
    from repro.sim import Environment, RandomStreams
    from repro.workload import ApacheServer, Httperf

    from .calibration import (
        APACHE_HEAVY_TAIL,
        HOST_INJECT_GAP_US,
        HOST_SEGMENTATION_US,
        LOAD_PROFILES,
        PREBUFFER_FRAMES,
        figure_mpeg_file,
        figure_stream_specs,
        run_frames,
    )

    def run(heavy_tail: bool, decayed_priority: bool) -> float:
        env = Environment(seed=seed)
        node = ServerNode(env, n_cpus=2, n_pci_segments=2)
        switch = EthernetSwitch(env)
        svc = HostStreamingService(
            env, node, switch, priority=120 if decayed_priority else 110
        )
        n_frames = run_frames(duration_us)
        for i, spec in enumerate(figure_stream_specs()):
            svc.attach_client(f"c{i}")
            svc.open_stream(spec, f"c{i}")
            svc.start_producer(
                figure_mpeg_file(spec.stream_id, seed=seed + i, n_frames=n_frames),
                inject_gap_us=HOST_INJECT_GAP_US,
                segmentation_us=HOST_SEGMENTATION_US,
                prebuffer_frames=PREBUFFER_FRAMES,
            )
        tail = APACHE_HEAVY_TAIL if heavy_tail else {"heavy_tail_prob": 0.0}
        web = ApacheServer(env, node.host_os, rng=RandomStreams(seed + 100), **tail)
        capacity = node.host_os.n_cpus * 1e6 / web.effective_mean_service_us
        Httperf(
            env,
            web,
            rate_per_s=0.001,
            rate_profile=[(t, f * capacity) for t, f in LOAD_PROFILES["60%"]],
            total_calls=10**9,
            rng=RandomStreams(seed + 200),
        )
        env.run(until=duration_us)
        return svc.reception("s1").mean_bandwidth_bps(
            0.72 * duration_us, duration_us
        )

    result = ExperimentResult(
        exp_id="Sensitivity: mechanism knockouts",
        title="Figure-7 '60%' degradation with mechanisms disabled",
    )
    full = run(heavy_tail=True, decayed_priority=True)
    no_tail = run(heavy_tail=False, decayed_priority=True)
    fresh_prio = run(heavy_tail=True, decayed_priority=False)
    neither = run(heavy_tail=False, decayed_priority=False)
    result.add_row("full model (both mechanisms)", full, "bps")
    result.add_row("heavy tail knocked out", no_tail, "bps")
    result.add_row("priority decay knocked out", fresh_prio, "bps")
    result.add_row("both knocked out", neither, "bps")
    result.notes.append(
        "the decayed scheduler priority is the NECESSARY mechanism: knock it "
        "out and full bandwidth returns even under the saturating window. "
        "The heavy tail shapes where degradation begins (it creates the "
        "transient stalls at the sub-saturated '45%' level) but at a "
        "saturating window, dense small requests starve a decayed scheduler "
        "just as hard — or harder"
    )
    return result
