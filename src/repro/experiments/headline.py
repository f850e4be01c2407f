"""The headline comparison: scheduling overhead, NI vs host.

"The scheduling overhead of the host-based DWCS scheduler ... is of the
order of ≈50 µs. This result was obtained on an UltraSPARC CPU (300 MHz)
with quiescent load. The scheduling overhead of the i960 RD I2O card
(66 MHz) based scheduler is around ≈65 µs. These results are comparable,
although the i960 RD is a much slower processor (factor of 4)."

Scheduling overhead = (avg frame time with scheduler) − (avg frame time
without), from the drain-the-rings microbenchmark, cache enabled.
"""

from __future__ import annotations

from repro.core.engine import MicrobenchEngine
from repro.fixedpoint import FixedPointContext
from repro.hw.cache import DataCache
from repro.hw.cpu import CPU, CPUSpec, I960RD_66, ULTRASPARC_300
from repro.server.streaming import HOST_DWCS_COSTS
from repro.sim import Environment

from .calibration import microbench_scheduler
from .report import ExperimentResult

__all__ = ["headline", "scheduling_overhead"]


def scheduling_overhead(cpu_spec: CPUSpec, costs=None, cache_enabled: bool = True) -> float:
    """Measured per-frame scheduling overhead (µs) on *cpu_spec*."""
    results = []
    for with_scheduler in (True, False):
        env = Environment()
        cpu = CPU(cpu_spec, cache=DataCache(enabled=cache_enabled))
        scheduler = microbench_scheduler(FixedPointContext())
        if costs is not None:
            scheduler.costs = costs
        engine = MicrobenchEngine(env, scheduler, cpu)
        gen = (
            engine.run_with_scheduler()
            if with_scheduler
            else engine.run_without_scheduler()
        )
        results.append(env.run(until=env.process(gen)))
    return results[0].avg_frame_us - results[1].avg_frame_us


def headline() -> ExperimentResult:
    """NI (66 MHz i960, embedded build) vs host (300 MHz UltraSPARC,
    SysV-shared-memory build) scheduling overhead."""
    result = ExperimentResult(
        exp_id="Headline", title="Scheduling Overhead: NI CoProcessor vs Host CPU"
    )
    ni = scheduling_overhead(I960RD_66)
    host = scheduling_overhead(ULTRASPARC_300, costs=HOST_DWCS_COSTS)
    result.add_row("i960 RD (66 MHz) scheduling overhead", ni, "µs", paper=65.0)
    result.add_row("UltraSPARC (300 MHz) host scheduling overhead", host, "µs", paper=50.0)
    result.add_row(
        "overhead ratio (NI/host)", ni / host, "", paper=65.0 / 50.0,
        note="comparable despite the ~4x clock gap",
    )
    result.add_row(
        "clock ratio (host/NI)", ULTRASPARC_300.clock_mhz / I960RD_66.clock_mhz, "",
        paper=4.0, note="paper: 'a much slower processor (factor of 4)'",
    )
    result.notes.append(
        "half an Ethernet frame time (~120 µs on 100 Mbps) comfortably covers "
        "the NI overhead"
    )
    return result
