"""Ablation benchmarks for the design choices the paper calls out.

Each ablation flips one design decision from §3.1.1/§4.2 of the paper and
measures the consequence on the simulated platform:

* selection structure (dual heaps vs linear scan) as streams scale;
* frame residency (single copy in NI memory vs 'pull' from host memory);
* dedicated scheduler NI (data cache usable) vs disk-attached NI (cache
  forced off by the VxWorks disk driver);
* coupled vs asynchronous scheduling/dispatch.
"""

import pytest

from conftest import run_once
from repro.core import (
    DWCSScheduler,
    DualHeaps,
    LinearScan,
    MicrobenchEngine,
    StreamSpec,
)
from repro.core.engine import MicrobenchResult
from repro.experiments.calibration import microbench_scheduler
from repro.fixedpoint import FixedPointContext
from repro.hw import CPU, DataCache, I960RD_66, PCISegment
from repro.hw.bus import Bus
from repro.hw.pci import PCIBridge
from repro.media import FrameType, MediaFrame
from repro.sim import Environment


def drain(scheduler, cpu) -> MicrobenchResult:
    env = Environment()
    engine = MicrobenchEngine(env, scheduler, cpu)
    return env.run(until=env.process(engine.run_with_scheduler()))


def build_scheduler(selection_factory, n_streams, frames_per_stream=8, miss_scan="structure"):
    s = DWCSScheduler(
        ctx=FixedPointContext(),
        selection_factory=selection_factory,
        work_conserving=True,
        miss_scan=miss_scan,
    )
    for i in range(n_streams):
        # distinct periods: with identical deadline chains every head ties
        # and the heap's tie cohort degenerates to the full stream set
        s.add_stream(
            StreamSpec(f"s{i}", period_us=30_000.0 + 701.0 * i, loss_x=1, loss_y=4)
        )
    for i in range(n_streams):
        for k in range(frames_per_stream):
            s.enqueue(MediaFrame(f"s{i}", k, FrameType.I, 1000, 0.0), 0.0)
    return s


class TestSelectionStructureAblation:
    """Dual heaps exist for scale — but only once the miss scan is also
    structure-driven. The paper's embedded build walks every descriptor per
    cycle ('descriptor-loop'), which makes both structures O(n); the
    scalable build ('structure') lets the deadline heap pay off."""

    @pytest.mark.parametrize("n_streams", [4, 16, 64])
    def test_structures_scale_differently(self, benchmark, n_streams):
        def run():
            out = {}
            for factory in (DualHeaps, LinearScan):
                cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
                result = drain(
                    build_scheduler(factory, n_streams, miss_scan="structure"), cpu
                )
                out[factory.name] = result.avg_frame_us
            return out

        out = run_once(benchmark, run)
        print(f"\nn_streams={n_streams}: {out}")
        if n_streams >= 64:
            # the O(n)-per-decision scan falls behind the heaps
            assert out["linear-scan"] > out["dual-heaps"]

    def test_descriptor_loop_build_is_o_n_regardless_of_structure(self, benchmark):
        """With the embedded build's per-cycle descriptor walk, the heap
        cannot help — the finding that motivates the 'structure' mode."""

        def run():
            out = {}
            for factory in (DualHeaps, LinearScan):
                cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
                small = drain(
                    build_scheduler(factory, 4, miss_scan="descriptor-loop"), cpu
                ).avg_frame_us
                cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
                big = drain(
                    build_scheduler(factory, 64, miss_scan="descriptor-loop"), cpu
                ).avg_frame_us
                out[factory.name] = big / small
            return out

        out = run_once(benchmark, run)
        print(f"\n64-vs-4-stream cost ratio: {out}")
        # both structures blow up under the descriptor loop
        for ratio in out.values():
            assert ratio > 2.0

    def test_both_structures_drain_everything(self, benchmark):
        def run():
            for factory in (DualHeaps, LinearScan):
                s = build_scheduler(factory, 8)
                result = drain(s, CPU(I960RD_66))
                assert result.frames == 8 * 8
                assert s.backlog == 0
            return True

        assert run_once(benchmark, run)


class TestFrameResidencyAblation:
    """Paper §3.1.2: frames resident in NI memory vs 'pulled' from host
    memory per dispatch — the pull adds PCI+host-bus latency to every
    frame and consumes host-bus bandwidth."""

    FRAMES = 151
    FRAME_BYTES = 1000

    def test_pull_from_host_adds_latency_and_host_traffic(self, benchmark):
        def run():
            out = {}
            for residency in ("ni-memory", "host-pull"):
                env = Environment()
                host_bus = Bus(env, "hostbus", bandwidth_mb_s=528.0)
                segment = PCISegment(env, "pci0")
                bridge = PCIBridge(env, host_bus, segment)
                cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
                scheduler = microbench_scheduler(FixedPointContext())
                engine = MicrobenchEngine(env, scheduler, cpu)

                def with_pull():
                    start = env.now
                    frames = 0
                    while scheduler.backlog:
                        decision = scheduler.schedule(env.now)
                        yield env.timeout(cpu.time_for(decision.ops))
                        if decision.serviced is None:
                            continue
                        if residency == "host-pull":
                            yield from bridge.transfer(self.FRAME_BYTES)
                        d_ops = scheduler.dispatch_ops()
                        yield env.timeout(cpu.time_for(d_ops))
                        frames += 1
                    return (env.now - start) / frames

                out[residency] = {
                    "avg_frame_us": env.run(until=env.process(with_pull())),
                    "host_bus_bytes": host_bus.bytes_transferred,
                }
            return out

        out = run_once(benchmark, run)
        print(f"\n{out}")
        ni, pull = out["ni-memory"], out["host-pull"]
        assert ni["host_bus_bytes"] == 0
        assert pull["host_bus_bytes"] == self.FRAMES * self.FRAME_BYTES
        # the pull adds roughly a 1000-byte bridge transfer (~15+ µs/frame)
        added = pull["avg_frame_us"] - ni["avg_frame_us"]
        assert added > 10.0


class TestDedicatedSchedulerNIAblation:
    """Paper §4.2: a dedicated (disk-less) scheduler NI may enable its data
    cache; co-locating producers' disks forces the cache off."""

    def test_dedicated_ni_schedules_faster(self, benchmark):
        def run():
            out = {}
            for config, cache_on in (("dedicated", True), ("disk-attached", False)):
                cpu = CPU(I960RD_66, cache=DataCache(enabled=cache_on))
                result = drain(microbench_scheduler(FixedPointContext()), cpu)
                out[config] = result.avg_frame_us
            return out

        out = run_once(benchmark, run)
        print(f"\n{out}")
        saving = out["disk-attached"] - out["dedicated"]
        assert 8.0 < saving < 25.0  # the paper's ~14 µs cache effect


class TestDispatchCouplingAblation:
    """Paper §3.1.1: asynchronous scheduling/dispatch raises the decision
    rate but adds dispatch-queue residence to every frame."""

    def test_async_dispatch_decides_faster_but_queues_frames(self, benchmark):
        def run():
            out = {}
            # coupled: decision+dispatch interleaved (the default engine)
            cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
            coupled = drain(microbench_scheduler(FixedPointContext()), cpu)
            out["coupled"] = {"decision_gap_us": coupled.total_us / coupled.frames}

            # async: all decisions first (into a dispatch queue), then a
            # separate dispatch pass drains it
            env = Environment()
            cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
            scheduler = microbench_scheduler(FixedPointContext())

            def async_run():
                queue = []
                t0 = env.now
                while scheduler.backlog:
                    decision = scheduler.schedule(env.now)
                    yield env.timeout(cpu.time_for(decision.ops))
                    if decision.serviced is not None:
                        queue.append((env.now, decision.serviced))
                decide_gap = (env.now - t0) / len(queue)
                residence = 0.0
                for queued_at, _desc in queue:
                    d_ops = scheduler.dispatch_ops()
                    yield env.timeout(cpu.time_for(d_ops))
                    residence += env.now - queued_at
                return decide_gap, residence / len(queue)

            decide_gap, residence = env.run(until=env.process(async_run()))
            out["async"] = {
                "decision_gap_us": decide_gap,
                "dispatch_queue_residence_us": residence,
            }
            return out

        out = run_once(benchmark, run)
        print(f"\n{out}")
        # decisions come faster without interleaved dispatch...
        assert out["async"]["decision_gap_us"] < out["coupled"]["decision_gap_us"]
        # ...but frames sit in the dispatch queue meanwhile
        assert out["async"]["dispatch_queue_residence_us"] > 1000.0
