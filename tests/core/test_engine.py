"""Microbenchmark and streaming engines."""

import pytest

from repro.core import (
    DWCSScheduler,
    MicrobenchEngine,
    StreamingEngine,
    StreamSpec,
)
from repro.fixedpoint import FixedPointContext, SoftwareFloatContext
from repro.hw import CPU, DataCache, I960RD_66
from repro.media import FrameType, MediaFrame
from repro.rtos import WindScheduler
from repro.sim import Environment


def make_scheduler(ctx=None, n_streams=4, frames_per_stream=38, period_us=33_333.0):
    s = DWCSScheduler(ctx=ctx, work_conserving=True)
    for i in range(n_streams):
        s.add_stream(StreamSpec(f"s{i}", period_us=period_us, loss_x=1, loss_y=4))
    for i in range(n_streams):
        for k in range(frames_per_stream):
            s.enqueue(MediaFrame(f"s{i}", k, FrameType.I, 1000, 0.0), 0.0)
    return s


class TestMicrobenchEngine:
    def test_requires_work_conserving(self):
        env = Environment()
        s = DWCSScheduler(work_conserving=False)
        with pytest.raises(ValueError):
            MicrobenchEngine(env, s, CPU(I960RD_66))

    def test_drains_all_frames(self):
        env = Environment()
        s = make_scheduler()
        engine = MicrobenchEngine(env, s, CPU(I960RD_66))
        result = env.run(until=env.process(engine.run_with_scheduler()))
        assert result.frames == 4 * 38
        assert s.backlog == 0
        assert result.total_us > 0
        assert result.avg_frame_us == pytest.approx(result.total_us / result.frames)

    def test_bypass_is_much_cheaper_per_frame(self):
        env = Environment()
        s1, s2 = make_scheduler(), make_scheduler()
        with_s = env.run(
            until=env.process(MicrobenchEngine(env, s1, CPU(I960RD_66)).run_with_scheduler())
        )
        without = env.run(
            until=env.process(MicrobenchEngine(env, s2, CPU(I960RD_66)).run_without_scheduler())
        )
        assert without.frames == with_s.frames
        assert without.avg_frame_us < with_s.avg_frame_us / 2

    def test_scheduling_overhead_in_paper_band(self):
        """Fixed point, cache off: overhead (with - without) ≈ 70-80 µs."""
        env = Environment()
        cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
        s1 = make_scheduler(ctx=FixedPointContext())
        s2 = make_scheduler(ctx=FixedPointContext())
        with_s = env.run(
            until=env.process(MicrobenchEngine(env, s1, cpu).run_with_scheduler())
        )
        without = env.run(
            until=env.process(MicrobenchEngine(env, s2, cpu).run_without_scheduler())
        )
        overhead = with_s.avg_frame_us - without.avg_frame_us
        assert 50.0 < overhead < 110.0

    def test_software_fp_slower_than_fixed_point(self):
        env = Environment()
        cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
        fixed = env.run(
            until=env.process(
                MicrobenchEngine(env, make_scheduler(ctx=FixedPointContext()), cpu).run_with_scheduler()
            )
        )
        soft = env.run(
            until=env.process(
                MicrobenchEngine(
                    env, make_scheduler(ctx=SoftwareFloatContext()), cpu
                ).run_with_scheduler()
            )
        )
        delta = soft.avg_frame_us - fixed.avg_frame_us
        assert 10.0 < delta < 40.0  # paper: ~20 µs

    def test_cache_enabled_saves_per_frame_time(self):
        env = Environment()
        cold = CPU(I960RD_66, cache=DataCache(enabled=False))
        warm = CPU(I960RD_66, cache=DataCache(hit_ratio=0.9, enabled=True))
        off = env.run(
            until=env.process(
                MicrobenchEngine(env, make_scheduler(ctx=FixedPointContext()), cold).run_with_scheduler()
            )
        )
        on = env.run(
            until=env.process(
                MicrobenchEngine(env, make_scheduler(ctx=FixedPointContext()), warm).run_with_scheduler()
            )
        )
        saving = off.avg_frame_us - on.avg_frame_us
        assert 8.0 < saving < 25.0  # paper: ~14 µs


class TestStreamingEngine:
    def _build(self, env):
        scheduler = DWCSScheduler(work_conserving=False)
        scheduler.add_stream(StreamSpec("s1", period_us=40_000.0, loss_x=1, loss_y=4))
        sent = []

        def transmit(desc):
            sent.append((env.now, desc))
            yield env.timeout(80.0)

        cpu = CPU(I960RD_66, cache=DataCache(enabled=False))
        engine = StreamingEngine(env, scheduler, cpu, transmit)
        rtos = WindScheduler(env)
        rtos.spawn("tDWCS", engine.task_body, priority=100)
        return engine, sent

    def test_paced_delivery_at_stream_rate(self):
        env = Environment()
        engine, sent = self._build(env)

        def producer():
            for k in range(20):
                engine.submit(MediaFrame("s1", k, FrameType.I, 1000, 0.0))
                yield env.timeout(1.0)  # inject quickly (backlogged stream)

        env.process(producer())
        env.run(until=2_000_000.0)
        engine.stop()
        # ~2s / 40ms period = ~50 release slots, 20 frames available
        assert len(sent) == 20
        # paced: consecutive sends ~period apart, not back-to-back
        gaps = [b[0] - a[0] for a, b in zip(sent, sent[1:])]
        assert sum(gaps) / len(gaps) == pytest.approx(40_000.0, rel=0.1)

    def test_queuing_delay_recorded(self):
        env = Environment()
        engine, _sent = self._build(env)

        def producer():
            for k in range(10):
                engine.submit(MediaFrame("s1", k, FrameType.I, 1000, 0.0))
                yield env.timeout(1.0)

        env.process(producer())
        env.run(until=1_000_000.0)
        engine.stop()
        stats = engine.delay_stats["s1"]
        assert stats.count == 10
        # backlogged: later frames wait ~k*period
        assert stats.max > 5 * 40_000.0 * 0.8
        assert engine.frames_sent["s1"] == 10

    def test_engine_sleeps_when_idle(self):
        env = Environment()
        engine, sent = self._build(env)
        env.run(until=500_000.0)
        # no producers: nothing sent, simulation didn't spin forever
        assert sent == []

    def test_idle_cycles_do_not_recount_the_backlog(self):
        class CountingScheduler(DWCSScheduler):
            backlog_reads = 0

            @property
            def backlog(self):
                self.backlog_reads += 1
                return super().backlog

        env = Environment()
        scheduler = CountingScheduler(work_conserving=False)
        scheduler.add_stream(StreamSpec("s1", period_us=40_000.0, loss_x=1, loss_y=4))
        engine = StreamingEngine(
            env, scheduler, CPU(I960RD_66, cache=DataCache(enabled=False)),
            lambda desc: iter(()),
        )
        WindScheduler(env).spawn("tDWCS", engine.task_body, priority=100)
        env.run(until=500_000.0)
        assert scheduler.stats.decisions > 100
        assert scheduler.backlog_reads == 0

    def test_wakeup_on_submit(self):
        env = Environment()
        engine, sent = self._build(env)

        def late_producer():
            yield env.timeout(300_000.0)
            engine.submit(MediaFrame("s1", 0, FrameType.I, 1000, 0.0))

        env.process(late_producer())
        env.run(until=400_000.0)
        assert len(sent) == 1
        # served promptly after submit (release = enqueue time for frame 0
        # is anchor+period-period = anchor)
        assert sent[0][0] < 310_000.0
