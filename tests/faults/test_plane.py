"""The fault plane: windows, oracles, determinism, hardware hooks."""

import pytest

from repro.dvcm import MessageQueuePair, VCMInterface, VCMRuntime, VCMTimeout
from repro.faults import FaultPlane, FaultWindow
from repro.hw import DiskMediaError, EthernetPort, EthernetSwitch, I960RDCard, SCSIDisk
from repro.hw.pci import PCISegment
from repro.rtos import WindScheduler
from repro.sim import Environment, Tracer


class TestWindows:
    def test_window_matches_time_and_pattern(self):
        w = FaultWindow("link-loss", "client_*", 10.0, 20.0, rate=0.5)
        assert w.matches(10.0, "client_s1")
        assert w.matches(19.9, "client_s2")
        assert not w.matches(20.0, "client_s1")  # end exclusive
        assert not w.matches(9.9, "client_s1")
        assert not w.matches(15.0, "server")

    def test_invalid_windows_rejected(self):
        env = Environment()
        plane = FaultPlane(env)
        with pytest.raises(ValueError):
            plane.inject_link_loss("x", 10.0, 10.0, rate=0.5)  # empty window
        with pytest.raises(ValueError):
            plane.inject_link_loss("x", 0.0, 1.0, rate=0.0)  # rate out of range
        with pytest.raises(ValueError):
            plane.inject_disk_latency("x", 0.0, 1.0, mult=0.5)  # speed-up
        with pytest.raises(ValueError):
            plane.inject_disk_errors("x", 0.0, 1.0, rate=1.5)

    def test_one_plane_per_environment(self):
        env = Environment()
        FaultPlane(env)
        with pytest.raises(RuntimeError):
            FaultPlane(env)

    def test_plane_installs_on_environment(self):
        env = Environment()
        plane = FaultPlane(env, seed=7)
        assert env.fault_plane is plane


class TestOracles:
    def test_no_window_never_fires_and_never_draws(self):
        env = Environment()
        plane = FaultPlane(env, seed=1)
        assert not plane.frame_lost("client_s1")
        assert plane.disk_delay_us("disk0", 100.0) == 0.0
        assert not plane.disk_error("disk0")
        assert not plane.message_dropped("q")
        assert plane.total_injected == 0

    def test_partition_is_certain_loss_without_rng(self):
        env = Environment()
        plane = FaultPlane(env, seed=1)
        plane.inject_partition("client_s1", 0.0, 100.0)
        assert all(plane.frame_lost("client_s1") for _ in range(20))
        assert not plane.frame_lost("client_s2")
        assert plane.injected["link-loss"] == 20

    def test_loss_rate_is_seed_deterministic(self):
        def draws(seed):
            env = Environment()
            plane = FaultPlane(env, seed=seed)
            plane.inject_link_loss("c", 0.0, 100.0, rate=0.3)
            return [plane.frame_lost("c") for _ in range(200)]

        a, b = draws(5), draws(5)
        assert a == b
        c = draws(6)
        assert a != c
        assert 20 < sum(a) < 100  # ~30% of 200

    def test_disk_latency_window(self):
        env = Environment()
        plane = FaultPlane(env, seed=1)
        plane.inject_disk_latency("d0", 0.0, 50.0, mult=3.0, extra_us=7.0)
        assert plane.disk_delay_us("d0", 100.0) == pytest.approx(207.0)
        env.run(until=60.0)
        assert plane.disk_delay_us("d0", 100.0) == 0.0  # window over

    def test_tracer_receives_fault_events(self):
        env = Environment()
        tracer = Tracer(env)
        plane = FaultPlane(env, seed=1, tracer=tracer)
        plane.inject_partition("c", 0.0, 10.0)
        plane.frame_lost("c")
        events = tracer.events(category="fault")
        assert len(events) == 1
        assert events[0].name == "link-loss"


class TestHardwareHooks:
    def test_switch_drops_frames_in_window(self):
        from repro.hw.ethernet import NetFrame

        env = Environment()
        plane = FaultPlane(env, seed=2)
        plane.inject_partition("b", 100.0, 1000.0)
        switch = EthernetSwitch(env)
        a, b = EthernetPort(env, "a"), EthernetPort(env, "b")
        switch.attach(a)
        switch.attach(b)
        got = []

        def rx():
            while True:
                frame = yield b.receive()
                got.append(frame.seqno)

        def tx():
            for i in range(6):
                yield from a.send(NetFrame(payload_bytes=100, seqno=i), "b")
                yield env.timeout(400.0)

        env.process(rx())
        env.process(tx())
        env.run(until=5_000.0)
        # frames sent inside [100, 1000) vanished; dropped counter moved
        assert len(got) < 6
        assert switch.frames_dropped > 0
        assert plane.injected["link-loss"] == 6 - len(got)

    def test_disk_media_error_and_latency(self):
        env = Environment()
        plane = FaultPlane(env, seed=3)
        disk = SCSIDisk(env, name="d0")
        plane.inject_disk_errors("d0", 0.0, 1e12, rate=1.0)
        outcome = {}

        def io():
            try:
                yield from disk.read(4096)
            except DiskMediaError:
                outcome["error"] = True

        env.run(until=env.process(io()))
        assert outcome.get("error")
        assert disk.stats.media_errors == 1

    def test_disk_latency_slows_access(self):
        def run(mult):
            env = Environment()
            plane = FaultPlane(env, seed=3)
            if mult > 1.0:
                plane.inject_disk_latency("d0", 0.0, 1e12, mult=mult)
            disk = SCSIDisk(env, name="d0")

            def io():
                yield from disk.read(65536)

            env.run(until=env.process(io()))
            return env.now

        assert run(10.0) > 2 * run(1.0)

    def test_card_crash_and_reset_callbacks(self):
        env = Environment()
        plane = FaultPlane(env, seed=4)
        segment = PCISegment(env, "pci0")
        card = I960RDCard(env, segment, name="i2o0")
        seen = []
        card.on_crash.append(lambda: seen.append(("crash", env.now)))
        card.on_reset.append(lambda: seen.append(("reset", env.now)))
        plane.schedule_card_crash(card, at_us=1_000.0, down_us=500.0)
        env.run(until=400.0)
        assert not card.crashed
        env.run(until=1_200.0)
        assert card.crashed
        env.run(until=2_000.0)
        assert not card.crashed
        assert card.crash_count == 1
        assert seen == [("crash", 1_000.0), ("reset", 1_500.0)]
        assert plane.injected == {"card-crash": 1, "card-reset": 1}


class TestMessagingFaults:
    def _vcm(self, seed):
        env = Environment()
        plane = FaultPlane(env, seed=seed)
        segment = PCISegment(env, "pci0")
        card = I960RDCard(env, segment, name="i2o0")
        queues = MessageQueuePair(env, segment, name="q0")
        runtime = VCMRuntime(env, queues, card.cpu)
        vxworks = WindScheduler(env, cpu_spec=card.cpu.spec)
        vxworks.spawn("tVCM", runtime.task_body, priority=60)
        from repro.dvcm.extension import ExtensionModule

        mod = ExtensionModule("echo")
        mod.provide("ping", lambda payload: payload.get("x"))
        runtime.load_extension(mod)
        api = VCMInterface(env, queues, timeout_us=20_000.0, max_retries=3)
        return env, plane, queues, runtime, api

    def test_dropped_request_is_retried_and_served(self):
        env, plane, queues, runtime, api = self._vcm(seed=9)
        # drop everything for the first 10 ms, then heal
        plane.inject_message_drop("q0", 0.0, 10_000.0, rate=1.0)
        result = {}

        def app():
            result["x"] = yield from api.call("echo.ping", {"x": 41})

        env.run(until=env.process(app()))
        assert result["x"] == 41
        assert queues.dropped >= 1
        assert api.timeouts >= 1

    def test_duplicated_request_executes_once(self):
        env, plane, queues, runtime, api = self._vcm(seed=9)
        plane.inject_message_duplication("q0", 0.0, 1e12, rate=1.0)
        result = {}

        def app():
            result["x"] = yield from api.call("echo.ping", {"x": 7})

        env.run(until=env.process(app()))
        env.run(until=env.now + 100_000.0)  # let the duplicate drain
        assert result["x"] == 7
        assert queues.duplicated >= 1
        assert runtime.duplicates_deduped >= 1
        assert runtime.messages_handled == 1  # at-most-once execution

    def test_permanent_blackout_raises_vcm_timeout(self):
        env, plane, queues, runtime, api = self._vcm(seed=9)
        plane.inject_message_drop("q0", 0.0, 1e12, rate=1.0)
        outcome = {}

        def app():
            try:
                yield from api.call("echo.ping", {"x": 1})
            except VCMTimeout:
                outcome["timeout"] = True

        env.run(until=env.process(app()))
        assert outcome.get("timeout")
        # exponential backoff: 20 + 40 + 80 + 160 ms before giving up
        assert env.now >= 300_000.0
