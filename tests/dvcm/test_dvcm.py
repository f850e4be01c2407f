"""DVCM: messaging, runtime dispatch, extensions, host API."""

import pytest

from repro.core import DWCSScheduler, StreamingEngine
from repro.dvcm import (
    ExtensionModule,
    MediaSchedulerExtension,
    MessageQueuePair,
    VCMError,
    VCMInterface,
    VCMRuntime,
)
from repro.hw import CPU, I960RD_66, PCISegment
from repro.media import FrameType, MediaFrame
from repro.rtos import WindScheduler
from repro.sim import Environment


@pytest.fixture
def rig():
    env = Environment()
    segment = PCISegment(env, "pci0")
    queues = MessageQueuePair(env, segment, name="card0")
    cpu = CPU(I960RD_66)
    runtime = VCMRuntime(env, queues, cpu)
    rtos = WindScheduler(env)
    rtos.spawn("tVCM", runtime.task_body, priority=60)
    api = VCMInterface(env, queues)
    return env, segment, runtime, api


def echo_module():
    mod = ExtensionModule("echo")
    mod.provide("ping", lambda payload: payload.get("value"))
    mod.provide("fail", lambda payload: 1 / 0)
    return mod


class TestExtensionModule:
    def test_provide_and_qualify(self):
        mod = echo_module()
        assert "ping" in mod.instructions()
        assert mod.qualified("ping") == "echo.ping"

    def test_duplicate_instruction_rejected(self):
        mod = echo_module()
        with pytest.raises(ValueError):
            mod.provide("ping", lambda p: None)


class TestRuntime:
    def test_load_unload(self, rig):
        _env, _seg, runtime, _api = rig
        runtime.load_extension(echo_module())
        assert "echo.ping" in runtime.instruction_names
        runtime.unload_extension("echo")
        assert runtime.instruction_names == []

    def test_duplicate_extension_rejected(self, rig):
        _env, _seg, runtime, _api = rig
        runtime.load_extension(echo_module())
        with pytest.raises(ValueError):
            runtime.load_extension(echo_module())

    def test_unload_missing_raises(self, rig):
        _env, _seg, runtime, _api = rig
        with pytest.raises(KeyError):
            runtime.unload_extension("ghost")

    def test_call_roundtrip(self, rig):
        env, _seg, runtime, api = rig
        runtime.load_extension(echo_module())

        def app():
            result = yield from api.call("echo.ping", {"value": 42})
            return result

        assert env.run(until=env.process(app())) == 42
        assert runtime.messages_handled == 1
        assert api.calls == 1

    def test_unknown_instruction_errors(self, rig):
        env, _seg, runtime, api = rig

        def app():
            yield from api.call("nope.nothing")

        with pytest.raises(VCMError, match="unknown instruction"):
            env.run(until=env.process(app()))
        assert runtime.errors == 1

    def test_handler_exception_travels_as_error_reply(self, rig):
        env, _seg, runtime, api = rig
        runtime.load_extension(echo_module())

        def app():
            yield from api.call("echo.fail")

        with pytest.raises(VCMError):
            env.run(until=env.process(app()))

    def test_call_consumes_pci_for_message_and_bulk(self, rig):
        env, seg, runtime, api = rig
        runtime.load_extension(echo_module())

        def app():
            yield from api.call("echo.ping", {"value": 1}, bulk_bytes=10_000)

        env.run(until=env.process(app()))
        # 8 header words * 4B + 10000B bulk + reply reads
        assert seg.bytes_transferred >= 10_000 + 32

    def test_concurrent_calls_from_two_apps(self, rig):
        env, _seg, runtime, api = rig
        runtime.load_extension(echo_module())
        api2 = VCMInterface(env, runtime.queues, name="app2")
        results = []

        def app(iface, value):
            got = yield from iface.call("echo.ping", {"value": value})
            results.append(got)

        env.process(app(api, 1))
        env.process(app(api2, 2))
        env.run()
        assert sorted(results) == [1, 2]


class TestMediaExtension:
    def _rig_with_media(self, rig):
        env, seg, runtime, api = rig
        scheduler = DWCSScheduler(work_conserving=False)
        sent = []

        def transmit(desc):
            sent.append(desc)
            yield env.timeout(10.0)

        engine = StreamingEngine(env, scheduler, CPU(I960RD_66), transmit)
        rtos = WindScheduler(env, name="vx2")
        rtos.spawn("tDWCS", engine.task_body, priority=100)
        runtime.load_extension(MediaSchedulerExtension(engine))
        return env, runtime, api, engine, sent

    def test_open_submit_stats_close(self, rig):
        env, runtime, api, engine, sent = self._rig_with_media(rig)

        def app():
            yield from api.call(
                "media.open_stream",
                {"stream_id": "s1", "period_us": 10_000.0, "loss_x": 1, "loss_y": 4},
            )
            for k in range(5):
                frame = MediaFrame("s1", k, FrameType.I, 1000, 0.0)
                yield from api.call(
                    "media.submit_frame", {"frame": frame}, bulk_bytes=1000
                )
            yield env.timeout(200_000.0)
            stats = yield from api.call("media.stream_stats", {"stream_id": "s1"})
            return stats

        stats = env.run(until=env.process(app()))
        assert stats["serviced"] == 5
        assert stats["queued"] == 0
        assert len(sent) == 5

    def test_close_nonempty_stream_errors(self, rig):
        env, runtime, api, engine, _sent = self._rig_with_media(rig)

        def app():
            yield from api.call(
                "media.open_stream",
                {"stream_id": "s1", "period_us": 1e9, "loss_x": 0, "loss_y": 1},
            )
            # frame 0 releases immediately, but frame 1's release is a full
            # period away — it is still queued when close arrives
            for k in range(2):
                frame = MediaFrame("s1", k, FrameType.I, 1000, 0.0)
                yield from api.call("media.submit_frame", {"frame": frame})
            yield from api.call("media.close_stream", {"stream_id": "s1"})

        with pytest.raises(VCMError):
            env.run(until=env.process(app()))
