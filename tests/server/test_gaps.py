"""Edge-case coverage: paths at EOF, engine corner cases, cost helpers."""

import pytest

from repro.core import DWCSScheduler, MicrobenchEngine, StreamSpec
from repro.core.costs import DWCSCostModel
from repro.core.engine import MicrobenchResult
from repro.fixedpoint import OpCounter
from repro.hw import CPU, EthernetPort, EthernetSwitch, I960RD_66
from repro.metrics import Perfmeter
from repro.rtos import SolarisHostOS
from repro.server import ServerNode, path_a_transfer, path_b_transfer, path_c_transfer
from repro.sim import Environment, S


@pytest.fixture
def env():
    return Environment()


class TestPathsAtEOF:
    def _rig(self, env):
        node = ServerNode(env)
        switch = EthernetSwitch(env)
        client = EthernetPort(env, "client")
        switch.attach(client)
        return node, switch

    def test_path_a_eof_returns_zero(self, env):
        node, switch = self._rig(env)
        ctrl = node.add_disk_controller()
        nic = node.add_82557_nic()
        switch.attach(nic.eth_port)
        f = ctrl.mount_ufs().open("tiny", size_bytes=500)

        def run():
            first = yield from path_a_transfer(node, ctrl, f, nic, "client", 1000)
            second = yield from path_a_transfer(node, ctrl, f, nic, "client", 1000)
            return first, second

        first, second = env.run(until=env.process(run()))
        assert first > 0.0
        assert second == 0.0  # EOF: nothing transferred, no latency charged

    def test_path_c_eof_returns_zero(self, env):
        node, switch = self._rig(env)
        card = node.add_i960_card()
        fs = card.attach_disk()
        switch.attach(card.eth_ports[0])
        f = fs.open("tiny", size_bytes=100)

        def run():
            yield from path_c_transfer(card, f, "client", 1000)
            return (yield from path_c_transfer(card, f, "client", 1000))

        assert env.run(until=env.process(run())) == 0.0

    def test_path_b_eof_returns_zero(self, env):
        node, switch = self._rig(env)
        producer = node.add_i960_card()
        sched_card = node.add_i960_card()
        fs = producer.attach_disk()
        switch.attach(sched_card.eth_ports[0])
        f = fs.open("tiny", size_bytes=100)

        def run():
            yield from path_b_transfer(producer, sched_card, f, "client", 1000)
            return (
                yield from path_b_transfer(producer, sched_card, f, "client", 1000)
            )

        assert env.run(until=env.process(run())) == 0.0


class TestEngineCorners:
    def test_empty_result_avg_is_zero(self):
        assert MicrobenchResult(frames=0, total_us=0.0).avg_frame_us == 0.0

    def test_empty_scheduler_drains_immediately(self, env):
        s = DWCSScheduler(work_conserving=True)
        s.add_stream(StreamSpec("s", period_us=1.0, loss_x=0, loss_y=1))
        engine = MicrobenchEngine(env, s, CPU(I960RD_66))
        result = env.run(until=env.process(engine.run_with_scheduler()))
        assert result.frames == 0

    def test_bypass_loop_empties_all_queues(self, env):
        from repro.media import FrameType, MediaFrame

        s = DWCSScheduler(work_conserving=True)
        for i in range(3):
            s.add_stream(StreamSpec(f"s{i}", period_us=1000.0, loss_x=1, loss_y=2))
            for k in range(4):
                s.enqueue(MediaFrame(f"s{i}", k, FrameType.I, 100, 0.0), 0.0)
        engine = MicrobenchEngine(env, s, CPU(I960RD_66))
        result = env.run(until=env.process(engine.run_without_scheduler()))
        assert result.frames == 12
        assert s.backlog == 0


class TestCostModelHelpers:
    def test_each_charge_touches_its_categories(self):
        costs = DWCSCostModel()
        for charge, expect in (
            (costs.charge_decision_base, ("int_ops", "branches")),
            (
                lambda ops: costs.charge_streams_examined(ops, 1),
                ("int_ops", "branches", "mem_reads"),
            ),
            (costs.charge_adjustment, ("int_ops", "mem_reads", "mem_writes")),
            (costs.charge_dispatch, ("int_ops", "branches", "mem_reads", "mem_writes")),
        ):
            ops = OpCounter()
            charge(ops)
            for field in expect:
                assert getattr(ops, field) > 0, (charge, field)
            assert ops.fp_ops == 0  # arithmetic goes through the context


class TestPerfmeterBounds:
    def test_average_with_end_bound(self, env):
        host = SolarisHostOS(env, n_cpus=1)

        def burner(task):
            yield task.compute(2 * S)

        host.spawn("burn", burner)
        meter = Perfmeter(env, host, period_us=1 * S)
        env.run(until=4 * S)
        busy_phase = meter.average(start=0, end=2 * S)
        # samples land exactly on second boundaries; the [start, end)
        # window makes the t=2s sample part of the busy phase
        idle_phase = meter.average(start=2 * S + 1, end=4 * S + 1)
        assert busy_phase > 90.0
        assert idle_phase < 10.0

    def test_peak(self, env):
        host = SolarisHostOS(env, n_cpus=1)
        meter = Perfmeter(env, host, period_us=1 * S)
        env.run(until=3 * S)
        assert meter.peak() == pytest.approx(0.0, abs=0.5)
