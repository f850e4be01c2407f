"""Ethernet links, switch forwarding, and stack cost conventions."""

import pytest

from repro.hw import (
    CLIENT_STACK,
    EthernetLink,
    EthernetPort,
    EthernetSwitch,
    HOST_STACK,
    I960_STACK,
    NetFrame,
)
from repro.faults import FaultPlane
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def run_process(env, gen):
    return env.run(until=env.process(gen))


def _pair(env, **switch_kwargs):
    switch = EthernetSwitch(env, **switch_kwargs)
    a, b = EthernetPort(env, "a"), EthernetPort(env, "b")
    switch.attach(a)
    switch.attach(b)
    return switch, a, b


#: payload whose frame is 1250 bytes on the wire: 100 µs at 100 Mbps
PAYLOAD_100US = 1250 - 46


class TestLink:
    """A link is driven by its owner: the port's uplink, the switch's
    downlink. Each hop holds it for wire time plus propagation."""

    def test_full_frame_wire_time_is_about_120us(self, env):
        """Paper yardstick: a full Ethernet frame ≈120 µs on 100 Mbps."""
        link = EthernetLink(env)
        assert link.wire_time_us(1500) == pytest.approx(120.0)

    def test_transmit_latency(self, env):
        """One frame through an idle switch: exactly up-wire + propagation
        + switch latency + down-wire + propagation."""
        switch, a, _b = _pair(env)
        frame = NetFrame(payload_bytes=PAYLOAD_100US)
        latency = run_process(env, a.send(frame, "b"))
        assert latency == 100.0 + 1.0 + switch.latency_us + 100.0 + 1.0

    def test_transmissions_serialize(self, env):
        """Two frames sent at once queue on the uplink: the second arrives
        one uplink hold (wire + propagation) after the first."""
        _switch, a, _b = _pair(env)
        ends = []

        def tx():
            yield from a.send(NetFrame(payload_bytes=PAYLOAD_100US), "b")
            ends.append(env.now)

        env.process(tx())
        env.process(tx())
        env.run()
        assert ends[1] - ends[0] == 100.0 + 1.0

    def test_accounting(self, env):
        """Each link a forwarded frame crosses counts it exactly once."""
        switch, a, _b = _pair(env)
        frame = NetFrame(payload_bytes=500)
        run_process(env, a.send(frame, "b"))
        for link in (a.uplink, switch._downlinks["b"]):
            assert link.bytes_sent == frame.wire_bytes == 546
            assert link.frames_sent == 1
        assert switch._downlinks["a"].frames_sent == 0

    def test_invalid_bandwidth(self, env):
        with pytest.raises(ValueError):
            EthernetLink(env, bandwidth_mbps=0)


class TestNetFrame:
    def test_wire_bytes_include_headers(self):
        f = NetFrame(payload_bytes=1000)
        assert f.wire_bytes == 1000 + 46

    def test_large_payload_fragments(self):
        f = NetFrame(payload_bytes=3000)
        assert f.wire_bytes == 3000 + 2 * 46  # two MTU-sized packets


class TestSwitch:
    def test_end_to_end_delivery(self, env):
        switch, a, b = _pair(env)
        frame = NetFrame(payload_bytes=1000, stream_id="s1", seqno=7)

        def sender():
            yield from a.send(frame, "b")

        def receiver():
            got = yield b.receive()
            return got

        env.process(sender())
        got = env.run(until=env.process(receiver()))
        assert got is frame
        assert got.seqno == 7

    def test_store_and_forward_latency(self, env):
        switch, a, b = _pair(env)
        frame = NetFrame(payload_bytes=1000)

        def sender():
            latency = yield from a.send(frame, "b")
            return latency

        latency = env.run(until=env.process(sender()))
        wire = 8 * frame.wire_bytes / 100.0
        # two serializations (uplink + downlink) + switch latency + 2 props
        assert latency == pytest.approx(2 * wire + switch.latency_us + 2.0, rel=0.01)

    def test_unknown_destination_raises(self, env):
        _switch, a, _b = _pair(env)

        def sender():
            yield from a.send(NetFrame(payload_bytes=10), "nowhere")

        with pytest.raises(KeyError):
            env.run(until=env.process(sender()))

    def test_unattached_port_send_raises(self, env):
        lone = EthernetPort(env, "lone")

        def sender():
            yield from lone.send(NetFrame(payload_bytes=10), "b")

        with pytest.raises(RuntimeError):
            env.run(until=env.process(sender()))

    def test_duplicate_port_name_rejected(self, env):
        switch = EthernetSwitch(env)
        switch.attach(EthernetPort(env, "x"))
        with pytest.raises(ValueError):
            switch.attach(EthernetPort(env, "x"))

    def test_port_names(self, env):
        switch, a, b = _pair(env)
        assert switch.port_names == ["a", "b"]

    @pytest.mark.parametrize("fault", ["loss_rate", "partition"])
    def test_lost_frame_counts_on_the_uplink_only(self, env, fault):
        """A frame the switch loses crossed the uplink, never the downlink."""
        if fault == "loss_rate":

            class AlwaysLose:
                def random(self):
                    return 0.0

            switch, a, b = _pair(env, loss_rate=0.5, loss_rng=AlwaysLose())
        else:
            switch, a, b = _pair(env)
            FaultPlane(env).inject_partition("b", 0.0, 1e6)
        frame = NetFrame(payload_bytes=500)
        latency = run_process(env, a.send(frame, "b"))
        wire = 8 * frame.wire_bytes / 100.0
        assert latency == wire + 1.0 + switch.latency_us
        assert (a.uplink.frames_sent, a.uplink.bytes_sent) == (1, frame.wire_bytes)
        assert switch._downlinks["b"].frames_sent == 0
        assert switch._downlinks["b"].bytes_sent == 0
        assert switch.frames_dropped == 1 and switch.frames_forwarded == 0
        assert len(b.inbox) == 0


class TestStackCosts:
    def test_i960_stack_much_slower_than_host(self):
        assert I960_STACK.cost_us(1000) > 2 * HOST_STACK.cost_us(1000)

    def test_end_to_end_1000_byte_frame_about_1_2ms(self, env):
        """Table 4's 1.2net component: NI stack + wire + client stack."""
        switch = EthernetSwitch(env)
        ni, client = EthernetPort(env, "ni"), EthernetPort(env, "client")
        switch.attach(ni)
        switch.attach(client)
        frame = NetFrame(payload_bytes=1000)

        def deliver():
            yield env.timeout(I960_STACK.cost_us(1000))
            yield from ni.send(frame, "client")
            yield env.timeout(CLIENT_STACK.cost_us(1000))
            return env.now

        total = env.run(until=env.process(deliver()))
        assert total == pytest.approx(1200.0, rel=0.12)
