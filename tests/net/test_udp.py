"""UDP stack: sockets, delivery, loss transparency."""

import pytest

from repro.hw import EthernetPort, EthernetSwitch, I960_STACK
from repro.net import UDPStack
from repro.sim import Environment, RandomStreams, S


def topology(env, loss_rate=0.0):
    switch = EthernetSwitch(
        env, loss_rate=loss_rate, loss_rng=RandomStreams(3).stream("loss")
    )
    a_port, b_port = EthernetPort(env, "hostA"), EthernetPort(env, "hostB")
    switch.attach(a_port)
    switch.attach(b_port)
    a = UDPStack(env, a_port, I960_STACK)
    b = UDPStack(env, b_port, I960_STACK)
    return switch, a, b


class TestSockets:
    def test_bind_and_duplicate(self):
        env = Environment()
        _sw, a, _b = topology(env)
        a.bind(5000)
        with pytest.raises(ValueError):
            a.bind(5000)

    def test_close_unbound_raises(self):
        env = Environment()
        _sw, a, _b = topology(env)
        with pytest.raises(KeyError):
            a.close(5000)

    def test_invalid_payload(self):
        env = Environment()
        _sw, a, _b = topology(env)

        def sender():
            yield from a.sendto(0, "hostB", 5000)

        with pytest.raises(ValueError):
            env.run(until=env.process(sender()))


class TestDelivery:
    def test_datagram_roundtrip(self):
        env = Environment()
        _sw, a, b = topology(env)
        inbox = b.bind(7000)
        received = []

        def receiver():
            d = yield inbox.get()
            received.append(d)

        def sender():
            yield from a.sendto(1200, "hostB", 7000, src_port=41000, data={"k": 1})

        env.process(receiver())
        env.process(sender())
        env.run()
        assert len(received) == 1
        d = received[0]
        assert d.payload_bytes == 1200
        assert d.dst_port == 7000
        assert d.src_port == 41000
        assert d.data == {"k": 1}
        assert d.src_host == "hostA"

    def test_port_demultiplexing(self):
        env = Environment()
        _sw, a, b = topology(env)
        q1, q2 = b.bind(1), b.bind(2)

        def sender():
            yield from a.sendto(100, "hostB", 1, data="one")
            yield from a.sendto(100, "hostB", 2, data="two")

        env.process(sender())
        env.run()
        assert q1.get().value.data == "one"
        assert q2.get().value.data == "two"

    def test_unbound_port_drops(self):
        env = Environment()
        _sw, a, b = topology(env)

        def sender():
            yield from a.sendto(100, "hostB", 999)

        env.process(sender())
        env.run()
        assert b.no_socket_drops == 1
        assert b.datagrams_received == 0

    def test_udp_loses_what_the_network_loses(self):
        env = Environment()
        _sw, a, b = topology(env, loss_rate=0.3)
        inbox = b.bind(5)
        got = []

        def receiver():
            while True:
                d = yield inbox.get()
                got.append(d)

        def sender():
            for _ in range(200):
                yield from a.sendto(500, "hostB", 5)
                yield env.timeout(2_000.0)

        env.process(receiver())
        env.process(sender())
        env.run(until=2 * S)
        assert 100 < len(got) < 180  # ~30% gone, no recovery

    def test_stack_cost_delays_delivery(self):
        env = Environment()
        _sw, a, b = topology(env)
        inbox = b.bind(5)
        arrival = []

        def receiver():
            d = yield inbox.get()
            arrival.append(env.now)

        def sender():
            yield from a.sendto(1000, "hostB", 5)

        env.process(receiver())
        env.process(sender())
        env.run()
        # two i960 stack traversals (~670us each for 1000B) + wire
        assert arrival[0] > 1_300.0


class TestFaultHooks:
    """The fault plane's datagram windows act inside the sending stack."""

    def test_datagram_drop_window_loses_sends(self):
        from repro.faults import FaultPlane

        env = Environment()
        _sw, a, b = topology(env)
        inbox = b.bind(5)
        got = []

        def receiver():
            while True:
                d = yield inbox.get()
                got.append(d)

        def sender():
            for _ in range(100):
                yield from a.sendto(500, "hostB", 5)
                yield env.timeout(2_000.0)

        plane = FaultPlane(env, seed=11)
        plane.inject_datagram_drop(a.name, 0.0, 1 * S, rate=1.0)
        env.process(receiver())
        env.process(sender())
        env.run(until=1 * S)
        assert got == []  # every datagram died in the stack
        assert a.datagrams_dropped == 100
        assert a.datagrams_sent == 0  # never reached the port

    def test_datagram_duplication_delivers_twice(self):
        from repro.faults import FaultPlane

        env = Environment()
        _sw, a, b = topology(env)
        inbox = b.bind(5)
        got = []

        def receiver():
            while True:
                d = yield inbox.get()
                got.append(d)

        def sender():
            for _ in range(50):
                yield from a.sendto(500, "hostB", 5)
                yield env.timeout(2_000.0)

        plane = FaultPlane(env, seed=11)
        plane.inject_datagram_duplication(a.name, 0.0, 1 * S, rate=1.0)
        env.process(receiver())
        env.process(sender())
        env.run(until=1 * S)
        assert a.datagrams_duplicated == 50
        assert len(got) == 100  # UDP has no dedup: both copies arrive

    def test_no_plane_means_no_hook_cost(self):
        env = Environment()
        _sw, a, b = topology(env)
        inbox = b.bind(5)

        def sender():
            yield from a.sendto(500, "hostB", 5)

        env.process(sender())
        env.run()
        assert a.datagrams_dropped == 0
        assert a.datagrams_duplicated == 0
        assert len(inbox.items) == 1

    def test_rate_validation(self):
        from repro.faults import FaultPlane

        env = Environment()
        plane = FaultPlane(env, seed=1)
        with pytest.raises(ValueError):
            plane.inject_datagram_drop("x", 0.0, 1.0, rate=0.0)
        with pytest.raises(ValueError):
            plane.inject_datagram_duplication("x", 0.0, 1.0, rate=1.5)


class TestFaultWindowEdges:
    """Fault windows racing socket lifetime."""

    def test_drop_window_during_port_handoff(self):
        """A drop window straddling a close+rebind: the datagram in flight
        during the handoff dies in the stack, not on the floor of an
        unbound port — and the rebound socket receives cleanly after."""
        from repro.faults import FaultPlane

        env = Environment()
        _sw, a, b = topology(env)
        plane = FaultPlane(env, seed=11)
        got = []
        b.bind(9)

        def receiver(inbox):
            while True:
                d = yield inbox.get()
                got.append(d.data)

        def driver():
            yield from a.sendto(500, "hostB", 9, data="before")
            yield env.timeout(5_000.0)
            # handoff: the old socket goes away, a drop window opens over
            # the gap, and the port is bound again before it closes
            b.close(9)
            plane.inject_datagram_drop(a.name, env.now, env.now + 10_000.0, rate=1.0)
            yield from a.sendto(500, "hostB", 9, data="during")
            yield env.timeout(5_000.0)
            inbox = b.bind(9)
            env.process(receiver(inbox))
            yield env.timeout(10_000.0)  # window over
            yield from a.sendto(500, "hostB", 9, data="after")

        # the pre-handoff socket's consumer
        first_inbox = b._sockets[9]
        env.process(receiver(first_inbox))
        env.process(driver())
        env.run(until=1 * S)
        assert got == ["before", "after"]
        assert a.datagrams_dropped == 1  # "during" died inside the stack
        assert b.no_socket_drops == 0  # never reached the unbound port

    def test_duplicate_arrives_after_socket_eviction(self):
        """A dup window sends two copies; the socket is evicted between
        the arrivals, so copy one delivers and copy two hits no socket."""
        from repro.faults import FaultPlane

        env = Environment()
        _sw, a, b = topology(env)
        plane = FaultPlane(env, seed=11)
        got = []

        def driver():
            inbox = b.bind(9)

            def receiver():
                d = yield inbox.get()
                got.append(d.data)
                # consumed one copy: the stream is torn down right here
                b.close(9)

            env.process(receiver())
            plane.inject_datagram_duplication(
                a.name, env.now, env.now + 5_000.0, rate=1.0
            )
            yield from a.sendto(500, "hostB", 9, data="x")

        env.process(driver())
        env.run(until=1 * S)
        assert got == ["x"]
        assert a.datagrams_duplicated == 1
        assert b.datagrams_received == 1
        assert b.no_socket_drops == 1  # the late duplicate found no socket

    def test_drop_window_boundary_is_half_open(self):
        """A send that pays its stack cost past end_us is not dropped: the
        window is evaluated at wire-handoff time, not at sendto() time."""
        from repro.faults import FaultPlane

        env = Environment()
        _sw, a, b = topology(env)
        plane = FaultPlane(env, seed=11)
        inbox = b.bind(9)
        # I960 stack cost for 500B is 550 + 0.12*500 = 610us
        plane.inject_datagram_drop(a.name, 0.0, 600.0, rate=1.0)

        def sender():
            yield from a.sendto(500, "hostB", 9, data="late")

        env.process(sender())
        env.run(until=1 * S)
        assert a.datagrams_dropped == 0
        assert len(inbox.items) == 1  # delivered: the window had closed
