"""TTP conformance: tagged open, sequencing, NACK recovery, credit flow.

The taxonomy follows docs/ttp-spec.md: handshake scripts (happy path,
refused, duplicate OPEN), sequence-id assignment and wraparound, payload
exchange scripts (NACK retransmit, CLOSE with inflight data), and the
sustained-traffic window/credit invariants.
"""

import pytest

from repro.faults import FaultPlane
from repro.hw import EthernetPort, EthernetSwitch, I960_STACK
from repro.net import TTPError, TTPPacket, TTPStack
from repro.sim import Environment, RandomStreams, S


def topology(env, loss_rate=0.0, seed=3, **stack_kw):
    switch = EthernetSwitch(
        env, loss_rate=loss_rate, loss_rng=RandomStreams(seed).stream("loss")
    )
    a_port, b_port = EthernetPort(env, "hostA"), EthernetPort(env, "hostB")
    switch.attach(a_port)
    switch.attach(b_port)
    a = TTPStack(env, a_port, I960_STACK, **stack_kw)
    b = TTPStack(env, b_port, I960_STACK, **stack_kw)
    return switch, a, b


def establish(env, a, b, port=80, run_until=5 * S):
    accept = b.listen(port)
    result = {}

    def server():
        link = yield accept.get()
        result["server"] = link

    def client():
        link = yield from a.open("hostB", port, src_port=40_000)
        result["client"] = link

    env.process(server())
    env.process(client())
    env.run(until=run_until)
    return result["client"], result["server"]


class TestHandshake:
    def test_three_way_establishes_both_ends(self):
        env = Environment()
        _sw, a, b = topology(env)
        client, server = establish(env, a, b)
        assert client.state == "open"
        # the responder completes on the first in-tag packet; nudge one
        client.send(100, data="nudge")
        env.run(until=env.now + 1 * S)
        assert server.state == "open"
        assert client.tag == server.tag

    def test_open_without_listener_refused(self):
        env = Environment()
        _sw, a, b = topology(env)

        def client():
            yield from a.open("hostB", 81, src_port=40_000)

        with pytest.raises(TTPError, match="refused.*no listener on port 81"):
            env.run(until=env.process(client()))
        assert b.open_nacks_sent == 1

    def test_handshake_survives_open_loss(self):
        env = Environment()
        _sw, a, b = topology(env, loss_rate=0.4, seed=11, retx_us=20_000.0)
        client, _server = establish(env, a, b)
        assert client.state == "open"

    def test_duplicate_open_replays_cached_open_ack(self):
        """A retransmitted OPEN must not mint a second link incarnation."""
        env = Environment()
        _sw, a, b = topology(env)
        accept = b.listen(80)
        links = {}

        def server():
            links["server"] = yield accept.get()

        def client():
            links["client"] = yield from a.open("hostB", 80, src_port=40_000)
            # the duplicate OPEN, as the initiator would retransmit it
            b._deliver(
                TTPPacket(
                    kind="open",
                    src_host="hostA",
                    src_port=40_000,
                    dst_port=80,
                    tag=links["client"].tag,
                    credit=a.credits,
                )
            )

        env.process(server())
        env.process(client())
        env.run(until=5 * S)
        assert b.open_ack_replays == 1
        assert len(b._links) == 1  # no second incarnation
        assert accept.items == []  # nothing re-queued for accept

    def test_duplicate_listen_rejected(self):
        env = Environment()
        _sw, _a, b = topology(env)
        b.listen(80)
        with pytest.raises(ValueError):
            b.listen(80)

    def test_parameter_validation(self):
        env = Environment()
        switch = EthernetSwitch(env)
        port = EthernetPort(env, "x")
        switch.attach(port)
        with pytest.raises(ValueError):
            TTPStack(env, port, I960_STACK, mtu=0)
        with pytest.raises(ValueError, match="twice the window"):
            TTPStack(env, port, I960_STACK, window=8, seq_mod=15)


class TestSequenceIds:
    def test_sequence_assignment_is_consecutive_from_zero(self):
        env = Environment()
        _sw, a, b = topology(env)
        client, server = establish(env, a, b)
        got = []

        def receiver():
            while True:
                rec = yield server.recv()
                got.append(rec["data"])

        for i in range(5):
            client.send(500, data=i)
        env.process(receiver())
        env.run(until=10 * S)
        assert got == list(range(5))
        assert client._next_seq == 5  # one packet per record, seqs 0..4
        assert server._rcv_next == 5

    def test_wire_sequence_wraps_at_seq_mod(self):
        """20 packets through a 4-entry wire sequence space, in order."""
        env = Environment()
        _sw, a, b = topology(env, window=2, seq_mod=4)
        client, server = establish(env, a, b)
        got = []

        def receiver():
            while True:
                rec = yield server.recv()
                got.append(rec["data"])

        for i in range(20):
            client.send(500, data=i)
        env.process(receiver())
        env.run(until=30 * S)
        assert got == list(range(20))
        # internal counters are unbounded; only the wire seq wrapped
        assert client._next_seq == 20
        assert server._rcv_next == 20
        assert server.duplicates_dropped == 0

    def test_tags_are_unique_per_link(self):
        env = Environment()
        _sw, a, b = topology(env)
        b.listen(80)
        b.listen(81)
        links = {}

        def client():
            links["one"] = yield from a.open("hostB", 80, src_port=40_000)
            links["two"] = yield from a.open("hostB", 81, src_port=40_001)

        env.process(client())
        env.run(until=5 * S)
        assert links["one"].tag != links["two"].tag

    def test_stale_tag_packet_dropped(self):
        env = Environment()
        _sw, a, b = topology(env)
        client, _server = establish(env, a, b)
        stale = TTPPacket(
            kind="ack",
            src_host="hostB",
            src_port=80,
            dst_port=40_000,
            tag=client.tag + 999,
            ack=1,
        )
        client._on_packet(stale)
        assert client.stale_tag_drops == 1
        assert client._send_base == 0  # the stale ack moved nothing


class TestPacketExchanges:
    def test_happy_path_open_payload_close(self):
        env = Environment()
        _sw, a, b = topology(env)
        accept = b.listen(80)
        got = []
        states = {}

        def server():
            link = yield accept.get()
            states["server"] = link
            while True:
                rec = yield link.recv()
                got.append((rec["data"], rec["nbytes"]))

        def client():
            link = yield from a.open("hostB", 80, src_port=40_000)
            states["client"] = link
            for i in range(3):
                link.send(1000, data=i)
            yield from link.close()

        env.process(server())
        env.process(client())
        env.run(until=10 * S)
        assert got == [(i, 1000) for i in range(3)]
        assert states["client"].state == "closed"
        assert states["server"].state == "closed"

    def test_large_record_segmented_and_reassembled(self):
        env = Environment()
        _sw, a, b = topology(env)
        client, server = establish(env, a, b)
        got = []

        def receiver():
            rec = yield server.recv()
            got.append(rec)

        client.send(10_000, data="big")  # 7 packets at MTU 1460
        env.process(receiver())
        env.run(until=10 * S)
        assert got[0]["data"] == "big"
        assert got[0]["nbytes"] == 10_000
        assert client._next_seq == 7

    def test_gap_triggers_nack_and_immediate_retransmit(self):
        """Script: r0 delivered, r1 dropped on the wire, r2 exposes the
        gap -> exactly one NACK -> go-back-N recovers r1 and r2 without
        waiting out the retransmission timer."""
        env = Environment()
        _sw, a, b = topology(env, retx_us=500_000.0)  # timer out of the picture
        plane = FaultPlane(env, seed=5)
        accept = b.listen(80)
        got = []
        links = {}

        def server():
            link = yield accept.get()
            links["server"] = link
            while True:
                rec = yield link.recv()
                got.append(rec["data"])

        def client():
            link = yield from a.open("hostB", 80, src_port=40_000)
            links["client"] = link
            link.send(1000, data="r0")
            yield env.timeout(5_000.0)  # r0 delivered, window empty
            # a drop window just wide enough to eat r1's transmit
            plane.inject_message_drop(a.name, env.now, env.now + 1_000.0, rate=1.0)
            link.send(1000, data="r1")
            yield env.timeout(5_000.0)  # leave the window
            link.send(1000, data="r2")

        env.process(server())
        env.process(client())
        env.run(until=10 * S)
        assert got == ["r0", "r1", "r2"]
        assert a.packets_dropped_by_fault == 1
        assert links["server"].nacks_sent == 1  # one NACK per gap instance
        assert links["client"].nacks_received == 1
        assert links["client"].nack_retransmissions == 2  # go-back-N: r1+r2
        assert links["server"].duplicates_dropped >= 1  # the re-sent r2

    def test_close_with_inflight_quiesces_first(self):
        """CLOSE must not race the window: everything queued before close()
        is delivered before the link tears down."""
        env = Environment()
        _sw, a, b = topology(env)
        accept = b.listen(80)
        got = []
        links = {}

        def server():
            link = yield accept.get()
            links["server"] = link
            while True:
                rec = yield link.recv()
                got.append(rec["data"])

        def client():
            link = yield from a.open("hostB", 80, src_port=40_000)
            links["client"] = link
            for i in range(5):
                link.send(2_000, data=i)
            yield from link.close()  # called with all five still in flight

        env.process(server())
        env.process(client())
        env.run(until=20 * S)
        assert got == list(range(5))
        assert links["client"].state == "closed"
        assert links["server"].state == "closed"

    def test_retransmitted_close_is_reacked(self):
        env = Environment()
        _sw, a, b = topology(env)
        accept = b.listen(80)
        links = {}

        def server():
            links["server"] = yield accept.get()

        def client():
            link = yield from a.open("hostB", 80, src_port=40_000)
            links["client"] = link
            link.send(100, data="x")
            yield from link.close()

        env.process(server())
        env.process(client())
        env.run(until=10 * S)
        server_link = links["server"]
        assert server_link.state == "closed"
        # the duplicate CLOSE, as a timed-out initiator would resend it
        before = server_link.packets_received
        server_link._on_packet(
            TTPPacket(
                kind="close",
                src_host="hostA",
                src_port=40_000,
                dst_port=80,
                tag=server_link.tag,
            )
        )
        assert server_link.state == "closed"  # still closed, no explosion
        assert server_link.packets_received == before + 1

    def test_send_on_closed_link_raises(self):
        env = Environment()
        _sw, a, b = topology(env)
        accept = b.listen(80)
        links = {}

        def client():
            link = yield from a.open("hostB", 80, src_port=40_000)
            links["client"] = link
            yield from link.close()

        env.process(client())
        env.run(until=10 * S)
        with pytest.raises(TTPError, match="send on closed link"):
            links["client"].send(100)


class TestWindowCredit:
    def _run_sustained(self, env, a, b, n_records, monitor_every_us=100.0):
        """Drive n_records through an a->b link while sampling the sender's
        in-flight count; returns (delivered, max_inflight, client, server)."""
        accept = b.listen(80)
        got = []
        links = {}
        max_inflight = [0]

        def server():
            link = yield accept.get()
            links["server"] = link
            while True:
                rec = yield link.recv()
                got.append(rec["data"])

        def client():
            link = yield from a.open("hostB", 80, src_port=40_000)
            links["client"] = link
            for i in range(n_records):
                link.send(1000, data=i)

        def monitor():
            while True:
                link = links.get("client")
                if link is not None:
                    max_inflight[0] = max(max_inflight[0], len(link._unacked))
                yield env.timeout(monitor_every_us)

        env.process(server())
        env.process(client())
        env.process(monitor())
        env.run(until=60 * S)
        return got, max_inflight[0], links["client"], links["server"]

    def test_window_bounds_inflight_packets(self):
        env = Environment()
        _sw, a, b = topology(env, window=4, credits=64)
        got, max_inflight, client, _server = self._run_sustained(env, a, b, 40)
        assert got == list(range(40))
        assert 0 < max_inflight <= 4

    def test_credit_grant_bounds_inflight_below_window(self):
        """NOC-style flow control: the peer granted 2 slots, so at most 2
        packets ride the wire no matter how wide the sender's window is."""
        env = Environment()
        _sw, a, b = topology(env, window=8, credits=2)
        got, max_inflight, client, _server = self._run_sustained(env, a, b, 30)
        assert got == list(range(30))
        assert 0 < max_inflight <= 2
        assert client.credit_stalls > 0  # the sender actually hit the grant
        assert client._peer_credit == 2  # ACKs kept re-advertising it

    def test_no_losses_means_no_retransmissions(self):
        env = Environment()
        _sw, a, b = topology(env)
        got, _max, client, server = self._run_sustained(env, a, b, 20)
        assert got == list(range(20))
        assert client.retransmissions == 0
        assert server.duplicates_dropped == 0

    def test_delivery_over_lossy_network(self):
        """The reason TTP exists: 20% frame loss, zero record loss."""
        env = Environment()
        _sw, a, b = topology(env, loss_rate=0.2, seed=7, retx_us=20_000.0)
        got, _max, client, _server = self._run_sustained(env, a, b, 30)
        assert got == list(range(30))
        assert client.retransmissions > 0

    def test_abort_after_max_retries_accounts_lost_records(self):
        """A peer that vanishes forever: the sender gives up and declares
        every straggler lost (the zero-leak account's loss side)."""
        env = Environment()
        _sw, a, b = topology(env, retx_us=10_000.0, max_retries=3)
        plane = FaultPlane(env, seed=5)
        accept = b.listen(80)
        links = {}

        def client():
            link = yield from a.open("hostB", 80, src_port=40_000)
            links["client"] = link
            # sever the wire forever, then try to send
            plane.inject_partition("hostB", env.now, 10_000 * S)
            link.send(1000, data="doomed", record_id=777)

        env.process(client())
        env.run(until=30 * S)
        link = links["client"]
        assert link.aborted
        assert link.state == "reset"
        assert link.lost_record_ids == [777]
        assert link.inflight_record_ids() == set()
