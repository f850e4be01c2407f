"""Property tests: the TTP state machine vs a reference model, and
end-to-end delivery under randomized loss/drop/dup fault interleavings.

Two layers, mirroring test_tcp_properties.py:

* a **differential** against a pure reference receiver: the same packet
  arrival sequence (with hypothesis-chosen losses, duplicates, and local
  reorderings) is fed to a production receiver running a tiny wrapped
  sequence space and to a reference receiver whose sequence space is
  effectively unbounded. The delivered record streams must be equal —
  wraparound must be invisible — and nothing may deliver twice.
* an **end-to-end** property: for any loss seed and any msg-drop/msg-dup
  fault window the plane can draw, every record sent arrives exactly
  once, in order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlane
from repro.hw import EthernetPort, EthernetSwitch, HOST_STACK
from repro.net import TTPError, TTPPacket, TTPStack
from repro.sim import Environment, RandomStreams, S

WINDOW = 2
#: wraps every 16 packets — small enough that a 40-packet run crosses the
#: wrap repeatedly, large enough that the bounded reordering below can
#: never displace a packet far enough to alias (seq_mod // 2 = 8 > any
#: displacement the generator produces)
WRAPPED_SEQ_MOD = 16
REFERENCE_SEQ_MOD = 1 << 30  # never wraps in practice: the reference


def make_receiver(seq_mod):
    """A receiver-side link fed by hand; control replies are swallowed."""
    env = Environment()
    switch = EthernetSwitch(env)
    port = EthernetPort(env, "rx")
    switch.attach(port)
    stack = TTPStack(env, port, HOST_STACK, window=WINDOW, seq_mod=seq_mod)
    link = stack._make_link(1, "peer", 2, tag=5, initiator=False)
    link.state = "open"
    link._send_control = lambda kind: None  # no wire: arrivals only
    return link


def payload(link, seq):
    return TTPPacket(
        kind="payload",
        src_host="peer",
        src_port=2,
        dst_port=1,
        tag=5,
        seq=seq % link.seq_mod,
        payload_bytes=100,
        record_id=seq,
        record_segments=1,
        data=seq,
    )


@given(
    n_packets=st.integers(1, 40),
    drops=st.sets(st.integers(0, 39)),
    dups=st.sets(st.integers(0, 39)),
    swap_seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_wrapped_receiver_matches_unbounded_reference(
    n_packets, drops, dups, swap_seed
):
    """Same arrivals, tiny wrapped seq space vs unbounded: same deliveries."""
    arrivals = []
    for seq in range(n_packets):
        if seq in drops:
            continue
        arrivals.append(seq)
        if seq in dups:
            arrivals.append(seq)  # duplicate rides right behind
    # bounded reordering: each arrival is jittered at most 3 slots (stable
    # sort), so no displacement can reach the wrap ambiguity distance
    rng = RandomStreams(swap_seed).stream("swap")
    keys = [(i + int(rng.random() * 4), i) for i in range(len(arrivals))]
    arrivals = [arrivals[i] for _key, i in sorted(keys)]

    # The go-back-N sender discipline: with window w <= seq_mod // 2, a
    # sender can never be seq_mod // 2 ahead of an unhealed gap (it stalls
    # at send_base until the gap acks). Arrival sequences violating that
    # are unreachable on a real link, and the wrap algebra is allowed to
    # alias them — so the generator enforces the same precondition,
    # tracking the receiver prefix with the reference model itself.
    reference = make_receiver(REFERENCE_SEQ_MOD)
    feasible = []
    for seq in arrivals:
        if seq - reference._rcv_next < WRAPPED_SEQ_MOD // 2:
            feasible.append(seq)
            reference._on_packet(payload(reference, seq))

    wrapped = make_receiver(WRAPPED_SEQ_MOD)
    for seq in feasible:
        wrapped._on_packet(payload(wrapped, seq))

    delivered_wrapped = [item["record_id"] for item in wrapped.inbox.items]
    delivered_reference = [item["record_id"] for item in reference.inbox.items]
    assert delivered_wrapped == delivered_reference
    # no double delivery, ever
    assert len(delivered_wrapped) == len(set(delivered_wrapped))
    # deliveries are the in-order prefix up to the first unhealed gap
    assert delivered_wrapped == sorted(delivered_wrapped)


@given(
    seed=st.integers(0, 10_000),
    loss=st.sampled_from([0.0, 0.1, 0.25]),
    n_records=st.integers(1, 15),
    record_bytes=st.integers(1, 6000),
)
# seeds whose loss draw dropped OPEN or OPEN-ACK eight times running, back
# when the handshake had a fixed 8-attempt budget and raised TTPError
@example(seed=784, loss=0.25, n_records=1, record_bytes=1)
@example(seed=9146, loss=0.25, n_records=1, record_bytes=1)
@settings(max_examples=25, deadline=None)
def test_reliable_in_order_delivery_under_any_loss(seed, loss, n_records, record_bytes):
    env = Environment()
    switch = EthernetSwitch(
        env, loss_rate=loss, loss_rng=RandomStreams(seed).stream("loss")
    )
    a_port, b_port = EthernetPort(env, "A"), EthernetPort(env, "B")
    switch.attach(a_port)
    switch.attach(b_port)
    a = TTPStack(env, a_port, HOST_STACK, retx_us=50_000.0)
    b = TTPStack(env, b_port, HOST_STACK, retx_us=50_000.0)
    accept = b.listen(1)
    got = []

    def server():
        link = yield accept.get()
        while True:
            rec = yield link.recv()
            got.append((rec["data"], rec["nbytes"]))

    def client():
        link = yield from a.open("B", 1, src_port=2)
        for i in range(n_records):
            link.send(record_bytes, data=i)

    env.process(server())
    env.process(client())
    env.run(until=120 * S)
    assert got == [(i, record_bytes) for i in range(n_records)]


@given(
    seed=st.integers(0, 10_000),
    drop_rate=st.sampled_from([0.0, 0.3, 1.0]),
    dup_rate=st.sampled_from([0.0, 0.5]),
    window_frac=st.tuples(
        st.floats(0.0, 0.5), st.floats(0.05, 0.4)
    ),
)
@settings(max_examples=25, deadline=None)
def test_exactly_once_delivery_under_fault_windows(
    seed, drop_rate, dup_rate, window_frac
):
    """msg-drop and msg-dup windows against the sending stack: whatever the
    plane does, every record still arrives exactly once, in order."""
    run_us = 60 * S
    start_us = window_frac[0] * run_us
    end_us = start_us + window_frac[1] * run_us
    env = Environment()
    switch = EthernetSwitch(env)
    a_port, b_port = EthernetPort(env, "A"), EthernetPort(env, "B")
    switch.attach(a_port)
    switch.attach(b_port)
    a = TTPStack(env, a_port, HOST_STACK, retx_us=50_000.0, max_retries=50)
    b = TTPStack(env, b_port, HOST_STACK, retx_us=50_000.0, max_retries=50)
    plane = FaultPlane(env, seed=seed)
    if drop_rate > 0.0:
        plane.inject_message_drop(a.name, start_us, end_us, rate=drop_rate)
    if dup_rate > 0.0:
        plane.inject_message_duplication(a.name, start_us, end_us, rate=dup_rate)
    accept = b.listen(1)
    got = []
    open_failed = []

    def server():
        link = yield accept.get()
        while True:
            rec = yield link.recv()
            got.append(rec["data"])

    def client():
        try:
            link = yield from a.open("B", 1, src_port=2)
        except TTPError:
            # a total blackout outlasting the whole open retry budget:
            # the open fails cleanly, so nothing was ever sent — the
            # exactly-once property holds vacuously
            open_failed.append(True)
            return
        for i in range(10):
            link.send(800, data=i)
            yield env.timeout(1 * S)

    env.process(server())
    env.process(client())
    env.run(until=run_us)
    if open_failed:
        assert drop_rate == 1.0  # only a full blackout can starve the open
        assert got == []
    else:
        assert got == list(range(10))
