"""Property tests: TCP delivers everything, in order, for any loss seed."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import EthernetPort, EthernetSwitch, HOST_STACK
from repro.net import TCPStack
from repro.sim import Environment, RandomStreams, S


@given(
    seed=st.integers(0, 10_000),
    loss=st.sampled_from([0.0, 0.1, 0.25]),
    n_records=st.integers(1, 15),
    record_bytes=st.integers(1, 6000),
)
@settings(max_examples=25, deadline=None)
def test_reliable_in_order_delivery_under_any_loss(seed, loss, n_records, record_bytes):
    env = Environment()
    switch = EthernetSwitch(
        env, loss_rate=loss, loss_rng=RandomStreams(seed).stream("loss")
    )
    a_port, b_port = EthernetPort(env, "A"), EthernetPort(env, "B")
    switch.attach(a_port)
    switch.attach(b_port)
    # HOST_STACK keeps per-segment costs small so the property runs fast
    a = TCPStack(env, a_port, HOST_STACK, rto_us=50_000.0)
    b = TCPStack(env, b_port, HOST_STACK, rto_us=50_000.0)
    accept = b.listen(1)
    got = []

    def server():
        conn = yield accept.get()
        while True:
            rec = yield conn.recv()
            got.append((rec["data"], rec["nbytes"]))

    def client():
        conn = yield from a.connect("B", 1, src_port=2)
        for i in range(n_records):
            conn.send(record_bytes, data=i)

    env.process(server())
    env.process(client())
    env.run(until=120 * S)
    assert got == [(i, record_bytes) for i in range(n_records)]
