"""Board-resident TCP carrying cluster traffic over a lossy SAN."""

from repro.net import TCPStack
from repro.server import Cluster
from repro.sim import Environment, RandomStreams, S


def test_ni_to_ni_tcp_over_lossy_san():
    """Two cluster nodes move 30 records NI-to-NI through board-resident
    TCP while the SAN drops 15% of frames — everything arrives, in order,
    with zero host-bus involvement."""
    env = Environment()
    cluster = Cluster(env, n_nodes=2)
    # inject loss into the SAN switch
    cluster.san.loss_rate = 0.15
    cluster.san._loss_rng = RandomStreams(21).stream("san-loss")

    src_card, dst_card = cluster.san_cards[0], cluster.san_cards[1]
    src_tcp = TCPStack(env, src_card.eth_ports[1], src_card.stack)
    dst_tcp = TCPStack(env, dst_card.eth_ports[1], dst_card.stack)

    accept = dst_tcp.listen(9000)
    got = []

    def server():
        conn = yield accept.get()
        while True:
            rec = yield conn.recv()
            got.append(rec["data"])

    def client():
        conn = yield from src_tcp.connect(
            cluster.san_cards[1].eth_ports[1].name, 9000, src_port=30_000
        )
        for i in range(30):
            conn.send(4096, data=i)
            yield env.timeout(20_000.0)

    env.process(server())
    env.process(client())
    env.run(until=60 * S)

    assert got == list(range(30))
    assert all(node.system_bus.bytes_transferred == 0 for node in cluster.nodes)
    assert cluster.san.frames_dropped > 0  # the loss was real
