"""Cluster media relay over board-resident UDP.

The paper's distributed-streams story: "media streams entering the NI from
the network" — a storage node pushes frames over the SAN by UDP to a
delivery node's NI scheduler, which schedules them out to a client. UDP is
the right transport for media here (late data is worthless); the test also
shows what a lossy SAN does to it, and how DWCS's accounting sees the
shortfall.
"""

import pytest

from repro.core import DWCSScheduler, StreamingEngine, StreamSpec
from repro.hw import EthernetPort, EthernetSwitch, I960RDCard, NetFrame, PCISegment
from repro.media import MPEGClient, MPEGEncoder
from repro.net import UDPStack
from repro.rtos import WindScheduler
from repro.sim import Environment, RandomStreams, S

MEDIA_PORT = 5004  # RTP-ish


def build(loss_rate=0.0, seed=5):
    env = Environment()
    san = EthernetSwitch(
        env, name="san", loss_rate=loss_rate,
        loss_rng=RandomStreams(seed).stream("san"),
    )
    # storage node NI
    seg_a = PCISegment(env, "a.pci")
    storage = I960RDCard(env, seg_a, name="a.i2o")
    san.attach(storage.eth_ports[1])
    storage_udp = UDPStack(env, storage.eth_ports[1], storage.stack)
    # delivery node NI: scheduler + client-facing port
    seg_b = PCISegment(env, "b.pci")
    delivery = I960RDCard(env, seg_b, name="b.i2o")
    san.attach(delivery.eth_ports[1])
    delivery_udp = UDPStack(env, delivery.eth_ports[1], delivery.stack)
    client_port = EthernetPort(env, "tv")
    san.attach(client_port)
    client = MPEGClient(env, "tv", client_port)

    scheduler = DWCSScheduler(work_conserving=False)
    scheduler.add_stream(StreamSpec("relay", period_us=50_000.0, loss_x=1, loss_y=4))

    def transmit(desc):
        frame = NetFrame(
            payload_bytes=desc.size_bytes, stream_id="relay", seqno=desc.frame.seqno
        )
        yield from delivery.eth_ports[1].send(frame, "tv")

    engine = StreamingEngine(env, scheduler, delivery.cpu, transmit)
    vx = WindScheduler(env, cpu_spec=delivery.cpu.spec)
    vx.spawn("tDWCS", engine.task_body, priority=100)

    # ingest task: UDP datagrams -> scheduler queues
    inbox = delivery_udp.bind(MEDIA_PORT)

    def ingest(task):
        while True:
            dgram = yield inbox.get()
            yield task.compute(100.0)  # demux + descriptor setup
            engine.submit(dgram.data)

    vx.spawn("tIngest", ingest, priority=80)
    return env, san, storage_udp, delivery, client, scheduler


def push_movie(env, storage_udp, dest, n_frames=60, gap_us=40_000.0):
    movie = MPEGEncoder(bitrate_bps=400_000.0, fps=20.0, rng=RandomStreams(2)).encode(
        "relay", n_frames
    )

    def producer():
        for frame in movie.frames:
            yield from storage_udp.sendto(
                frame.size_bytes, dest, MEDIA_PORT, data=frame
            )
            yield env.timeout(gap_us)

    env.process(producer())
    return movie


class TestRelay:
    def test_clean_san_delivers_everything_in_order(self):
        env, _san, storage_udp, delivery, client, scheduler = build()
        push_movie(env, storage_udp, delivery.eth_ports[1].name)
        env.run(until=10 * S)
        rec = client.reception("relay")
        assert rec.frames_received == 60
        assert rec.out_of_order == 0
        st = scheduler.streams["relay"]
        assert st.dropped == 0

    def test_relay_paced_by_the_stream_spec(self):
        env, _san, storage_udp, delivery, client, _sched = build()
        push_movie(env, storage_udp, delivery.eth_ports[1].name, gap_us=5_000.0)
        env.run(until=10 * S)
        rec = client.reception("relay")
        # injected at 200 fps, delivered at the 20 fps the spec allows
        assert rec.interarrival_us.mean == pytest.approx(50_000.0, rel=0.10)

    def test_lossy_san_loses_media_frames(self):
        """UDP media: what the SAN drops never reaches the scheduler —
        the client simply sees fewer frames (and DWCS sees fewer arrivals,
        not misses)."""
        env, san, storage_udp, delivery, client, scheduler = build(loss_rate=0.25)
        push_movie(env, storage_udp, delivery.eth_ports[1].name)
        env.run(until=10 * S)
        rec = client.reception("relay")
        assert rec.frames_received < 60
        assert san.frames_dropped > 0
        # the scheduler never saw the lost frames: conservation at ITS level
        q = scheduler.queues["relay"]
        st = scheduler.streams["relay"]
        assert st.serviced + st.sent_late + st.dropped + len(q) == q.enqueued_total
        assert q.enqueued_total < 60
