"""NI memory accounting and exhaustion (failure injection)."""

from repro.core import StreamSpec
from repro.hw import EthernetSwitch, MB
from repro.media import MPEGEncoder
from repro.server import NIStreamingService, ServerNode
from repro.sim import Environment, RandomStreams, S


def build(env, **svc_kw):
    node = ServerNode(env, n_cpus=1)
    switch = EthernetSwitch(env)
    svc = NIStreamingService(env, node, switch, **svc_kw)
    svc.attach_client("c1")
    svc.open_stream(StreamSpec("s1", period_us=62_500.0, loss_x=1, loss_y=4), "c1")
    return node, svc


def test_frame_bodies_occupy_card_memory_while_queued():
    env = Environment()
    _node, svc = build(env)
    enc = MPEGEncoder(bitrate_bps=256_000.0, fps=16.0, rng=RandomStreams(0))
    svc.start_producer(enc.encode("s1", 120), inject_gap_us=5_000.0)
    env.run(until=2 * S)
    # producer far ahead of 16fps playout: live frame allocations track
    # the scheduler backlog
    live = svc.card.memory.live_allocations("frame")
    assert len(live) == svc.scheduler.backlog
    assert svc.card.memory.used_bytes > 0


def test_memory_freed_after_transmission():
    env = Environment()
    _node, svc = build(env)
    enc = MPEGEncoder(bitrate_bps=256_000.0, fps=16.0, rng=RandomStreams(0))
    file = enc.encode("s1", 30)
    svc.start_producer(file, inject_gap_us=30_000.0)
    env.run(until=10 * S)
    assert svc.reception("s1").frames_received == 30
    assert svc.card.memory.used_bytes == 0
    assert svc.card.memory.peak_bytes > 0


def test_exhausted_card_memory_backpressures_producer():
    """With most of the card's 4 MB taken (VxWorks image, stacks, rings),
    the producer must stall on frame-memory, not crash — and delivery must
    continue at the playout rate."""
    env = Environment()
    _node, svc = build(env)
    # leave room for only ~8 typical (~2 kB) frames
    ballast = svc.card.memory.allocate(
        svc.card.memory.free_bytes - 16_000, tag="ballast"
    )
    enc = MPEGEncoder(bitrate_bps=256_000.0, fps=16.0, rng=RandomStreams(0))
    file = enc.encode("s1", 200)
    svc.start_producer(file, inject_gap_us=1_000.0)
    env.run(until=8 * S)
    # never exceeded capacity; frames backlog capped by free memory
    assert svc.card.memory.peak_bytes <= svc.card.memory.capacity_bytes
    assert len(svc.card.memory.live_allocations("frame")) <= 10
    # and streaming still progressed at the 16 fps playout rate
    assert svc.reception("s1").frames_received >= 100
    ballast.free()


def test_dropped_frames_release_memory():
    env = Environment()
    _node, svc = build(env)
    enc = MPEGEncoder(bitrate_bps=256_000.0, fps=16.0, rng=RandomStreams(0))
    file = enc.encode("s1", 60)
    svc.start_producer(file, inject_gap_us=1_000.0)
    # stall the NI scheduler so deadlines slip: stop it outright for a while
    env.run(until=1 * S)
    svc.engine.stop()
    env.run(until=30 * S)
    # restart a fresh task on the same engine
    svc.engine.stopped = False
    svc.vxworks.spawn("tDWCS2", svc.engine.task_body, priority=100)
    env.run(until=60 * S)
    st = svc.scheduler.streams["s1"]
    assert st.dropped > 0  # the stall caused real losses
    # every frame body was reclaimed: sent, late-sent, or dropped
    assert svc.card.memory.used_bytes == 0
