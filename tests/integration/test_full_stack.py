"""End-to-end integration: the whole paper stack in one simulation.

A host application thread opens streams and pushes frames through the DVCM
(VCM API → I2O messages over PCI → NI runtime → media-scheduler extension),
DWCS on the i960 card schedules them under VxWorks, the tNet task
encapsulates and transmits over switched Ethernet, and an MPEG client
receives — while an Apache pool thrashes the host.
"""

import pytest

from repro.core import DWCSScheduler, StreamingEngine
from repro.dvcm import MediaSchedulerExtension, MessageQueuePair, VCMInterface, VCMRuntime
from repro.hw import EthernetPort, EthernetSwitch, I960RDCard, NetFrame, PCISegment
from repro.media import MPEGClient, MPEGEncoder
from repro.rtos import SolarisHostOS, WindScheduler
from repro.sim import Environment, RandomStreams, S
from repro.workload import ApacheServer, Httperf


@pytest.fixture(scope="module")
def stack():
    env = Environment()
    # hardware
    segment = PCISegment(env, "pci0")
    card = I960RDCard(env, segment, name="i2o0")
    card.enable_data_cache()
    switch = EthernetSwitch(env)
    switch.attach(card.eth_ports[0])
    client_port = EthernetPort(env, "client0")
    switch.attach(client_port)
    client = MPEGClient(env, "client0", client_port)
    # NI software: VxWorks, DVCM runtime, DWCS extension, tNet
    vxworks = WindScheduler(env, cpu_spec=card.cpu.spec)
    queues = MessageQueuePair(env, segment, name="i2o0")
    runtime = VCMRuntime(env, queues, card.cpu)
    vxworks.spawn("tVCM", runtime.task_body, priority=60)
    scheduler = DWCSScheduler(work_conserving=False)
    from repro.sim import Store

    txq = Store(env)

    def transmit(desc):
        yield txq.put(desc)

    engine = StreamingEngine(env, scheduler, card.cpu, transmit)
    vxworks.spawn("tDWCS", engine.task_body, priority=100)

    def net_task(task):
        while True:
            desc = yield txq.get()
            yield task.compute(card.stack.cost_us(desc.size_bytes))
            frame = NetFrame(
                payload_bytes=desc.size_bytes,
                stream_id=desc.stream_id,
                seqno=desc.frame.seqno,
            )
            yield from card.eth_ports[0].send(frame, "client0")

    vxworks.spawn("tNetTask", net_task, priority=55)
    runtime.load_extension(MediaSchedulerExtension(engine))
    # host software: Solaris, web load, and the application thread
    host_os = SolarisHostOS(env, n_cpus=2)
    web = ApacheServer(env, host_os, rng=RandomStreams(9))
    rate = 0.70 * host_os.n_cpus * 1e6 / web.effective_mean_service_us
    Httperf(env, web, rate_per_s=rate, total_calls=10**6, rng=RandomStreams(10))
    api = VCMInterface(env, queues, name="media-app")
    enc = MPEGEncoder(bitrate_bps=400_000.0, fps=10.0, rng=RandomStreams(11))
    movie = enc.encode("vod0", n_frames=120)

    def app(task):
        yield task.compute(500.0)
        result = yield from api.call(
            "media.open_stream",
            {"stream_id": "vod0", "period_us": 100_000.0, "loss_x": 1, "loss_y": 4},
        )
        assert result == "vod0"
        for frame in movie.frames:
            yield task.compute(200.0)  # app-side marshalling
            yield from api.call(
                "media.submit_frame",
                {"frame": frame},
                bulk_bytes=frame.size_bytes,
            )
            yield env.timeout(50_000.0)  # submit ahead of the 10fps playout

    host_os.spawn("media-app", app, priority=110)
    env.run(until=20 * S)
    return {
        "env": env,
        "segment": segment,
        "card": card,
        "client": client,
        "scheduler": scheduler,
        "runtime": runtime,
        "api": api,
        "movie": movie,
        "engine": engine,
    }


class TestFullStack:
    def test_every_frame_travelled_the_whole_pipeline(self, stack):
        rec = stack["client"].reception("vod0")
        # 20s at 10fps playout: ~200 slots; 120 frames submitted over ~6s
        assert rec.frames_received == 120

    def test_dvcm_handled_every_call(self, stack):
        assert stack["runtime"].messages_handled == 1 + 120  # open + submits
        assert stack["runtime"].errors == 0
        assert stack["api"].calls == 121

    def test_frames_crossed_pci_once_each(self, stack):
        moved = stack["segment"].bytes_transferred
        payload = stack["movie"].size_bytes
        assert moved >= payload  # bodies + message headers
        assert moved < payload * 1.5  # but not copied twice

    def test_delivery_paced_at_stream_rate(self, stack):
        rec = stack["client"].reception("vod0")
        assert rec.interarrival_us.mean == pytest.approx(100_000.0, rel=0.10)

    def test_no_losses_on_admissible_stream(self, stack):
        st = stack["scheduler"].streams["vod0"]
        assert st.dropped == 0
        assert st.violations == 0

    def test_client_saw_ordered_frames(self, stack):
        assert stack["client"].reception("vod0").out_of_order == 0
