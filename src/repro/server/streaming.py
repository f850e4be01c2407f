"""Streaming service assemblies: host-based vs NI-based DWCS.

These are the two systems Figures 7–10 compare:

* :class:`HostStreamingService` — DWCS runs as a Solaris process on the
  host, competing with the Apache pool and daemons. Frames come from host
  filesystem buffers and leave through a plain 82557 NIC, crossing the
  host bridge; protocol processing burns host CPU.

* :class:`NIStreamingService` — DWCS runs on a dedicated (disk-less,
  data-cache-enabled) i960 RD card under VxWorks. Producers are either
  co-resident (path C) or peer cards / host threads pushing frames over
  the PCI segment (path B). Host load never touches the NI CPU.

Both expose the same surface: ``open_stream``, ``attach_client``,
``start_producer`` and the engine's per-stream queuing-delay series, so the
experiment harness treats them interchangeably.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.admission import AdmissionController
from repro.core.attributes import StreamSpec
from repro.core.costs import DWCSCostModel
from repro.core.dwcs import DWCSScheduler
from repro.core.engine import StreamingEngine
from repro.fixedpoint import ArithmeticContext, FixedPointContext
from repro.hw.cpu import CPU
from repro.hw.disk import DiskMediaError
from repro.hw.ethernet import EthernetPort, EthernetSwitch, NetFrame
from repro.hw.memory import Allocation, OutOfMemoryError
from repro.media.frames import FrameDescriptor, MediaFrame
from repro.media.mpeg import MPEGFile
from repro.media.player import MPEGClient
from repro.net.transport import (
    MediaClientEndpoint,
    MediaTransportBooks,
    MediaWireSender,
    resolve_transport,
)
from repro.rtos.task import Task
from repro.rtos.vxworks import WindScheduler
from repro.sim import Environment, Store

from .node import ServerNode

__all__ = [
    "HOST_DWCS_COSTS",
    "HostStreamingService",
    "NIStreamingService",
    "SchedulerCardRuntime",
]

#: Cost model of the *host* DWCS build — the System-V-shared-memory,
#: process-based implementation of the prior papers. Its constants are
#: larger than the embedded build's: user/kernel crossings, SysV semaphore
#: checks, and a fatter code path. Calibrated to the published ≈50 µs
#: scheduling overhead on a 300 MHz UltraSPARC.
HOST_DWCS_COSTS = DWCSCostModel(
    decision_base_int_ops=11_000,
    decision_base_branches=1_200,
    per_stream_int_ops=60,
    per_stream_branches=12,
    per_stream_mem_reads=6,
    dispatch_int_ops=5_200,
    dispatch_branches=300,
    dispatch_mem_reads=30,
    dispatch_mem_writes=20,
)


class _BaseService:
    """Shared stream/client bookkeeping.

    ``transport`` selects the media wire path: ``"udp"`` (the default)
    keeps the historical raw-frame path byte-for-byte — no transport
    object is constructed at all — while ``"tcp"``/``"ttp"`` ride the
    reliable stacks of :mod:`repro.net` between each serving port and
    each client, with the shared zero-leak ledger in :attr:`books`.
    """

    def __init__(
        self,
        env: Environment,
        switch: EthernetSwitch,
        admission: Optional[AdmissionController] = None,
        transport: str = "udp",
    ) -> None:
        self.env = env
        self.switch = switch
        #: optional admission ledger; when present, open_stream can enforce
        #: the utilization bound and failures shed/re-admit through it
        self.admission = admission
        self.transport = resolve_transport(transport)
        #: the zero-leak delivery ledger (None on the raw UDP path)
        self.books: Optional[MediaTransportBooks] = (
            MediaTransportBooks() if self.transport != "udp" else None
        )
        self.clients: dict[str, MPEGClient] = {}
        self._client_endpoints: dict[str, MediaClientEndpoint] = {}
        self._dest_of_stream: dict[str, str] = {}
        #: stream id -> its ``stream:<id>`` trace track, built once
        self._stream_tracks: dict[str, str] = {}
        self.engine: StreamingEngine  # set by subclass
        #: disk media errors survived by producers (retry succeeded or the
        #: frame was skipped)
        self.read_errors = 0
        self.frames_skipped = 0

    def attach_client(self, name: str) -> MPEGClient:
        """Create an MPEG client machine on the switch."""
        port = EthernetPort(self.env, name)
        self.switch.attach(port)
        if self.transport == "udp":
            client = MPEGClient(self.env, name, port)
        else:
            # the transport endpoint owns the port; completed records are
            # handed to the player through client.deliver()
            client = MPEGClient(self.env, name, port, consume_port=False)
            self._client_endpoints[name] = MediaClientEndpoint(
                self.env, client, self.transport, books=self.books
            )
        self.clients[name] = client
        return client

    def _track_of(self, stream_id: str) -> str:
        track = self._stream_tracks.get(stream_id)
        if track is None:
            track = self._stream_tracks[stream_id] = f"stream:{stream_id}"
        return track

    def transport_unaccounted(self) -> set:
        """Record ids the transport ledger cannot place (must be empty)."""
        if self.books is None:
            return set()
        return self.books.unaccounted()

    def open_stream(
        self,
        spec: StreamSpec,
        client_name: str,
        service_time_us: Optional[float] = None,
    ) -> None:
        if client_name not in self.clients:
            raise KeyError(f"no client {client_name!r} attached")
        if self.admission is not None and service_time_us is not None:
            decision = self.admission.admit(spec, service_time_us)
            if not decision.admitted:
                raise RuntimeError(f"admission refused: {decision.reason}")
        self.engine.scheduler.add_stream(spec)
        self._dest_of_stream[spec.stream_id] = client_name

    def start_producer(
        self,
        file: MPEGFile,
        inject_gap_us: float = 1_000.0,
        prebuffer_frames: int = 0,
    ) -> None:
        """Stream *file*'s frames into the scheduler ahead of playout.

        ``prebuffer_frames`` are injected back-to-back first (the player's
        initial buffering — the source of the constant offset at the start
        of the paper's queuing-delay plots); the rest are paced by
        ``inject_gap_us``, keeping the producer slightly ahead of the
        playout rate so the backlog (and queuing delay) ramps over the run.
        """
        raise NotImplementedError

    def reception(self, stream_id: str):
        client = self.clients[self._dest_of_stream[stream_id]]
        return client.reception(stream_id)

    def _submit_with_backpressure(self, frame: MediaFrame) -> Generator:
        """Process: inject *frame*, waiting while the stream's ring is full
        (a real producer blocks on the circular buffer's tail pointer)."""
        queue = self.engine.scheduler.queues[frame.stream_id]
        while queue.full:
            yield self.env.timeout(10_000.0)
        self.engine.submit(frame)

    def _read_with_retry(
        self,
        fs_file,
        nbytes: int,
        max_attempts: int = 6,
        backoff_us: float = 5_000.0,
    ) -> Generator:
        """Process: read *nbytes*, rewinding at EOF and retrying transient
        media errors with exponential backoff.

        Returns the byte count read, or 0 when every attempt failed — the
        producer then skips the frame instead of dying (one lost frame is a
        DWCS-tolerable loss; a dead producer is a dead stream).
        """
        wait_us = backoff_us
        for _attempt in range(max_attempts):
            try:
                got = yield from fs_file.read_next(nbytes)
            except DiskMediaError:
                self.read_errors += 1
                obs = self.env.obs
                if obs is not None:
                    obs.count("producer.read_errors")
                yield self.env.timeout(wait_us)
                wait_us *= 2.0
                continue
            if got == 0:
                fs_file.rewind()
                continue
            return got
        self.frames_skipped += 1
        obs = self.env.obs
        if obs is not None:
            obs.count("producer.frames_skipped")
        return 0


class SchedulerCardRuntime:
    """One dedicated i960 scheduler card's complete runtime.

    Everything that lives and dies with one card: the VxWorks instance and
    its system tasks, the DWCS scheduler + engine (tDWCS), the transmit
    queue drained by tNetTask onto the card's Ethernet port, the
    single-copy frame memory, and the crash/reset shedding hooks.

    :class:`NIStreamingService` wraps exactly one (the Figure-9
    configuration, construction order preserved bit-for-bit); the HA
    service in :mod:`repro.server.failover` composes several and migrates
    streams between them on card death.
    """

    def __init__(
        self,
        env: Environment,
        node: ServerNode,
        switch: EthernetSwitch,
        segment: int = 0,
        ctx: Optional[ArithmeticContext] = None,
        costs: Optional[DWCSCostModel] = None,
        enable_cache: bool = True,
        admission: Optional[AdmissionController] = None,
        dest_of_stream: Optional[dict[str, str]] = None,
        transport: str = "udp",
        books: Optional[MediaTransportBooks] = None,
    ) -> None:
        self.env = env
        self.node = node
        #: the dedicated scheduler NI: no disks, so the cache may be enabled
        self.card = node.add_i960_card(segment=segment)
        if enable_cache:
            self.card.enable_data_cache()
        switch.attach(self.card.eth_ports[0])
        self.vxworks = WindScheduler(env, cpu_spec=self.card.cpu.spec, name=f"{self.card.name}.vx")
        self.vxworks.spawn_system_tasks()
        self.scheduler = DWCSScheduler(
            ctx=ctx if ctx is not None else FixedPointContext(),
            costs=costs,
            work_conserving=False,
        )
        self._txq: Store = Store(env, name=f"{self.card.name}.txq")
        self.engine = StreamingEngine(
            env, self.scheduler, self.card.cpu, self._transmit
        )
        self.vxworks.spawn("tDWCS", self.engine.task_body, priority=100)
        # tNetTask: protocol processing is NI CPU work too, at higher
        # priority than the scheduler (as in VxWorks network stacks).
        self.vxworks.spawn("tNetTask", self._net_task, priority=55)
        #: single-copy frame bodies held in the card's pinned memory until
        #: transmitted ("To conserve memory, we maintain a single copy of
        #: frames in NI memory")
        self._frame_allocs: dict[int, Allocation] = {}
        self.engine.on_drop = self._release_dropped
        # graceful degradation: crash sheds, reset re-admits (see
        # :mod:`repro.faults` for the injection side)
        self.card.on_crash.append(self._on_card_crash)
        self.card.on_reset.append(self._on_card_reset)
        self.frames_lost_to_crash = 0
        #: this card's share ledger (per-card in multi-card services)
        self.admission = admission
        #: stream -> client-port routing; shared with the owning service so
        #: migrated streams keep their destination
        self._dest_of_stream = dest_of_stream if dest_of_stream is not None else {}
        #: reliable media wire path (None on the historical raw UDP path,
        #: which must stay bit-identical — nothing is constructed for it)
        self.transport = resolve_transport(transport)
        self.wire: Optional[MediaWireSender] = None
        if self.transport != "udp":
            self.wire = MediaWireSender(
                env,
                self.card.eth_ports[0],
                self.transport,
                self.card.stack,
                books,
                name=self.card.name,
            )

    # -- failure handling -----------------------------------------------------
    def _on_card_crash(self) -> None:
        """NI went down: park the scheduler and shed the admitted streams.

        Queued transmit descriptors die with the card (their single-copy
        frame bodies are freed); frames already in the scheduler rings age
        out and are dropped/accounted by DWCS miss processing on resume.
        """
        self.engine.pause()
        obs = self.env.obs
        for desc in self._txq.items:
            self.frames_lost_to_crash += 1
            if obs is not None:
                obs.count("card.frames_lost_to_crash", card=self.card.name)
            alloc = self._frame_allocs.pop(id(desc.frame), None)
            if alloc is not None:
                alloc.free()
        self._txq.items.clear()
        if self.admission is not None:
            for stream_id in self.admission.admitted_streams:
                self.admission.suspend(stream_id)

    def _on_card_reset(self) -> None:
        """NI back up: re-admit what fits, restart the scheduler task."""
        if self.admission is not None:
            self.admission.resume_all()
        self.engine.resume()

    def _transmit(self, desc: FrameDescriptor) -> Generator:
        yield self._txq.put(desc)

    def _release_dropped(self, desc: FrameDescriptor) -> None:
        """Dropped packets release their frame body immediately."""
        alloc = self._frame_allocs.pop(id(desc.frame), None)
        if alloc is not None:
            alloc.free()

    def _reserve_frame_memory(self, frame: MediaFrame) -> Generator:
        """Process: hold the producer until card memory can take the frame
        body (the 4 MB board is a real constraint the paper engineers
        around with compact descriptors and single-copy frames)."""
        while True:
            try:
                alloc = self.card.memory.allocate(frame.size_bytes, tag="frame")
            except OutOfMemoryError:
                yield self.env.timeout(10_000.0)
                continue
            self._frame_allocs[id(frame)] = alloc
            return

    def _net_task(self, task: Task) -> Generator:
        port = self.card.eth_ports[0]
        while True:
            desc: FrameDescriptor = yield self._txq.get()
            obs = self.env.obs
            if self.card.crashed:
                # dispatched into the crash window: the frame is lost
                self.frames_lost_to_crash += 1
                if obs is not None:
                    obs.count("card.frames_lost_to_crash", card=self.card.name)
                alloc = self._frame_allocs.pop(id(desc.frame), None)
                if alloc is not None:
                    alloc.free()
                continue
            sp = (
                obs.begin(
                    "stack",
                    track=self.card.cpu.track,
                    stream=desc.stream_id,
                    seq=desc.frame.seqno,
                )
                if obs is not None
                else None
            )
            yield task.compute(self.card.stack.cost_us(desc.size_bytes))
            if obs is not None:
                obs.end(sp)
            dest = self._dest_of_stream[desc.stream_id]
            if self.wire is None:
                frame = NetFrame(
                    payload_bytes=desc.size_bytes,
                    stream_id=desc.stream_id,
                    seqno=desc.frame.seqno,
                    meta=desc.frame,
                )
                yield from port.send(frame, dest)
            else:
                # reliable transport: the frame becomes one application
                # record; the stack's own sender paces the wire from here
                yield from self.wire.send_media(desc, dest)
            # frame body leaves card memory once it is on the wire (or in
            # the transport's retransmit custody)
            alloc = self._frame_allocs.pop(id(desc.frame), None)
            if alloc is not None:
                alloc.free()


class NIStreamingService(_BaseService):
    """DWCS on a dedicated i960 RD scheduler card under VxWorks."""

    def __init__(
        self,
        env: Environment,
        node: ServerNode,
        switch: EthernetSwitch,
        scheduler_segment: int = 0,
        ctx: Optional[ArithmeticContext] = None,
        costs: Optional[DWCSCostModel] = None,
        enable_cache: bool = True,
        admission: Optional[AdmissionController] = None,
        transport: str = "udp",
    ) -> None:
        super().__init__(env, switch, admission=admission, transport=transport)
        self.node = node
        self.runtime = SchedulerCardRuntime(
            env,
            node,
            switch,
            segment=scheduler_segment,
            ctx=ctx,
            costs=costs,
            enable_cache=enable_cache,
            admission=admission,
            dest_of_stream=self._dest_of_stream,
            transport=transport,
            books=self.books,
        )
        # the runtime's parts under their historical names
        self.card = self.runtime.card
        self.vxworks = self.runtime.vxworks
        self.scheduler = self.runtime.scheduler
        self.engine = self.runtime.engine
        self._txq = self.runtime._txq

    @property
    def frames_lost_to_crash(self) -> int:
        return self.runtime.frames_lost_to_crash

    def start_producer(
        self,
        file: MPEGFile,
        inject_gap_us: float = 1_000.0,
        prebuffer_frames: int = 0,
    ) -> None:
        """A producer on a disk-attached peer card: frames cross the PCI
        segment by peer DMA into the scheduler card's memory (path B)."""
        producer_card = self.node.add_i960_card(segment=0)
        fs = producer_card.attach_disk()
        fs_file = fs.open(file.name, size_bytes=max(1, file.size_bytes))

        def producer() -> Generator:
            for i, frame in enumerate(file.frames):
                obs = self.env.obs
                sid, seq = frame.stream_id, frame.seqno
                sp = None
                if obs is not None:
                    track = self._track_of(sid)
                    sp = obs.begin("read", track=track, stream=sid, seq=seq)
                got = yield from self._read_with_retry(fs_file, frame.size_bytes)
                if obs is not None:
                    obs.end(sp, bytes=got)
                if got == 0:
                    continue  # unreadable after retries: skip the frame
                if obs is not None:
                    sp = obs.begin("memwait", track=track, stream=sid, seq=seq)
                yield from self.runtime._reserve_frame_memory(frame)
                if obs is not None:
                    obs.end(sp)
                    sp = obs.begin("xfer", track=track, stream=sid, seq=seq)
                yield from producer_card.dma.peer_transfer(frame.size_bytes)
                if obs is not None:
                    obs.end(sp)
                yield from self._submit_with_backpressure(frame)
                if i >= prebuffer_frames:
                    yield self.env.timeout(inject_gap_us)

        self.env.process(producer(), name=f"producer:{file.name}")


class HostStreamingService(_BaseService):
    """DWCS as a host process on the time-shared Solaris host."""

    def __init__(
        self,
        env: Environment,
        node: ServerNode,
        switch: EthernetSwitch,
        nic_segment: int = 0,
        ctx: Optional[ArithmeticContext] = None,
        costs: Optional[DWCSCostModel] = None,
        bind_cpu: Optional[int] = None,
        priority: int = 120,
        admission: Optional[AdmissionController] = None,
        transport: str = "udp",
    ) -> None:
        super().__init__(env, switch, admission=admission, transport=transport)
        self.node = node
        self.nic = node.add_82557_nic(segment=nic_segment)
        switch.attach(self.nic.eth_port)
        self.wire: Optional[MediaWireSender] = None
        if self.transport != "udp":
            self.wire = MediaWireSender(
                env,
                self.nic.eth_port,
                self.transport,
                node.host_stack,
                self.books,
                name=node.name,
            )
        self.scheduler = DWCSScheduler(
            ctx=ctx if ctx is not None else FixedPointContext(),
            costs=costs if costs is not None else HOST_DWCS_COSTS,
            work_conserving=False,
        )
        self._txq: Store = Store(env, name=f"{node.name}.txq")
        self.engine = StreamingEngine(
            env, self.scheduler, node.host_cpu, self._transmit
        )
        # The prototype host DWCS process consumes CPU continuously enough
        # that the Solaris TS class decays it toward the bottom of the
        # priority range under load; fresh web workers are dispatched ahead
        # of it. We model the steady state of that decay by placing the
        # scheduler (and its transmit path) below the web pool's level —
        # the paper's "scheduler receives CPU at lower rates because of
        # increased service load".
        self.dwcs_task = node.host_os.spawn(
            "dwcs", self.engine.task_body, priority=priority, bound_cpu=bind_cpu
        )
        # tNet and the scheduler are ordinary time-sharing processes: on
        # the host they enjoy NO priority advantage over the Apache pool
        # (the structural reason Figures 7/8 degrade under load).
        self.net_task = node.host_os.spawn("tNet", self._net_task, priority=priority)

    def _transmit(self, desc: FrameDescriptor) -> Generator:
        yield self._txq.put(desc)

    def _net_task(self, task: Task) -> Generator:
        bridge = self.node.bridge_for(self.nic.segment)
        port = self.nic.eth_port
        while True:
            desc: FrameDescriptor = yield self._txq.get()
            obs = self.env.obs
            sid, seq = desc.stream_id, desc.frame.seqno
            sp = (
                obs.begin(
                    "stack",
                    track=self.node.host_cpu.track,
                    stream=sid,
                    seq=seq,
                )
                if obs is not None
                else None
            )
            # protocol processing on the (contended) host CPU
            yield task.compute(self.node.host_stack.cost_us(desc.size_bytes))
            if obs is not None:
                obs.end(sp)
                sp = obs.begin("txbridge", track=self._track_of(sid), stream=sid, seq=seq)
            # frame body: host memory -> NIC across the bridge
            yield from bridge.transfer(desc.size_bytes)
            if obs is not None:
                obs.end(sp)
            dest = self._dest_of_stream[desc.stream_id]
            if self.wire is None:
                frame = NetFrame(
                    payload_bytes=desc.size_bytes,
                    stream_id=desc.stream_id,
                    seqno=desc.frame.seqno,
                    meta=desc.frame,
                )
                yield from port.send(frame, dest)
            else:
                yield from self.wire.send_media(desc, dest)

    def start_producer(
        self,
        file: MPEGFile,
        inject_gap_us: float = 1_000.0,
        segmentation_us: float = 150.0,
        prebuffer_frames: int = 0,
        prebuffer_gap_us: float = 80_000.0,
        priority: int = 100,
    ) -> None:
        """The MPEG segmentation process as a host thread: reads the file
        from a UFS volume, injects frames into host-memory queues.

        ``segmentation_us`` is the per-frame CPU cost of parsing the
        elementary stream; the Figure experiments use the calibrated value
        from :mod:`repro.experiments.calibration` to reproduce Figure 6's
        no-web-load utilization baseline.
        """
        controller = self.node.add_disk_controller(segment=0)
        fs = controller.mount_ufs()
        fs_file = fs.open(file.name, size_bytes=max(1, file.size_bytes))
        bridge = self.node.bridge_for(controller.segment)

        def producer(task: Task) -> Generator:
            for i, frame in enumerate(file.frames):
                obs = self.env.obs
                sid, seq = frame.stream_id, frame.seqno
                sp = None
                if obs is not None:
                    track = self._track_of(sid)
                    sp = obs.begin("read", track=track, stream=sid, seq=seq)
                got = yield from self._read_with_retry(fs_file, frame.size_bytes)
                if obs is not None:
                    obs.end(sp, bytes=got)
                if got == 0:
                    continue  # unreadable after retries: skip the frame
                if obs is not None:
                    sp = obs.begin("xfer", track=track, stream=sid, seq=seq)
                yield from bridge.transfer(frame.size_bytes)
                if obs is not None:
                    obs.end(sp)
                    sp = obs.begin("seg", track=track, stream=sid, seq=seq)
                yield task.compute(segmentation_us)  # parse/segment the frame
                if obs is not None:
                    obs.end(sp)
                yield from self._submit_with_backpressure(frame)
                # prebuffer fills fast (but not CPU-saturating); then pace
                yield self.env.timeout(
                    inject_gap_us if i >= prebuffer_frames else prebuffer_gap_us
                )

        # The segmentation producers sleep most of their cycle (disk I/O +
        # pacing timers), so the Solaris TS class keeps them at boosted
        # priority; the DWCS process competes at the web pool's level —
        # the asymmetry behind Figures 7/8's degradation.
        self.node.host_os.spawn(f"mpeg_seg:{file.name}", producer, priority=priority)
