"""A small TCP over the simulated Ethernet (go-back-N flavour).

The I2O consortium's marquee use case — "off-loading TCP/IP protocol
processing to the NI from the host" — needs an actual reliable transport on
the board. This is a deliberately small but *real* TCP: three-way
handshake, MSS segmentation, a fixed sliding window of outstanding
segments, cumulative ACKs, retransmission timeout with go-back-N recovery,
in-order reassembly, and FIN teardown. It survives the switch's loss model
(`EthernetSwitch(loss_rate=...)`), which is the point.

Retransmission is hardened against *sustained* loss (fault-plane bursts,
partitions): the RTO backs off exponentially (optionally jittered by a
seeded RNG) up to ``rto_max_us`` instead of retransmitting at a fixed
interval forever, resets on ACK progress, and a connection that exhausts
``max_retries`` consecutive timeouts aborts into the ``"reset"`` state
rather than spinning. Attach a :class:`~repro.sim.Tracer` to observe the
backoff ('tcp'/'rto' events carry the expired interval per timeout).

Sequence numbers count *segments* (not bytes) — a simplification that
keeps the protocol honest (loss, reordering, duplication all handled)
while keeping reassembly bookkeeping readable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.hw.ethernet import EthernetPort, NetFrame, StackCosts
from repro.sim import Environment, Event, Store

__all__ = ["Segment", "TCPStack", "TCPConnection", "TCPError"]

#: TCP/IP header per segment on the wire
TCP_HEADER_BYTES = 40

_conn_ids = itertools.count(1)


class TCPError(RuntimeError):
    """Connection-level failure (timeout during handshake, reset, ...)."""


@dataclass
class Segment:
    """One TCP segment in flight."""

    kind: str  # 'syn' | 'synack' | 'ack' | 'data' | 'fin' | 'finack'
    src_host: str
    src_port: int
    dst_port: int
    seq: int = 0
    #: cumulative: next segment index expected by the sender of this ACK
    ack: int = 0
    payload_bytes: int = 0
    #: application record this segment belongs to (delivered on completion)
    record_id: int = 0
    #: total segments in the record (for reassembly bookkeeping)
    record_segments: int = 1
    data: Any = None
    #: set by the sender loop on first wire transmission, so a window
    #: refill pass never re-sends a segment an earlier pass already put
    #: on the wire (retransmits go through the explicit go-back-N path)
    sent_once: bool = False


@dataclass
class _Record:
    """A queued application send: one message split into segments."""

    record_id: int
    nbytes: int
    data: Any
    first_seq: int
    n_segments: int


class TCPConnection:
    """One established (or establishing) connection endpoint."""

    def __init__(
        self,
        stack: "TCPStack",
        local_port: int,
        peer_host: str,
        peer_port: int,
        mss: int,
        window: int,
        rto_us: float,
        rto_max_us: Optional[float] = None,
        max_retries: int = 12,
        jitter_frac: float = 0.0,
        rng=None,
    ) -> None:
        self.stack = stack
        self.env = stack.env
        self.local_port = local_port
        self.peer_host = peer_host
        self.peer_port = peer_port
        self.mss = mss
        self.window = window
        self.rto_us = rto_us
        self.rto_max_us = rto_max_us if rto_max_us is not None else 16.0 * rto_us
        self.max_retries = max_retries
        self.jitter_frac = jitter_frac
        self._rng = rng
        self._rto_cur = rto_us  # current backed-off RTO
        self._consecutive_rtos = 0
        self.aborted = False
        self.state = "closed"
        # -- sender side ----------------------------------------------------
        self._next_seq = 0  # next new segment index to assign
        self._send_base = 0  # oldest unacked segment index
        self._segments: dict[int, Segment] = {}  # unacked, by seq
        self._pending: list[_Record] = []  # records not yet fully segmented
        self._send_signal: Optional[Event] = None
        self._sender_proc = None
        # -- receiver side -----------------------------------------------------
        self._rcv_next = 0  # next in-order segment index expected
        self._out_of_order: dict[int, Segment] = {}
        self._assembling: dict[int, list[Segment]] = {}
        #: in-order application records (Datagram-like) for the app
        self.inbox: Store = Store(self.env, name=f"tcp:{local_port}.inbox")
        # -- stats ------------------------------------------------------------
        self.retransmissions = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.duplicates_dropped = 0
        #: record ids the abort path declared undeliverable
        self.lost_record_ids: list[int] = []
        self._established = self.env.event(name=f"tcp:{local_port}.established")
        self._closed = self.env.event(name=f"tcp:{local_port}.closed")

    # -- application API ---------------------------------------------------------
    def send(self, nbytes: int, data: Any = None, record_id: Optional[int] = None) -> None:
        """Queue an application record for reliable delivery.

        ``record_id`` lets the caller tag the record with its own globally
        unique id (the transport-selection ledger does); by default one is
        drawn from the module counter as before."""
        if self.state not in ("established",):
            raise TCPError(f"send on {self.state} connection")
        if nbytes <= 0:
            raise ValueError("record size must be positive")
        n_segments = max(1, -(-nbytes // self.mss))
        record = _Record(
            record_id=record_id if record_id is not None else next(_conn_ids),
            nbytes=nbytes,
            data=data,
            first_seq=-1,  # assigned when segmented
            n_segments=n_segments,
        )
        self._pending.append(record)
        self._kick_sender()

    def recv(self) -> Event:
        """Event: the next complete in-order application record."""
        return self.inbox.get()

    def close(self) -> Generator[Event, None, None]:
        """Process: flush, send FIN, await FINACK."""
        while self._pending or self._segments:
            yield self.env.timeout(self.rto_us / 4)
        self.state = "fin-wait"
        fin = Segment(
            kind="fin",
            src_host=self.stack.eth_port.name,
            src_port=self.local_port,
            dst_port=self.peer_port,
            seq=self._next_seq,
        )
        for _attempt in range(8):
            yield from self.stack._transmit(fin, self.peer_host)
            result = yield self._closed | self.env.timeout(self.rto_us)
            if self._closed in result:
                self.state = "closed"
                return
        raise TCPError("close timed out")

    # -- sender machinery ----------------------------------------------------------
    def _kick_sender(self) -> None:
        if self._send_signal is not None and not self._send_signal.triggered:
            self._send_signal.succeed()

    def _sender(self) -> Generator:
        env = self.env
        while True:
            # segment pending records while window space remains
            progressed = self._fill_window()
            if progressed:
                # snapshot: ACKs may pop segments while we yield mid-send
                for seq in sorted(self._segments):
                    seg = self._segments.get(seq)
                    if seg is None:
                        continue
                    if not seg.sent_once:
                        seg.sent_once = True
                        self.segments_sent += 1
                        yield from self.stack._transmit(seg, self.peer_host)
            if not self._segments and not self._pending:
                # idle: wait for new sends
                self._send_signal = env.event()
                yield self._send_signal
                self._send_signal = None
                continue
            # await ACK progress or retransmission timeout
            base_before = self._send_base
            wait_us = self._rto_interval()
            timeout_ev = env.timeout(wait_us)
            self._send_signal = env.event()
            result = yield self._send_signal | timeout_ev
            self._send_signal = None
            if (
                timeout_ev in result
                and self._send_base == base_before
                and self._segments
            ):
                # RTO: go-back-N — resend every outstanding segment
                # (snapshot again: ACKs may land between retransmissions)
                self._consecutive_rtos += 1
                self._trace(
                    "rto",
                    rto_us=wait_us,
                    attempt=self._consecutive_rtos,
                    outstanding=len(self._segments),
                )
                if self._consecutive_rtos > self.max_retries:
                    self._abort()
                    return
                outstanding = sorted(self._segments)
                self.retransmissions += len(outstanding)
                obs = self.stack._obs
                if obs is not None:
                    obs.count(
                        "tcp.retransmissions",
                        len(outstanding),
                        stack=self.stack.name,
                    )
                for seq in outstanding:
                    seg = self._segments.get(seq)
                    if seg is None:
                        continue
                    self.segments_sent += 1
                    yield from self.stack._transmit(seg, self.peer_host)
                self._rto_cur = min(self._rto_cur * 2.0, self.rto_max_us)

    def _rto_interval(self) -> float:
        """The next retransmission wait: backed-off RTO plus optional jitter.

        Jitter desynchronises connections that timed out together (a loss
        burst hits every stream at once; without jitter they all retransmit
        in lock-step into the same congested window).
        """
        rto = self._rto_cur
        if self._rng is not None and self.jitter_frac > 0.0:
            rto *= 1.0 + self.jitter_frac * float(self._rng.random())
        return rto

    def _abort(self) -> None:
        """Give up after max_retries consecutive RTOs: the peer is gone."""
        self.aborted = True
        self.state = "reset"
        lost = {rec.record_id for rec in self._pending}
        lost.update(seg.record_id for seg in self._segments.values())
        self.lost_record_ids.extend(sorted(lost))
        self._trace("abort", retries=self._consecutive_rtos)
        self._segments.clear()
        self._pending.clear()

    def _trace(self, name: str, **fields: Any) -> None:
        tracer = self.stack.tracer
        if tracer is None:
            # no explicit tracer wired: ride the observability plane's
            obs = self.stack._obs
            tracer = obs.tracer if obs is not None else None
        if tracer is not None and tracer.wants("tcp"):
            tracer.emit("tcp", name, port=self.local_port, **fields)

    def _fill_window(self) -> bool:
        progressed = False
        while self._pending and len(self._segments) < self.window:
            record = self._pending[0]
            if record.first_seq < 0:
                record.first_seq = self._next_seq
            # emit the next segment of this record
            emitted = self._next_seq - record.first_seq
            if emitted >= record.n_segments:
                self._pending.pop(0)
                continue
            is_last = emitted == record.n_segments - 1
            size = (
                record.nbytes - self.mss * (record.n_segments - 1)
                if is_last
                else self.mss
            )
            seg = Segment(
                kind="data",
                src_host=self.stack.eth_port.name,
                src_port=self.local_port,
                dst_port=self.peer_port,
                seq=self._next_seq,
                payload_bytes=max(1, size),
                record_id=record.record_id,
                record_segments=record.n_segments,
                data=record.data if is_last else None,
            )
            self._segments[self._next_seq] = seg
            self._next_seq += 1
            progressed = True
            if is_last:
                self._pending.pop(0)
        return progressed

    # -- segment arrival (called by the stack's demux) ------------------------------
    def _on_segment(self, seg: Segment) -> None:
        self.segments_received += 1
        if seg.kind == "ack":
            if seg.ack > self._send_base:
                for s in range(self._send_base, seg.ack):
                    self._segments.pop(s, None)
                self._send_base = seg.ack
                # forward progress: the path works again, undo the backoff
                self._rto_cur = self.rto_us
                self._consecutive_rtos = 0
                self._kick_sender()
            return
        if seg.kind == "data":
            if seg.seq < self._rcv_next or seg.seq in self._out_of_order:
                self.duplicates_dropped += 1
            elif seg.seq < self._rcv_next + 4 * self.window:
                self._out_of_order[seg.seq] = seg
                self._drain_in_order()
            self._send_ack()
            return
        if seg.kind == "fin":
            self.state = "closed"
            self._reply(Segment(
                kind="finack",
                src_host=self.stack.eth_port.name,
                src_port=self.local_port,
                dst_port=self.peer_port,
            ))
            if not self._closed.triggered:
                self._closed.succeed()
            return
        if seg.kind == "finack":
            if not self._closed.triggered:
                self._closed.succeed()

    def _drain_in_order(self) -> None:
        while self._rcv_next in self._out_of_order:
            seg = self._out_of_order.pop(self._rcv_next)
            self._rcv_next += 1
            parts = self._assembling.setdefault(seg.record_id, [])
            parts.append(seg)
            if len(parts) == seg.record_segments:
                del self._assembling[seg.record_id]
                self.inbox.put_nowait(
                    {
                        "nbytes": sum(p.payload_bytes for p in parts),
                        "data": parts[-1].data,
                        "record_id": seg.record_id,
                    }
                )

    def _send_ack(self) -> None:
        self._reply(Segment(
            kind="ack",
            src_host=self.stack.eth_port.name,
            src_port=self.local_port,
            dst_port=self.peer_port,
            ack=self._rcv_next,
        ))

    def _reply(self, seg: Segment) -> None:
        self.env.process(
            self.stack._transmit(seg, self.peer_host),
            name=f"tcp:{self.local_port}.reply",
        )

    def __repr__(self) -> str:
        return (
            f"<TCPConnection {self.local_port}->{self.peer_host}:{self.peer_port} "
            f"{self.state} unacked={len(self._segments)} rtx={self.retransmissions}>"
        )


class TCPStack:
    """TCP endpoints multiplexed over one Ethernet attachment."""

    def __init__(
        self,
        env: Environment,
        eth_port: EthernetPort,
        stack: StackCosts,
        mss: int = 1460,
        window: int = 8,
        rto_us: float = 200_000.0,
        rto_max_us: Optional[float] = None,
        max_retries: int = 12,
        jitter_frac: float = 0.0,
        rng=None,
        tracer=None,
        name: Optional[str] = None,
    ) -> None:
        if mss < 1 or window < 1 or rto_us <= 0:
            raise ValueError("mss, window, rto must be positive")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        self.env = env
        self.eth_port = eth_port
        self.stack = stack
        self.mss = mss
        self.window = window
        self.rto_us = rto_us
        self.rto_max_us = rto_max_us if rto_max_us is not None else 16.0 * rto_us
        self.max_retries = max_retries
        self.jitter_frac = jitter_frac
        self.rng = rng
        self.tracer = tracer
        self.name = name or f"tcp:{eth_port.name}"
        self._listeners: dict[int, Store] = {}
        self._connections: dict[tuple[str, int, int], TCPConnection] = {}
        # Pre-resolved obs hook slot: one instance-attribute load per
        # segment instead of chasing env.obs on every transmit. The plane
        # may install after construction, so a watcher re-resolves it.
        self._obs = env.obs
        env.add_hook_watcher(self._resolve_hooks)
        # Stacks sharing one port share ONE demux: with two independent
        # receive loops on the same port, frames are stolen round-robin by
        # whichever loop's get is queued first, and a segment can land on a
        # stack that has no matching connection (silently eaten — the peer
        # only recovers via RTO). The first stack on the port runs the
        # demux; it routes each segment across every registered stack. The
        # shared list object is cached on every member, so delivery walks
        # an instance attribute rather than getattr-ing the port per
        # segment.
        peers = getattr(eth_port, "_tcp_stacks", None)
        if peers is None:
            peers = []
            eth_port._tcp_stacks = peers  # type: ignore[attr-defined]
            env.process(self._demux(), name=f"{self.name}.demux")
        peers.append(self)
        self._port_stacks = peers

    def _resolve_hooks(self, env: Environment) -> None:
        self._obs = env.obs

    # -- endpoint API ------------------------------------------------------------
    def listen(self, port: int) -> Store:
        """Accept queue for *port*: get() yields established connections."""
        if port in self._listeners:
            raise ValueError(f"tcp port {port} already listening")
        queue = Store(self.env, name=f"{self.name}:{port}.accept")
        self._listeners[port] = queue
        return queue

    def connect(
        self, dest_host: str, dest_port: int, src_port: int
    ) -> Generator[Event, None, TCPConnection]:
        """Process: active open; returns the established connection."""
        key = (dest_host, dest_port, src_port)
        if key in self._connections:
            raise TCPError("connection already exists")
        conn = self._make_connection(src_port, dest_host, dest_port)
        conn.state = "syn-sent"
        self._connections[key] = conn
        syn = Segment(
            kind="syn",
            src_host=self.eth_port.name,
            src_port=src_port,
            dst_port=dest_port,
        )
        syn_wait_us = self.rto_us
        for _attempt in range(8):
            yield from self._transmit(syn, dest_host)
            result = yield conn._established | self.env.timeout(syn_wait_us)
            syn_wait_us = min(syn_wait_us * 2.0, self.rto_max_us)
            if conn._established in result:
                conn.state = "established"
                conn._sender_proc = self.env.process(
                    conn._sender(), name=f"{self.name}:{src_port}.sender"
                )
                return conn
        del self._connections[key]
        raise TCPError(f"connect to {dest_host}:{dest_port} timed out")

    # -- internals -------------------------------------------------------------------
    def _make_connection(
        self, local_port: int, peer_host: str, peer_port: int
    ) -> TCPConnection:
        return TCPConnection(
            self, local_port, peer_host, peer_port,
            mss=self.mss, window=self.window, rto_us=self.rto_us,
            rto_max_us=self.rto_max_us, max_retries=self.max_retries,
            jitter_frac=self.jitter_frac, rng=self.rng,
        )

    def _transmit(self, seg: Segment, dest_host: str) -> Generator[Event, None, None]:
        obs = self._obs
        sp = (
            obs.begin(
                "stack",
                track=self.eth_port.track,
                proto="tcp",
                bytes=seg.payload_bytes,
            )
            if obs is not None
            else None
        )
        yield self.env.timeout(self.stack.cost_us(seg.payload_bytes or 1))
        if obs is not None:
            obs.end(sp)
            obs.count("tcp.segments_sent", stack=self.name)
        frame = NetFrame(
            payload_bytes=seg.payload_bytes + TCP_HEADER_BYTES,
            stream_id=f"tcp:{seg.dst_port}",
            seqno=seg.seq,
            meta=seg,
        )
        yield from self.eth_port.send(frame, dest_host)

    def _demux(self) -> Generator:
        while True:
            frame: NetFrame = yield self.eth_port.receive()
            seg = frame.meta
            if not isinstance(seg, Segment):
                continue
            yield self.env.timeout(self.stack.cost_us(seg.payload_bytes or 1))
            self._deliver(seg)

    def _deliver(self, seg: Segment) -> None:
        """Route one segment to the owning stack on this port."""
        key = (seg.src_host, seg.src_port, seg.dst_port)
        stacks = self._port_stacks
        owner: Optional["TCPStack"] = None
        conn: Optional[TCPConnection] = None
        for stack in stacks:
            conn = stack._connections.get(key)
            if conn is not None:
                owner = stack
                break
        if seg.kind == "syn":
            if owner is None:
                for stack in stacks:
                    if seg.dst_port in stack._listeners:
                        owner = stack
                        break
                if owner is None:
                    return  # no listener anywhere on the port: SYN dropped
            owner._handle_syn(seg, key)
            return
        if conn is None or owner is None:
            return  # stray segment for an unknown connection
        if seg.kind == "synack":
            if not conn._established.triggered:
                conn._established.succeed()
            return
        conn._on_segment(seg)

    def _handle_syn(self, seg: Segment, key: tuple[str, int, int]) -> None:
        conn = self._connections.get(key)
        accept = self._listeners.get(seg.dst_port)
        if conn is None:
            if accept is None:
                return  # no listener: SYN silently dropped
            conn = self._make_connection(seg.dst_port, seg.src_host, seg.src_port)
            conn.state = "established"
            conn._sender_proc = self.env.process(
                conn._sender(), name=f"{self.name}:{seg.dst_port}.sender"
            )
            self._connections[key] = conn
            accept.put_nowait(conn)
        # (re)confirm — SYNACK retransmit-safe
        self.env.process(
            self._transmit(
                Segment(
                    kind="synack",
                    src_host=self.eth_port.name,
                    src_port=seg.dst_port,
                    dst_port=seg.src_port,
                ),
                seg.src_host,
            )
        )
