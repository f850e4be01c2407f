"""TTP: a TTPoE-style reliable L2 transport for the NI firmware.

The paper offloads the streaming wire path onto the network co-processor;
the 2024 incarnation of that bet is a hardware-offloaded reliable
transport running *directly over Ethernet L2* (Tesla's TTPoE). This
module models such a protocol beside the existing UDP/TCP paths, following
the state machine pinned down in ``docs/ttp-spec.md``:

* **3-way tagged open** — OPEN / OPEN-ACK / OPEN-NACK. The initiator walks
  CLOSED → OPEN_SENT → OPEN; the responder CLOSED → OPEN_RECV → OPEN (it
  completes on the first in-tag packet from the peer). A duplicate OPEN
  (retransmitted across a lossy link) replays the *cached* OPEN-ACK rather
  than minting a second link.
* **per-packet (tag, seq) ids** — every link incarnation carries a fresh
  tag; payload packets carry a per-link sequence number that wraps at
  ``seq_mod`` on the wire while both ends keep unbounded counters
  internally (the unwrap window is ``seq_mod // 2``).
* **cumulative ACK + bounded retransmit queue** — the sender keeps at most
  ``window`` unacked packets; ACKs carry the receiver's next expected
  sequence and free everything below it.
* **retransmit-on-NACK** — a receiver that sees a gap NACKs the missing
  sequence once per gap; the sender goes-back-N immediately instead of
  waiting out the retransmission timer. The timer (exponential backoff,
  capped, ``max_retries`` budget) remains the fallback for tail loss,
  where no later packet arrives to expose the gap.
* **NOC-style credit flow control** — the receiver grants ``credits``
  buffer slots at open; every ACK/NACK re-advertises the grant minus what
  is buffered out-of-order. A sender with no credit stalls (counted) until
  an ACK replenishes it.
* **CLOSE quiesce** — CLOSE is only sent once the window has drained
  (nothing pending, nothing unacked), then CLOSE / CLOSE-ACK tears the
  link down; a retransmitted CLOSE is re-acked safely.

Fault hooks mirror the I2O message plane: the transmit path consults the
environment's fault plane (``msg-drop`` / ``msg-dup`` windows keyed by the
stack name), so a dropped packet pays its stack cost and vanishes before
the wire and a duplicated one is framed and sent twice — and link loss
applies at the switch exactly as for every other transport. The obs plane
sees TTP like it sees TCP: ``stack`` spans with ``proto="ttp"`` and
``ttp.*`` counters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.hw.ethernet import EthernetPort, NetFrame, StackCosts
from repro.sim import Environment, Event, Store

__all__ = ["TTPPacket", "TTPStack", "TTPLink", "TTPError", "TTP_HEADER_BYTES"]

#: TTP header on the wire (L2 shim + opcode + tag/seq/ack/credit fields)
TTP_HEADER_BYTES = 26

_tag_ids = itertools.count(1)
_record_ids = itertools.count(1)


class TTPError(RuntimeError):
    """Link-level failure (open refused/timed out, link reset, ...)."""


@dataclass(slots=True)
class TTPPacket:
    """One TTP packet in flight (the hot sites build it positionally)."""

    kind: str  # 'open'|'open-ack'|'open-nack'|'payload'|'ack'|'nack'|'close'|'close-ack'
    src_host: str
    src_port: int
    dst_port: int
    #: link incarnation id, assigned by the initiator at open
    tag: int = 0
    #: wire sequence number (payload), wrapped modulo the link's seq_mod
    seq: int = 0
    #: cumulative: wire sequence of the next packet the ACK sender expects
    ack: int = 0
    #: receiver's credit grant riding this packet (open-ack/ack/nack)
    credit: int = 0
    payload_bytes: int = 0
    #: application record this packet belongs to (delivered on completion)
    record_id: int = 0
    #: total packets in the record (reassembly bookkeeping)
    record_segments: int = 1
    data: Any = None
    #: open-nack diagnostic
    reason: str = ""
    #: set by the sender loop on first wire transmission, so a window
    #: refill pass never re-sends a packet an earlier pass already put on
    #: the wire (retransmits go through the explicit go-back-N path)
    sent_once: bool = False


@dataclass
class _Record:
    """A queued application send: one message split into packets."""

    record_id: int
    nbytes: int
    data: Any
    first_seq: int
    n_packets: int


class TTPLink:
    """One established (or establishing) TTP link endpoint."""

    def __init__(
        self,
        stack: "TTPStack",
        local_port: int,
        peer_host: str,
        peer_port: int,
        tag: int,
        initiator: bool,
        mtu: int,
        window: int,
        credits: int,
        seq_mod: int,
        retx_us: float,
        retx_max_us: Optional[float] = None,
        max_retries: int = 20,
        jitter_frac: float = 0.0,
        rng=None,
    ) -> None:
        if seq_mod < 2 * max(window, 1):
            raise ValueError("seq_mod must be at least twice the window")
        self.stack = stack
        self.env = stack.env
        self.local_port = local_port
        self.peer_host = peer_host
        self.peer_port = peer_port
        self.tag = tag
        self.initiator = initiator
        self.mtu = mtu
        self.window = window
        #: buffer slots this end grants its peer
        self.credits = credits
        self.seq_mod = seq_mod
        self.retx_us = retx_us
        self.retx_max_us = retx_max_us if retx_max_us is not None else 16.0 * retx_us
        self.max_retries = max_retries
        self.jitter_frac = jitter_frac
        self._rng = rng
        self._retx_cur = retx_us
        self._consecutive_retx = 0
        self.aborted = False
        self.state = "closed"  # closed|open-sent|open-recv|open|close-wait|reset
        # -- sender side -----------------------------------------------------
        self._next_seq = 0  # unbounded; wire carries seq % seq_mod
        self._send_base = 0  # oldest unacked (unbounded)
        self._unacked: dict[int, TTPPacket] = {}
        self._pending: list[_Record] = []
        #: the peer's last advertised credit grant (learned at open)
        self._peer_credit = 0
        self._send_signal: Optional[Event] = None
        self._sender_proc = None
        #: record id -> (data, last unbounded seq) while any packet unacked;
        #: the abort path turns this into the lost-record account
        self._unacked_records: dict[int, tuple[Any, int]] = {}
        # -- receiver side ---------------------------------------------------
        self._rcv_next = 0  # unbounded
        self._out_of_order: dict[int, TTPPacket] = {}
        self._assembling: dict[int, list[TTPPacket]] = {}
        #: in-order application records for the app (dicts like TCP's inbox)
        self.inbox: Store = Store(self.env, name=f"ttp:{local_port}.inbox")
        #: rcv_next value already NACKed (one NACK per gap instance)
        self._nacked_at: Optional[int] = None
        # -- handshake / teardown events ---------------------------------------
        self._opened = self.env.event(name=f"ttp:{local_port}.opened")
        self._closed = self.env.event(name=f"ttp:{local_port}.closed")
        self._open_nack_reason: Optional[str] = None
        #: responder's cached OPEN-ACK, replayed on duplicate OPEN
        self._open_ack: Optional[TTPPacket] = None
        # -- stats -------------------------------------------------------------
        self.packets_sent = 0
        self.packets_received = 0
        self.retransmissions = 0
        self.nack_retransmissions = 0
        self.nacks_sent = 0
        self.nacks_received = 0
        self.duplicates_dropped = 0
        self.stale_tag_drops = 0
        self.credit_stalls = 0
        self.records_sent = 0
        self.records_delivered = 0
        #: record ids the abort path declared undeliverable
        self.lost_record_ids: list[int] = []

    # -- application API -----------------------------------------------------
    def send(self, nbytes: int, data: Any = None, record_id: Optional[int] = None) -> int:
        """Queue an application record for reliable delivery; returns its id."""
        if self.state not in ("open", "open-sent", "open-recv"):
            raise TTPError(f"send on {self.state} link")
        if nbytes <= 0:
            raise ValueError("record size must be positive")
        n_packets = max(1, -(-nbytes // self.mtu))
        rid = record_id if record_id is not None else next(_record_ids)
        self._pending.append(
            _Record(
                record_id=rid,
                nbytes=nbytes,
                data=data,
                first_seq=-1,
                n_packets=n_packets,
            )
        )
        self.records_sent += 1
        self._kick_sender()
        return rid

    def recv(self) -> Event:
        """Event: the next complete in-order application record."""
        return self.inbox.get()

    def close(self) -> Generator[Event, None, None]:
        """Process: quiesce the window, then CLOSE / CLOSE-ACK teardown."""
        while self._pending or self._unacked:
            if self.aborted:
                raise TTPError("link reset while quiescing")
            yield self.env.timeout(self.retx_us / 4)
        self.state = "close-wait"
        close = TTPPacket(
            kind="close",
            src_host=self.stack.eth_port.name,
            src_port=self.local_port,
            dst_port=self.peer_port,
            tag=self.tag,
        )
        for _attempt in range(8):
            yield from self.stack._transmit(close, self.peer_host)
            result = yield self._closed | self.env.timeout(self.retx_us)
            if self._closed in result:
                self.state = "closed"
                return
        raise TTPError("close timed out")

    # -- window algebra ------------------------------------------------------
    def _wrap(self, seq: int) -> int:
        return seq % self.seq_mod

    def _unwrap_rcv(self, wire_seq: int) -> Optional[int]:
        """The unbounded sequence a received wire seq stands for, or None
        when it falls outside the acceptance window (stale retransmit)."""
        delta = (wire_seq - self._rcv_next) % self.seq_mod
        if delta < self.seq_mod // 2:
            return self._rcv_next + delta
        return None

    def _unwrap_ack(self, wire_ack: int) -> Optional[int]:
        """The unbounded cumulative ack a wire ack stands for, or None when
        it acks nothing we have outstanding (stale ACK)."""
        delta = (wire_ack - self._send_base) % self.seq_mod
        if delta <= self._next_seq - self._send_base:
            return self._send_base + delta
        return None

    def _advertised_credit(self) -> int:
        """NOC-style grant: total slots minus packets buffered out of order
        (the only receive-side state a slow drain can pin)."""
        return max(0, self.credits - len(self._out_of_order))

    def _credit_window(self) -> int:
        """How many packets may be in flight right now."""
        return min(self.window, self._peer_credit)

    # -- sender machinery ----------------------------------------------------
    def _kick_sender(self) -> None:
        if self._send_signal is not None and not self._send_signal.triggered:
            self._send_signal.succeed()

    def _sender(self) -> Generator:
        env = self.env
        while True:
            progressed = self._fill_window()
            if (
                self._pending
                and len(self._unacked) >= self._credit_window()
                and self._credit_window() < self.window
            ):
                # the peer's grant, not our window, is what pinned the fill
                self.credit_stalls += 1
                self.stack._count("ttp.credit_stalls")
            if progressed:
                # snapshot: ACKs may pop packets while we yield mid-send
                for seq in sorted(self._unacked):
                    pkt = self._unacked.get(seq)
                    if pkt is None:
                        continue
                    if not pkt.sent_once:
                        pkt.sent_once = True
                        self.packets_sent += 1
                        yield from self.stack._transmit(pkt, self.peer_host)
            if not self._unacked and not self._pending:
                self._send_signal = env.event()
                yield self._send_signal
                self._send_signal = None
                continue
            base_before = self._send_base
            wait_us = self._retx_interval()
            timeout_ev = env.timeout(wait_us)
            self._send_signal = env.event()
            result = yield self._send_signal | timeout_ev
            self._send_signal = None
            if (
                timeout_ev in result
                and self._send_base == base_before
                and self._unacked
            ):
                self._consecutive_retx += 1
                self._trace(
                    "rto",
                    rto_us=wait_us,
                    attempt=self._consecutive_retx,
                    outstanding=len(self._unacked),
                )
                if self._consecutive_retx > self.max_retries:
                    self._abort()
                    return
                self._retransmit_outstanding(nacked=False)
                self._retx_cur = min(self._retx_cur * 2.0, self.retx_max_us)

    def _retransmit_outstanding(self, nacked: bool) -> None:
        """Go-back-N: resend every unacked packet (timer or NACK driven)."""
        outstanding = sorted(self._unacked)
        if not outstanding:
            return
        self.retransmissions += len(outstanding)
        if nacked:
            self.nack_retransmissions += len(outstanding)
        self.stack._count("ttp.retransmissions", len(outstanding))

        def resend() -> Generator:
            for seq in outstanding:
                pkt = self._unacked.get(seq)
                if pkt is None:
                    continue  # acked while the resends were in progress
                self.packets_sent += 1
                yield from self.stack._transmit(pkt, self.peer_host)

        self.env.process(resend(), name=f"ttp:{self.local_port}.retx")

    def _retx_interval(self) -> float:
        retx = self._retx_cur
        if self._rng is not None and self.jitter_frac > 0.0:
            retx *= 1.0 + self.jitter_frac * float(self._rng.random())
        return retx

    def _abort(self) -> None:
        """Give up after max_retries consecutive timeouts: the peer is gone.

        Every record still pending or unacked is declared lost — the
        accounting the zero-leak invariant audits against."""
        self.aborted = True
        self.state = "reset"
        lost = {rec.record_id for rec in self._pending}
        lost.update(self._unacked_records)
        self.lost_record_ids.extend(sorted(lost))
        self._trace("abort", retries=self._consecutive_retx, lost=len(lost))
        self.stack._count("ttp.aborts")
        self._unacked.clear()
        self._unacked_records.clear()
        self._pending.clear()

    def _fill_window(self) -> bool:
        progressed = False
        while self._pending and len(self._unacked) < self._credit_window():
            record = self._pending[0]
            if record.first_seq < 0:
                record.first_seq = self._next_seq
            emitted = self._next_seq - record.first_seq
            if emitted >= record.n_packets:
                self._pending.pop(0)
                continue
            is_last = emitted == record.n_packets - 1
            size = (
                record.nbytes - self.mtu * (record.n_packets - 1)
                if is_last
                else self.mtu
            )
            # kind, src_host, src_port, dst_port, tag, seq, ack, credit,
            # payload_bytes, record_id, record_segments, data
            pkt = TTPPacket(
                "payload", self.stack.eth_port.name, self.local_port,
                self.peer_port, self.tag, self._wrap(self._next_seq), 0, 0,
                max(1, size), record.record_id, record.n_packets,
                record.data if is_last else None,
            )
            self._unacked[self._next_seq] = pkt
            self._unacked_records.setdefault(
                record.record_id, (record.data, record.first_seq)
            )
            if is_last:
                self._unacked_records[record.record_id] = (
                    record.data,
                    self._next_seq,
                )
                self._pending.pop(0)
            self._next_seq += 1
            progressed = True
        return progressed

    # -- packet arrival (called by the stack's demux) ------------------------
    def _on_packet(self, pkt: TTPPacket) -> None:
        if pkt.tag != self.tag:
            # a stale incarnation's packet: not ours
            self.stale_tag_drops += 1
            return
        self.packets_received += 1
        if pkt.kind in ("ack", "nack"):
            self._on_ack(pkt)
            return
        if pkt.kind == "payload":
            self._on_payload(pkt)
            return
        if pkt.kind == "close":
            # the peer quiesced before closing: deliver-then-die is safe;
            # re-ack retransmitted CLOSEs even when already closed
            self.state = "closed"
            self._reply(
                TTPPacket(
                    kind="close-ack",
                    src_host=self.stack.eth_port.name,
                    src_port=self.local_port,
                    dst_port=self.peer_port,
                    tag=self.tag,
                )
            )
            if not self._closed.triggered:
                self._closed.succeed()
            return
        if pkt.kind == "close-ack":
            if not self._closed.triggered:
                self._closed.succeed()

    def _on_ack(self, pkt: TTPPacket) -> None:
        self._peer_credit = pkt.credit
        ack = self._unwrap_ack(pkt.ack)
        if ack is not None and ack > self._send_base:
            for seq in range(self._send_base, ack):
                self._unacked.pop(seq, None)
            self._send_base = ack
            for rid in [
                r
                for r, (_data, last_seq) in self._unacked_records.items()
                if last_seq < ack
            ]:
                del self._unacked_records[rid]
            # forward progress: the path works, undo the backoff
            self._retx_cur = self.retx_us
            self._consecutive_retx = 0
        if pkt.kind == "nack":
            self.nacks_received += 1
            self._trace("nack", ack=pkt.ack, outstanding=len(self._unacked))
            self._retransmit_outstanding(nacked=True)
        self._kick_sender()

    def _on_payload(self, pkt: TTPPacket) -> None:
        seq = self._unwrap_rcv(pkt.seq)
        if seq is None or seq in self._out_of_order:
            self.duplicates_dropped += 1
            self.stack._count("ttp.duplicates_dropped")
        elif seq < self._rcv_next + 2 * self.window:
            self._out_of_order[seq] = pkt
            self._drain_in_order()
        gap = bool(self._out_of_order)
        if gap and self._nacked_at != self._rcv_next:
            # first sight of this gap: ask for the hole explicitly
            self._nacked_at = self._rcv_next
            self.nacks_sent += 1
            self.stack._count("ttp.nacks_sent")
            self._send_control("nack")
        else:
            self._send_control("ack")

    def _drain_in_order(self) -> None:
        while self._rcv_next in self._out_of_order:
            pkt = self._out_of_order.pop(self._rcv_next)
            self._rcv_next += 1
            self._nacked_at = None
            parts = self._assembling.setdefault(pkt.record_id, [])
            parts.append(pkt)
            if len(parts) == pkt.record_segments:
                del self._assembling[pkt.record_id]
                self.records_delivered += 1
                self.inbox.put_nowait(
                    {
                        "nbytes": sum(p.payload_bytes for p in parts),
                        "data": parts[-1].data,
                        "record_id": pkt.record_id,
                    }
                )

    def _send_control(self, kind: str) -> None:
        # kind, src_host, src_port, dst_port, tag, seq, ack, credit
        self._reply(
            TTPPacket(
                kind, self.stack.eth_port.name, self.local_port, self.peer_port,
                self.tag, 0, self._wrap(self._rcv_next), self._advertised_credit(),
            )
        )

    def _reply(self, pkt: TTPPacket) -> None:
        self.env.process(
            self.stack._transmit(pkt, self.peer_host),
            name=f"ttp:{self.local_port}.reply",
        )

    def _trace(self, name: str, **fields: Any) -> None:
        tracer = self.stack.tracer
        if tracer is None:
            obs = self.stack._obs
            tracer = obs.tracer if obs is not None else None
        if tracer is not None and tracer.wants("ttp"):
            tracer.emit("ttp", name, port=self.local_port, tag=self.tag, **fields)

    def inflight_record_ids(self) -> set:
        """Record ids this endpoint is still responsible for (both sides)."""
        ids = {rec.record_id for rec in self._pending}
        ids.update(self._unacked_records)
        ids.update(self._assembling)
        ids.update(pkt.record_id for pkt in self._out_of_order.values())
        ids.update(item["record_id"] for item in self.inbox.items)
        return ids

    def __repr__(self) -> str:
        return (
            f"<TTPLink {self.local_port}->{self.peer_host}:{self.peer_port} "
            f"tag={self.tag} {self.state} unacked={len(self._unacked)} "
            f"rtx={self.retransmissions}>"
        )


class TTPStack:
    """TTP link endpoints multiplexed over one Ethernet attachment."""

    def __init__(
        self,
        env: Environment,
        eth_port: EthernetPort,
        stack: StackCosts,
        mtu: int = 1460,
        window: int = 8,
        credits: int = 16,
        seq_mod: int = 1 << 16,
        retx_us: float = 200_000.0,
        retx_max_us: Optional[float] = None,
        max_retries: int = 20,
        jitter_frac: float = 0.0,
        rng=None,
        tracer=None,
        name: Optional[str] = None,
    ) -> None:
        if mtu < 1 or window < 1 or credits < 1 or retx_us <= 0:
            raise ValueError("mtu, window, credits, retx must be positive")
        if seq_mod < 2 * window:
            raise ValueError("seq_mod must be at least twice the window")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        self.env = env
        self.eth_port = eth_port
        self.stack = stack
        self.mtu = mtu
        self.window = window
        self.credits = credits
        self.seq_mod = seq_mod
        self.retx_us = retx_us
        self.retx_max_us = retx_max_us if retx_max_us is not None else 16.0 * retx_us
        self.max_retries = max_retries
        self.jitter_frac = jitter_frac
        self.rng = rng
        self.tracer = tracer
        self.name = name or f"ttp:{eth_port.name}"
        self._listeners: dict[int, Store] = {}
        self._links: dict[tuple[str, int, int], TTPLink] = {}
        self.packets_dropped_by_fault = 0
        self.packets_duplicated_by_fault = 0
        self.open_nacks_sent = 0
        self.open_ack_replays = 0
        # Pre-resolved hook slots: one instance-attribute load per packet
        # instead of chasing env.obs/env.fault_plane on every transmit.
        # Planes may install after construction (chaos wires the fault
        # plane once the stacks exist), so a watcher re-resolves the cache
        # whenever one binds or unbinds.
        self._obs = env.obs
        self._fault_plane = env.fault_plane
        env.add_hook_watcher(self._resolve_hooks)
        # Stacks sharing one port share ONE demux (same reasoning as the
        # TCP stack: two receive loops on one port steal frames round-robin
        # and strand packets on the wrong stack). The shared list object is
        # cached on every member, so delivery walks an instance attribute
        # rather than getattr-ing the port per packet.
        peers = getattr(eth_port, "_ttp_stacks", None)
        if peers is None:
            peers = []
            eth_port._ttp_stacks = peers  # type: ignore[attr-defined]
            env.process(self._demux(), name=f"{self.name}.demux")
        peers.append(self)
        self._port_stacks = peers

    def _resolve_hooks(self, env: Environment) -> None:
        self._obs = env.obs
        self._fault_plane = env.fault_plane

    # -- endpoint API --------------------------------------------------------
    def listen(self, port: int) -> Store:
        """Accept queue for *port*: get() yields established links."""
        if port in self._listeners:
            raise ValueError(f"ttp port {port} already listening")
        queue = Store(self.env, name=f"{self.name}:{port}.accept")
        self._listeners[port] = queue
        return queue

    def open(
        self, dest_host: str, dest_port: int, src_port: int
    ) -> Generator[Event, None, TTPLink]:
        """Process: 3-way tagged open; returns the OPEN link."""
        key = (dest_host, dest_port, src_port)
        if key in self._links:
            raise TTPError("link already exists")
        link = self._make_link(
            src_port, dest_host, dest_port, tag=next(_tag_ids), initiator=True
        )
        link.state = "open-sent"
        self._links[key] = link
        open_pkt = TTPPacket(
            kind="open",
            src_host=self.eth_port.name,
            src_port=src_port,
            dst_port=dest_port,
            tag=link.tag,
            credit=self.credits,
        )
        # OPEN gets the data path's budget: max_retries timer retransmissions
        # after the first send, so a handshake survives the loss a data
        # packet would.
        open_wait_us = self.retx_us
        for _attempt in range(self.max_retries + 1):
            yield from self._transmit(open_pkt, dest_host)
            result = yield link._opened | self.env.timeout(open_wait_us)
            open_wait_us = min(open_wait_us * 2.0, self.retx_max_us)
            if link._opened in result:
                if link._open_nack_reason is not None:
                    del self._links[key]
                    raise TTPError(
                        f"open to {dest_host}:{dest_port} refused: "
                        f"{link._open_nack_reason}"
                    )
                link.state = "open"
                link._sender_proc = self.env.process(
                    link._sender(), name=f"{self.name}:{src_port}.sender"
                )
                return link
        del self._links[key]
        raise TTPError(f"open to {dest_host}:{dest_port} timed out")

    # -- internals -----------------------------------------------------------
    def _make_link(
        self,
        local_port: int,
        peer_host: str,
        peer_port: int,
        tag: int,
        initiator: bool,
    ) -> TTPLink:
        return TTPLink(
            self, local_port, peer_host, peer_port,
            tag=tag, initiator=initiator,
            mtu=self.mtu, window=self.window, credits=self.credits,
            seq_mod=self.seq_mod, retx_us=self.retx_us,
            retx_max_us=self.retx_max_us, max_retries=self.max_retries,
            jitter_frac=self.jitter_frac, rng=self.rng,
        )

    def _count(self, metric: str, n: int = 1) -> None:
        obs = self._obs
        if obs is not None:
            obs.count(metric, n, stack=self.name)

    def _transmit(self, pkt: TTPPacket, dest_host: str) -> Generator[Event, None, None]:
        obs = self._obs
        sp = (
            obs.begin(
                "stack",
                track=self.eth_port.track,
                proto="ttp",
                bytes=pkt.payload_bytes,
            )
            if obs is not None
            else None
        )
        yield self.env.timeout(self.stack.cost_us(pkt.payload_bytes or 1))
        if obs is not None:
            obs.end(sp)
            obs.count("ttp.packets_sent", stack=self.name)
        # The I2O drop/dup oracle (msg-drop/msg-dup windows keyed by the
        # stack name): a dropped packet pays its cost and vanishes before
        # the wire; the reliability machinery recovers it.
        plane = self._fault_plane
        if plane is not None and plane.message_dropped(self.name):
            self.packets_dropped_by_fault += 1
            self._count("ttp.packets_dropped_by_fault")
            return
        stream_id = f"ttp:{pkt.dst_port}"
        nbytes = pkt.payload_bytes + TTP_HEADER_BYTES
        # payload_bytes, stream_id, seqno, sent_at, meta
        yield from self.eth_port.send(
            NetFrame(nbytes, stream_id, pkt.seq, 0.0, pkt), dest_host
        )
        if plane is not None and plane.message_duplicated(self.name):
            self.packets_duplicated_by_fault += 1
            self._count("ttp.packets_duplicated_by_fault")
            dup = NetFrame(nbytes, stream_id, pkt.seq, 0.0, pkt)
            yield from self.eth_port.send(dup, dest_host)

    def _demux(self) -> Generator:
        while True:
            frame: NetFrame = yield self.eth_port.receive()
            pkt = frame.meta
            if not isinstance(pkt, TTPPacket):
                continue
            yield self.env.timeout(self.stack.cost_us(pkt.payload_bytes or 1))
            self._deliver(pkt)

    def _deliver(self, pkt: TTPPacket) -> None:
        """Route one packet to the owning stack on this port."""
        key = (pkt.src_host, pkt.src_port, pkt.dst_port)
        stacks = self._port_stacks
        owner: Optional["TTPStack"] = None
        link: Optional[TTPLink] = None
        for stack in stacks:
            link = stack._links.get(key)
            if link is not None:
                owner = stack
                break
        if pkt.kind == "open":
            if owner is None:
                for stack in stacks:
                    if pkt.dst_port in stack._listeners:
                        owner = stack
                        break
                if owner is None:
                    # nobody listening anywhere on the port: refuse loudly
                    self.open_nacks_sent += 1
                    self.env.process(
                        self._transmit(
                            TTPPacket(
                                kind="open-nack",
                                src_host=self.eth_port.name,
                                src_port=pkt.dst_port,
                                dst_port=pkt.src_port,
                                tag=pkt.tag,
                                reason=f"no listener on port {pkt.dst_port}",
                            ),
                            pkt.src_host,
                        ),
                        name=f"{self.name}.open-nack",
                    )
                    return
            owner._handle_open(pkt, key)
            return
        if link is None or owner is None:
            return  # stray packet for an unknown link
        if pkt.kind == "open-ack":
            if link.state == "open-sent" or not link._opened.triggered:
                link._peer_credit = pkt.credit
                if not link._opened.triggered:
                    link._opened.succeed()
            return
        if pkt.kind == "open-nack":
            link._open_nack_reason = pkt.reason or "refused"
            if not link._opened.triggered:
                link._opened.succeed()
            return
        if link.state == "open-recv":
            # 3-way completion: the first in-tag packet from the initiator
            # proves our OPEN-ACK arrived
            if pkt.tag == link.tag:
                link.state = "open"
        link._on_packet(pkt)

    def _handle_open(self, pkt: TTPPacket, key: tuple[str, int, int]) -> None:
        link = self._links.get(key)
        if link is not None:
            if pkt.tag == link.tag and link._open_ack is not None:
                # duplicate OPEN (lost OPEN-ACK): replay the cached OPEN-ACK
                self.open_ack_replays += 1
                self._count("ttp.open_ack_replays")
                link._reply(link._open_ack)
            return
        accept = self._listeners.get(pkt.dst_port)
        if accept is None:
            return  # raced away; the initiator retries into the NACK path
        link = self._make_link(
            pkt.dst_port, pkt.src_host, pkt.src_port, tag=pkt.tag, initiator=False
        )
        link.state = "open-recv"
        link._peer_credit = pkt.credit
        link._sender_proc = self.env.process(
            link._sender(), name=f"{self.name}:{pkt.dst_port}.sender"
        )
        self._links[key] = link
        accept.put_nowait(link)
        link._open_ack = TTPPacket(
            kind="open-ack",
            src_host=self.eth_port.name,
            src_port=pkt.dst_port,
            dst_port=pkt.src_port,
            tag=pkt.tag,
            credit=self.credits,
        )
        link._reply(link._open_ack)
