"""Transport selection for the media wire path: udp | tcp | ttp.

The paper's services push raw frames onto the switch (the modeled
equivalent of the I2O boards' resident UDP). This module makes the wire
path *pluggable*: ``transport="udp"`` keeps the historical raw path
byte-for-byte (no object here is even constructed), while ``"tcp"`` and
``"ttp"`` ride the real reliable stacks of :mod:`repro.net.tcp` /
:mod:`repro.net.ttp` between the serving port and each client.

Three pieces:

* :func:`resolve_transport` — the CLI/name funnel, failing with the valid
  set spelled out (the same contract as
  :func:`repro.faults.resolve_scenario`).
* :class:`MediaWireSender` — the server side of one NIC/card: lazily opens
  one connection/link per client destination and sends each frame
  descriptor as one application record, tagged with a globally unique wire
  id.
* :class:`MediaClientEndpoint` — the client side: accepts links on the
  media port and delivers every completed record into the
  :class:`~repro.media.player.MPEGClient`'s reception log, deduplicating
  by wire id (no double delivery, ever).

Both register with a shared :class:`MediaTransportBooks`, the zero-leak
ledger: every record id ever sent must be delivered, declared lost by an
abort, or still in flight inside some endpoint's window —
:meth:`MediaTransportBooks.unaccounted` returns whatever fell through,
and the chaos suite asserts it is empty.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.hw.ethernet import CLIENT_STACK, EthernetPort, NetFrame, StackCosts

from .tcp import TCPError, TCPStack
from .ttp import TTPError, TTPLink, TTPStack

__all__ = [
    "MEDIA_PORT",
    "VALID_TRANSPORTS",
    "resolve_transport",
    "MediaTransportBooks",
    "MediaWireSender",
    "MediaClientEndpoint",
]

#: the well-known port media links rendezvous on (RTP's default)
MEDIA_PORT = 5004

#: the transports the server stack accepts
VALID_TRANSPORTS = ("udp", "tcp", "ttp")

#: globally unique record ids for the zero-leak ledger
_wire_ids = itertools.count(1)

#: the failures a reliable transport surfaces to its caller
_TRANSPORT_ERRORS = (TCPError, TTPError)


def resolve_transport(name: str) -> str:
    """Validate a transport name, failing with the valid set spelled out."""
    if name not in VALID_TRANSPORTS:
        valid = ", ".join(sorted(VALID_TRANSPORTS))
        raise ValueError(f"unknown transport {name!r}; valid transports: {valid}")
    return name


def _endpoint_inflight(ep) -> set:
    """Record ids an endpoint (TCPConnection or TTPLink) still holds."""
    if isinstance(ep, TTPLink):
        return ep.inflight_record_ids()
    ids = {rec.record_id for rec in ep._pending}
    ids.update(seg.record_id for seg in ep._segments.values())
    ids.update(ep._assembling)
    ids.update(seg.record_id for seg in ep._out_of_order.values())
    ids.update(item["record_id"] for item in ep.inbox.items)
    return ids


class MediaTransportBooks:
    """The shared zero-leak ledger across every sender and endpoint."""

    def __init__(self) -> None:
        self.sent_ids: set[int] = set()
        self.delivered_ids: set[int] = set()
        self.lost_ids: set[int] = set()
        self.duplicate_deliveries = 0
        self.senders: list["MediaWireSender"] = []
        self.endpoints: list["MediaClientEndpoint"] = []

    def inflight_ids(self) -> set:
        ids: set = set()
        for sender in self.senders:
            for ep in sender.endpoints():
                ids |= _endpoint_inflight(ep)
        for endpoint in self.endpoints:
            for ep in endpoint.links:
                ids |= _endpoint_inflight(ep)
        return ids

    def unaccounted(self) -> set:
        """Sent record ids that are neither delivered, lost, nor in flight.

        The invariant the chaos suite audits: this is EMPTY at any instant
        — a frame handed to a reliable transport is always somewhere."""
        return self.sent_ids - self.delivered_ids - self.lost_ids - self.inflight_ids()

    @property
    def retransmissions(self) -> int:
        return sum(
            ep.retransmissions
            for sender in self.senders
            for ep in sender.endpoints()
        )

    def rows(self) -> list[tuple[str, float, str]]:
        """Uniform (label, value, note) ledger rows for experiment reports;
        the last is the zero-leak audit."""
        return [
            ("records sent", float(len(self.sent_ids)), ""),
            ("retransmissions", float(self.retransmissions), ""),
            ("records lost", float(len(self.lost_ids)), ""),
            ("duplicate deliveries", float(self.duplicate_deliveries), ""),
            ("records unaccounted", float(len(self.unaccounted())),
             "MUST be 0: every sent record is delivered, lost, or in flight"),
        ]

    def __repr__(self) -> str:
        return (
            f"<MediaTransportBooks sent={len(self.sent_ids)} "
            f"delivered={len(self.delivered_ids)} lost={len(self.lost_ids)} "
            f"dups={self.duplicate_deliveries}>"
        )


class MediaWireSender:
    """The server side of one NIC/card's reliable media wire path."""

    def __init__(
        self,
        env,
        eth_port: EthernetPort,
        transport: str,
        stack_costs: StackCosts,
        books: MediaTransportBooks,
        name: Optional[str] = None,
    ) -> None:
        self.env = env
        self.transport = resolve_transport(transport)
        if self.transport == "udp":
            raise ValueError("the raw UDP path does not use a wire sender")
        self.books = books
        self.name = name or f"wire:{eth_port.name}"
        if self.transport == "tcp":
            self.stack = TCPStack(
                env, eth_port, stack_costs, name=f"tcp:{self.name}"
            )
        else:
            self.stack = TTPStack(
                env, eth_port, stack_costs, name=f"ttp:{self.name}"
            )
        #: destination client name -> live connection/link
        self._links: dict[str, Any] = {}
        self.open_failures = 0
        self.frames_unsent = 0
        books.senders.append(self)

    def endpoints(self) -> list:
        return list(self._links.values())

    def _dead(self, ep) -> bool:
        return getattr(ep, "aborted", False) or ep.state in ("reset", "closed")

    def _reap(self, dest: str, ep) -> None:
        """Collect a dead link's lost-record account and retire it."""
        if isinstance(ep, TTPLink):
            self.books.lost_ids.update(ep.lost_record_ids)
        else:
            self.books.lost_ids.update(getattr(ep, "lost_record_ids", ()))
        # whatever was still buffered on either side of a dead link is gone
        self.books.lost_ids.update(_endpoint_inflight(ep) & self.books.sent_ids)
        if self._links.get(dest) is ep:
            del self._links[dest]

    def _open(self, dest: str) -> Generator:
        if self.transport == "tcp":
            conn = yield from self.stack.connect(dest, MEDIA_PORT, src_port=MEDIA_PORT)
            return conn
        link = yield from self.stack.open(dest, MEDIA_PORT, src_port=MEDIA_PORT)
        return link

    def send_media(self, desc, dest: str) -> Generator:
        """Process: one frame descriptor as one reliable record to *dest*.

        The first frame per destination pays the open handshake; a dead
        link (aborted after max retries) is reaped — its records move to
        the lost account — and reopened on the next frame."""
        ep = self._links.get(dest)
        if ep is not None and self._dead(ep):
            self._reap(dest, ep)
            ep = None
        if ep is None:
            try:
                ep = yield from self._open(dest)
            except _TRANSPORT_ERRORS:
                self.open_failures += 1
                self.frames_unsent += 1
                return
            self._links[dest] = ep
        wire_id = next(_wire_ids)
        try:
            ep.send(
                desc.size_bytes,
                data=(desc.stream_id, desc.frame.seqno),
                record_id=wire_id,
            )
        except _TRANSPORT_ERRORS:
            self.frames_unsent += 1
            if self._dead(ep):
                self._reap(dest, ep)
            return
        self.books.sent_ids.add(wire_id)

    def __repr__(self) -> str:
        return f"<MediaWireSender {self.name!r} {self.transport} links={len(self._links)}>"


class MediaClientEndpoint:
    """The client side: accept media links, deliver records to the player."""

    def __init__(
        self,
        env,
        client,
        transport: str,
        books: MediaTransportBooks,
        stack_costs: StackCosts = CLIENT_STACK,
        port: int = MEDIA_PORT,
    ) -> None:
        self.env = env
        self.client = client
        self.transport = resolve_transport(transport)
        if self.transport == "udp":
            raise ValueError("the raw UDP path does not use a client endpoint")
        self.books = books
        if self.transport == "tcp":
            self.stack = TCPStack(
                env, client.port, stack_costs, name=f"tcp:{client.name}"
            )
        else:
            self.stack = TTPStack(
                env, client.port, stack_costs, name=f"ttp:{client.name}"
            )
        self.accept = self.stack.listen(port)
        self.links: list = []
        env.process(self._acceptor(), name=f"media-ep:{client.name}")
        books.endpoints.append(self)

    def _acceptor(self) -> Generator:
        while True:
            link = yield self.accept.get()
            self.links.append(link)
            self.env.process(
                self._reader(link), name=f"media-ep:{self.client.name}.reader"
            )

    def _reader(self, link) -> Generator:
        while True:
            rec = yield link.recv()
            rid = rec["record_id"]
            if rid in self.books.delivered_ids:
                # the transport already deduplicates; this guards the
                # at-most-once ledger against any future transport that
                # doesn't
                self.books.duplicate_deliveries += 1
                continue
            self.books.delivered_ids.add(rid)
            stream_id, seqno = rec["data"]
            # receive-side stack cost was charged per packet by the
            # transport demux; delivery itself is free
            self.client.deliver(
                NetFrame(
                    payload_bytes=rec["nbytes"],
                    stream_id=stream_id,
                    seqno=seqno,
                )
            )

    def __repr__(self) -> str:
        return (
            f"<MediaClientEndpoint {self.client.name!r} {self.transport} "
            f"links={len(self.links)}>"
        )
