"""I2O-style message passing between host and NI.

The I2O specification "allows portable device driver development by
defining a message-passing protocol between the host and peer I/O devices".
The DVCM's host↔NI control path rides on it: the host posts request
messages into the card's inbound queue, the NI runtime posts replies to the
outbound queue.

Costs: posting a message is a handful of PIO word writes across the PCI
segment (the message frame header), plus a DMA for any bulk payload. Both
are charged through the :mod:`repro.hw.pci` primitives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.hw.pci import PCISegment
from repro.sim import Environment, Event, Store

__all__ = ["I2OMessage", "I2OReply", "MessageQueuePair", "HEADER_WORDS"]

#: 32-bit words in an I2O message frame header (posted via PIO)
HEADER_WORDS = 8

_msg_ids = itertools.count(1)


@dataclass
class I2OMessage:
    """A request message frame."""

    function: str
    payload: dict[str, Any] = field(default_factory=dict)
    #: bulk payload size moved by DMA alongside the message (0 = none)
    bulk_bytes: int = 0
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    posted_at: float = 0.0


@dataclass
class I2OReply:
    """A reply frame for a previously posted message."""

    msg_id: int
    status: str = "ok"
    result: Any = None


class MessageQueuePair:
    """The inbound/outbound circular message queues of one I2O card."""

    def __init__(self, env: Environment, segment: PCISegment, name: str = "i2o") -> None:
        self.env = env
        self.segment = segment
        self.name = name
        #: trace track of the messages posted to this card, built once
        self.track = f"card:{name}"
        self.inbound: Store = Store(env, name=f"{name}.inbound")
        self.outbound: Store = Store(env, name=f"{name}.outbound")
        self.posted = 0
        self.replied = 0
        self.dropped = 0
        self.duplicated = 0

    # -- host side --------------------------------------------------------------
    def post(self, message: I2OMessage) -> Generator[Event, None, None]:
        """Process (host side): post *message* into the inbound queue.

        Charges the PIO header writes and the bulk DMA (if any) on the PCI
        segment before the message becomes visible to the NI.
        """
        message.posted_at = self.env.now
        obs = self.env.obs
        sp = (
            obs.begin(
                "i2o",
                track=self.track,
                fn=message.function,
                msg_id=message.msg_id,
            )
            if obs is not None
            else None
        )
        for _ in range(HEADER_WORDS):
            yield from self.segment.pio_write()
        if message.bulk_bytes > 0:
            yield from self.segment.transfer(message.bulk_bytes)
        self.posted += 1
        if obs is not None:
            obs.end(sp)
            obs.count("i2o.posted", queue=self.name)
        plane = self.env.fault_plane
        if plane is not None:
            if plane.message_dropped(self.name):
                # the frame vanished on the bus: PCI cost paid, nothing
                # arrives — callers recover via the VCMInterface retry path
                self.dropped += 1
                if obs is not None:
                    obs.count("i2o.dropped", queue=self.name)
                return
            if plane.message_duplicated(self.name):
                # bridge retry: the same frame (same msg_id) lands twice;
                # the runtime's at-most-once dedup executes it only once
                self.duplicated += 1
                yield self.inbound.put(message)
        yield self.inbound.put(message)

    def wait_reply(self, msg_id: int) -> Event:
        """Event (host side): the reply frame for *msg_id*."""
        return self.outbound.get(filter=lambda r: r.msg_id == msg_id)

    # -- NI side ------------------------------------------------------------------
    def receive(self) -> Event:
        """Event (NI side): next posted message."""
        return self.inbound.get()

    def reply(self, reply: I2OReply) -> Generator[Event, None, None]:
        """Process (NI side): post a reply to the outbound queue."""
        # Outbound frame is read by the host with PIO; charge a short burst.
        for _ in range(HEADER_WORDS // 2):
            yield from self.segment.pio_read()
        self.replied += 1
        obs = self.env.obs
        if obs is not None:
            obs.count("i2o.replied", queue=self.name)
        plane = self.env.fault_plane
        if plane is not None:
            if plane.message_dropped(self.name):
                # reply frame lost on the bus: the host retries the request
                # (calls) or the watchdog misses a beat (heartbeats)
                self.dropped += 1
                if obs is not None:
                    obs.count("i2o.dropped", queue=self.name)
                return
            if plane.message_duplicated(self.name):
                self.duplicated += 1
                yield self.outbound.put(reply)
        yield self.outbound.put(reply)

    def __repr__(self) -> str:
        return (
            f"<MessageQueuePair {self.name!r} posted={self.posted} "
            f"replied={self.replied}>"
        )
