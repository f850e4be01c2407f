"""Host-side failure detector for one scheduler card.

A timeout-accrual watchdog in the tradition of the phi-accrual detector:
beats feed a running estimate of the inter-beat gap, :meth:`Watchdog.phi`
exposes the continuous suspicion level, and the hard declaration rule is
K consecutive missed beats plus a grace margin (so a beat that lands
*exactly* on the deadline still counts as alive — the grace absorbs the
jitter that I2O queueing puts on an otherwise periodic beacon).

On suspicion the watchdog does not declare immediately: it issues a PCI
status probe (:meth:`repro.hw.nic.I960RDCard.status_probe`). PIO reads of
a wedged board return junk rather than hanging, so the probe cleanly
separates the two silent-card causes:

* probe says **dead** → the card crashed: declare ``dead`` and fire the
  failover callbacks (this is terminal — a reset card must rejoin empty);
* probe says **alive** → the card runs but its message path is lossy:
  classify ``partitioned``, keep watching, and recover to ``alive`` the
  moment a beat arrives. No migration — moving streams off a healthy
  card would double-serve them once the path heals.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

from repro.hw.nic import I960RDCard
from repro.sim import Environment

__all__ = ["Watchdog"]

#: a probe is any zero-argument process factory returning True (alive)
#: or False (dead) — the default is the card's own PCI status probe
ProbeFactory = Callable[[], Generator]

#: consecutive missed beats before the card is suspected
DEFAULT_K_MISSED = 3

#: fraction of the beat interval granted as grace beyond the Kth miss
GRACE_FRACTION = 0.2


class Watchdog:
    """K-missed-beat failure detector with probe-based classification."""

    def __init__(
        self,
        env: Environment,
        card: I960RDCard,
        interval_us: float,
        k_missed: int = DEFAULT_K_MISSED,
        grace_us: Optional[float] = None,
        name: Optional[str] = None,
        probe: Optional[ProbeFactory] = None,
    ) -> None:
        if interval_us <= 0:
            raise ValueError("beat interval must be positive")
        if k_missed < 1:
            raise ValueError("need at least one missed beat to suspect")
        self.env = env
        self.card = card
        # The classification probe. The in-chassis default is the card's
        # PCI status probe; a cluster front door supervising a *remote*
        # node passes a probe that crosses the SAN first (the health sweep
        # of repro.cluster), so crash-vs-partition classification still
        # works where no PIO path to the board exists.
        self._probe: ProbeFactory = probe if probe is not None else card.status_probe
        self.interval_us = interval_us
        self.k_missed = k_missed
        self.grace_us = GRACE_FRACTION * interval_us if grace_us is None else grace_us
        self.name = name or f"watchdog:{card.name}"
        #: "alive" | "partitioned" | "dead" (dead is terminal)
        self.state = "alive"
        self.last_beat_us = env.now
        self.beats = 0
        self.suspicions = 0
        self.partitions = 0
        self.recoveries = 0
        self.declared_dead_at_us: Optional[float] = None
        self.on_dead: list[Callable[[], None]] = []
        self.on_partition: list[Callable[[], None]] = []
        self.on_recovered: list[Callable[[], None]] = []
        self._mean_gap_us = interval_us
        self._proc = env.process(self._monitor(), name=self.name)

    # -- beat intake (called by the heartbeat pump) -------------------------
    def record_beat(self) -> None:
        gap = self.env.now - self.last_beat_us
        if self.beats > 0:
            # EWMA of observed gaps — feeds phi(), tracks beacon jitter
            self._mean_gap_us += 0.2 * (gap - self._mean_gap_us)
        self.last_beat_us = self.env.now
        self.beats += 1
        obs = self.env.obs
        if obs is not None:
            obs.count("watchdog.beats", card=self.card.name)
        if self.state == "partitioned":
            self.state = "alive"
            self.recoveries += 1
            if obs is not None:
                obs.count("watchdog.recoveries", card=self.card.name)
                obs.instant(
                    "watchdog_recovered",
                    track=self.card.track,
                    card=self.card.name,
                )
            for callback in list(self.on_recovered):
                callback()

    # -- suspicion ----------------------------------------------------------
    def phi(self) -> float:
        """Continuous suspicion level: elapsed silence in decades of the
        mean gap (phi ≥ k ⇒ the chance the card is alive is < 10^-k under
        the exponential-gap model)."""
        elapsed = self.env.now - self.last_beat_us
        if elapsed <= 0:
            return 0.0
        return elapsed / (self._mean_gap_us * math.log(10.0))

    @property
    def deadline_us(self) -> float:
        """Instant at which the current silence becomes a suspicion."""
        return self.last_beat_us + self.k_missed * self.interval_us + self.grace_us

    # -- the monitor process ------------------------------------------------
    def _monitor(self) -> Generator:
        while True:
            now = self.env.now
            if now < self.deadline_us:
                # a beat arriving while we sleep pushes the deadline out;
                # we re-read it on wake and go back to sleep
                yield self.env.timeout(self.deadline_us - now)
                continue
            self.suspicions += 1
            obs = self.env.obs
            if obs is not None:
                obs.count("watchdog.suspicions", card=self.card.name)
                obs.instant(
                    "watchdog_probe",
                    track=self.card.track,
                    card=self.card.name,
                    phi=round(self.phi(), 3),
                )
            alive = yield from self._probe()
            if not alive:
                self.state = "dead"
                self.declared_dead_at_us = self.env.now
                if obs is not None:
                    obs.count("watchdog.deaths_declared", card=self.card.name)
                    obs.instant(
                        "watchdog_dead",
                        track=self.card.track,
                        card=self.card.name,
                        phi=round(self.phi(), 3),
                    )
                for callback in list(self.on_dead):
                    callback()
                return
            if self.state == "alive":
                self.state = "partitioned"
                self.partitions += 1
                if obs is not None:
                    obs.count("watchdog.partitions", card=self.card.name)
                    obs.instant(
                        "watchdog_partition",
                        track=self.card.track,
                        card=self.card.name,
                    )
                for callback in list(self.on_partition):
                    callback()
            # still partitioned: re-probe every interval until a beat gets
            # through (record_beat flips us back to alive) or a crash turns
            # the probe negative
            yield self.env.timeout(self.interval_us)

    def __repr__(self) -> str:
        return f"<Watchdog {self.name!r} state={self.state} beats={self.beats}>"
