"""httperf-like web load generator.

"The web server is loaded using `httperf` (version 0.6) from remote
Linux-based clients. Flexible specification of load from remote clients is
allowed — web pages may be requested at a certain rate by a number of
connections with a user-specified ceiling on the total number of calls."

:class:`Httperf` reproduces that parameterization: ``connections``
concurrent open-loop connections, each issuing calls at ``rate_per_s``
(exponential interarrivals), stopping after ``total_calls``. Open-loop
M/M/k sizing, ``rate = target · k / E[service]``, turns a target host CPU
utilization into a rate; the figure runners size every entry of Figure 6's
45 % and 60 % load profiles that way.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, Optional

from repro.sim import Environment, RandomStreams, TallyStats

from .apache import ApacheServer, WebRequest

__all__ = ["Httperf"]


class Httperf:
    """Open-loop request generator against an :class:`ApacheServer`."""

    def __init__(
        self,
        env: Environment,
        server: ApacheServer,
        rate_per_s: float,
        connections: int = 4,
        total_calls: int = 10_000,
        start_at_us: float = 0.0,
        stop_at_us: Optional[float] = None,
        rate_profile: Optional[list[tuple[float, float]]] = None,
        rng: Optional[RandomStreams] = None,
    ) -> None:
        if rate_per_s <= 0 or connections < 1:
            raise ValueError("rate and connections must be positive")
        if rate_profile is not None:
            if not rate_profile or any(r < 0 for _t, r in rate_profile):
                raise ValueError("rate profile must be non-empty with rates >= 0")
            if sorted(t for t, _r in rate_profile) != [t for t, _r in rate_profile]:
                raise ValueError("rate profile times must be sorted")
        self.env = env
        self.server = server
        self.rate_per_s = rate_per_s
        #: optional piecewise-constant schedule [(start_us, rate_per_s), ...]
        #: of absolute aggregate rates; rate_per_s is the fallback before
        #: the first entry. Used to reproduce Figure 6's ramping
        #: utilization profiles (load applied mid-run, bursting past the
        #: average level, then released).
        self.rate_profile = rate_profile
        self.connections = connections
        self.total_calls = total_calls
        self.start_at_us = start_at_us
        self.stop_at_us = stop_at_us
        self.calls_issued = 0
        self.calls_completed = 0
        self.response_time_us = TallyStats("httperf.response")
        streams = rng if rng is not None else RandomStreams(seed=0)
        self._gens = [streams.stream(f"httperf{i}") for i in range(connections)]
        for i in range(connections):
            env.process(self._connection(i), name=f"httperf.conn{i}")

    def _connection(self, idx: int) -> Generator:
        env = self.env
        gen = self._gens[idx]
        timeout = env.timeout
        exponential = gen.exponential
        if self.start_at_us > 0:
            yield timeout(self.start_at_us)
        # Piecewise-constant profile, applied with a monotone pointer: the
        # connection's clock only moves forward, so each entry is crossed
        # once instead of rescanning the schedule per call.
        profile = self.rate_profile
        next_entry = 0
        rate = self.rate_per_s
        stop_at = self.stop_at_us
        gap_scale = 1_000_000.0 * self.connections
        while self.calls_issued < self.total_calls:
            if stop_at is not None and env.now >= stop_at:
                return
            if profile is not None:
                now = env.now
                while next_entry < len(profile) and now >= profile[next_entry][0]:
                    rate = profile[next_entry][1]
                    next_entry += 1
            if rate <= 0:
                # load released: idle until the profile may change
                yield timeout(500_000.0)
                continue
            yield timeout(float(exponential(gap_scale / rate)))
            if self.stop_at_us is not None and env.now >= self.stop_at_us:
                return
            if self.calls_issued >= self.total_calls:
                return  # another connection used the last call while we slept
            self.calls_issued += 1
            request = WebRequest(
                submitted_at=env.now,
                service_us=self.server.draw_service_us(gen),
                done=env.event(),
            )
            self.server.submit(request)
            # Completion accounting rides the done event's own callback slot
            # rather than a per-request collector process: same processing
            # instant, two fewer kernel events per call.
            request.done.callbacks.append(partial(self._collect, request))

    def _collect(self, request: WebRequest, _done_event) -> None:
        self.calls_completed += 1
        self.response_time_us.add(self.env.now - request.submitted_at)
