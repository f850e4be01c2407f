#!/usr/bin/env python3
"""A small video-on-demand node: admission, NI scheduling and a trace.

Pulls the library's pieces together the way a downstream user would:

* movies are synthetic MPEG-1 files, each read off the disk of its own
  **producer card** and moved by peer DMA into the scheduler card;
* an **admission controller** gates client requests against the NI
  scheduler's measured per-frame cost;
* admitted streams flow through the **NI-resident DWCS scheduler**;
* a **tracer** on the scheduler explains what happened, per stream.

Run:  python examples/vod_server.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.core import AdmissionController, StreamSpec
from repro.hw import EthernetSwitch
from repro.media import MPEGEncoder
from repro.server import NIStreamingService, ServerNode
from repro.sim import Environment, RandomStreams, S, Tracer


def main() -> None:
    env = Environment()
    node = ServerNode(env, n_cpus=2)
    switch = EthernetSwitch(env)
    service = NIStreamingService(env, node, switch)
    tracer = Tracer(env)
    service.scheduler.tracer = tracer

    # -- the content library: encode two movies ----------------------------
    encoder = MPEGEncoder(bitrate_bps=400_000.0, fps=10.0, rng=RandomStreams(1))
    library = {}
    for title in ("heat", "casablanca"):
        movie = library[title] = encoder.encode(title, n_frames=150)
        print(f"encoded {title!r}: {len(movie)} frames, {movie.size_bytes} bytes on disk")

    # -- admission: per-frame cost ≈ measured Table-2 value ----------------
    admission = AdmissionController(utilization_bound=0.85)
    SERVICE_US = 95.0

    def request_stream(title: str, client: str) -> bool:
        spec = StreamSpec(title, period_us=100_000.0, loss_x=1, loss_y=8)
        decision = admission.admit(spec, SERVICE_US)
        if not decision.admitted:
            print(f"REJECTED {title!r}: {decision.reason}")
            return False
        service.attach_client(client)
        service.open_stream(spec, client)
        # a disk-attached producer card, paced ~2x ahead of 10 fps playout
        service.start_producer(library[title], inject_gap_us=50_000.0)
        print(
            f"admitted {title!r} -> {client} "
            f"(utilization {decision.projected_utilization:.4f})"
        )
        return True

    # -- clients ----------------------------------------------------------------
    request_stream("heat", "den-pc")
    request_stream("casablanca", "kitchen-pc")
    env.run(until=20 * S)

    # -- report --------------------------------------------------------------------
    print()
    for title in ("heat", "casablanca"):
        rec = service.reception(title)
        st = service.scheduler.streams[title]
        print(
            f"{title!r}: {rec.frames_received} frames to the client, "
            f"{rec.mean_bandwidth_bps(5 * S, 20 * S) / 1000:.0f} kbps, "
            f"drops={st.dropped} violations={st.violations}"
        )
    print(f"trace: {tracer.counts()} "
          f"(first decision at t={tracer.events(name='decision')[0].time_us / 1e6:.2f}s)")
    print(f"admission ledger: {admission!r}")


if __name__ == "__main__":
    main()
