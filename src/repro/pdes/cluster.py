"""Per-node partitions across the SAN seam: the cluster-scale workload.

The scale-out shape the ROADMAP's item 4 calls for: one front-door
partition plus N node partitions, each node a full Figure-9 NI streaming
cell (server node, switch, NI scheduler card, MPEG clients, and its own
web load) running in its own kernel. The only coupling is control
traffic across the SAN seam — admission waves out, acks and periodic
bandwidth reports back — and every crossing pays at least the SAN's
declared minimum (:meth:`repro.server.cluster.Cluster.min_cross_latency_us`),
so the seam lookahead bounds the coordinator's windows.

Window economics: the front door only sends at its scheduled wave times
and each node only *initiates* sends at its scheduled report times, so
both promise far past the classic next-event-plus-lookahead bound. A
100-simulated-second run closes in a few dozen windows instead of the
~10^5 a raw 560 µs lookahead would force; the reactive acks are covered
by the coordinator's pending-message cap. That is what makes the
partitioned run *faster* than serial, not just equal to it.

The experiment wrapper that turns the merged fragments into an
:class:`~repro.experiments.report.ExperimentResult` lives in
:mod:`repro.experiments.pdescluster`.
"""

from __future__ import annotations

from typing import Optional

from .partition import CrossMessage, PartitionHarness, PartitionSpec

__all__ = [
    "SAN_LOOKAHEAD_US",
    "FRONTDOOR",
    "REPORT_PERIOD_US",
    "INITIAL_WAVE_US",
    "LATE_WAVE_FRAC",
    "FrontdoorHarness",
    "NodeHarness",
    "build_frontdoor",
    "build_node",
    "pdescluster_specs",
    "run_pdescluster",
]

#: SAN seam lookahead at default model parameters: the I960 NI stack's
#: per-packet encapsulation (550 µs) plus the SAN switch's store-and-
#: forward latency (10 µs). Pinned by a test against
#: ``Cluster.min_cross_latency_us()`` so it cannot drift from the model.
SAN_LOOKAHEAD_US = 560.0

#: partition index of the front door; nodes are 1..N
FRONTDOOR = 0

#: nodes report delivered-byte counters to the front door at this period
REPORT_PERIOD_US = 10_000_000.0

#: first admission wave (0.5 simulated seconds in)
INITIAL_WAVE_US = 500_000.0

#: the late wave lands mid-run, same fraction the cluster experiment uses
LATE_WAVE_FRAC = 0.55

#: per-node web-load levels cycle through this sequence (node 1 takes the
#: first entry), mixing light and heavy partitions like a real cluster
NODE_LEVELS = ("none", "60%", "45%", "none")


class FrontdoorHarness(PartitionHarness):
    """The admission front door: sends waves, collects acks and reports.

    Sends *only* at the wave times fixed in its config, so its EOT
    promise is the next pending wave — windows between waves are bounded
    by the nodes' report schedule, not by the front door.
    """

    def build(self) -> None:
        cfg = self.spec.config
        self.waves: list[dict] = cfg["waves"]
        self._next_wave = 0
        self.admits_sent = 0
        self.acks: list[list] = []  # [stream_id, node, ack_time_us]
        self.last_report: dict[int, dict] = {}
        self.reports_received = 0
        for wave in self.waves:
            self.env.schedule_callback(
                wave["at"] - self.env.now, self._fire_wave, name="frontdoor.wave"
            )

    def _fire_wave(self) -> None:
        wave = self.waves[self._next_wave]
        self._next_wave += 1
        for admit in wave["admits"]:
            payload = dict(admit)
            node = payload.pop("node")
            self.send(node, "admit", payload)
            self.admits_sent += 1

    def eot(self) -> float:
        if self._next_wave >= len(self.waves):
            return float("inf")
        return self.waves[self._next_wave]["at"] + self.lookahead_us

    def on_message(self, msg: CrossMessage) -> None:
        if msg.kind == "ack":
            self.acks.append(
                [msg.payload["stream_id"], msg.src, self.env.now]
            )
        elif msg.kind == "report":
            self.reports_received += 1
            self.last_report[msg.src] = dict(msg.payload)

    def finish(self) -> dict:
        return {
            "admits_sent": self.admits_sent,
            "acks": sorted(self.acks),
            "reports_received": self.reports_received,
            "last_report": {
                str(node): self.last_report[node]
                for node in sorted(self.last_report)
            },
        }


class NodeHarness(PartitionHarness):
    """One cluster node: a full NI streaming cell plus its web load.

    Streams are *not* pre-built — they arrive as ``admit`` messages from
    the front door, exercising mid-run admission across the seam exactly
    like the cluster plane's late wave does within one kernel.
    """

    def build(self) -> None:
        # deferred so importing this module (e.g. to read the seam
        # constants) does not drag the whole experiment stack in
        from repro.core.admission import AdmissionController
        from repro.hw.ethernet import EthernetSwitch
        from repro.metrics import Perfmeter
        from repro.server.node import ServerNode
        from repro.server.streaming import NIStreamingService
        from repro.sim import RandomStreams, S
        from repro.workload import ApacheServer, Httperf

        from repro.experiments.calibration import (
            APACHE_HEAVY_TAIL,
            LOAD_PROFILES,
        )

        cfg = self.spec.config
        self.duration_us = float(cfg["duration_us"])
        self.report_period_us = float(cfg["report_period_us"])
        seed = int(cfg["seed"])
        level = cfg["level"]

        self.node = ServerNode(self.env, n_cpus=1, n_pci_segments=2)
        self.switch = EthernetSwitch(self.env)
        self.service = NIStreamingService(
            self.env,
            self.node,
            self.switch,
            scheduler_segment=0,
            admission=AdmissionController(),
        )
        self.meter = Perfmeter(self.env, self.node.host_os, period_us=1 * S)
        self.streams: list[str] = []

        profile = LOAD_PROFILES[level]
        if profile:
            web = ApacheServer(
                self.env,
                self.node.host_os,
                rng=RandomStreams(seed + 100),
                **APACHE_HEAVY_TAIL,
            )
            capacity = (
                self.node.host_os.n_cpus * 1e6 / web.effective_mean_service_us
            )
            Httperf(
                self.env,
                web,
                rate_per_s=0.001,
                rate_profile=[(t, frac * capacity) for t, frac in profile],
                total_calls=10**9,
                rng=RandomStreams(seed + 200),
            )

        self._next_report = self.report_period_us
        if self._next_report < self.duration_us:
            self.env.schedule_callback(
                self._next_report - self.env.now, self._report, name="node.report"
            )

    def _report(self) -> None:
        frames = sum(
            self.service.reception(sid).frames_received for sid in self.streams
        )
        bytes_ = sum(
            self.service.reception(sid).bytes_received for sid in self.streams
        )
        self.send(
            FRONTDOOR,
            "report",
            {"streams": len(self.streams), "frames": frames, "bytes": bytes_},
        )
        self._next_report += self.report_period_us
        if self._next_report < self.duration_us:
            self.env.schedule_callback(
                self.report_period_us, self._report, name="node.report"
            )
        else:
            self._next_report = float("inf")

    def eot(self) -> float:
        """Promise: this node only *initiates* sends at report times.

        Acks are reactive (sent while processing an inbound admit) and
        are covered by the coordinator's pending-message cap.
        """
        return self._next_report + self.lookahead_us

    def on_message(self, msg: CrossMessage) -> None:
        from repro.core.attributes import StreamSpec
        from repro.experiments.calibration import (
            NI_INJECT_GAP_US,
            PREBUFFER_FRAMES,
            figure_mpeg_file,
        )
        from repro.experiments.figures import STREAM_SERVICE_TIME_US

        p = msg.payload
        sid = p["stream_id"]
        spec = StreamSpec(
            sid,
            period_us=p["period_us"],
            loss_x=p["loss_x"],
            loss_y=p["loss_y"],
        )
        self.service.attach_client(f"client_{sid}")
        self.service.open_stream(
            spec, f"client_{sid}", service_time_us=STREAM_SERVICE_TIME_US
        )
        self.service.start_producer(
            figure_mpeg_file(sid, seed=p["file_seed"], n_frames=p["n_frames"]),
            inject_gap_us=NI_INJECT_GAP_US,
            prebuffer_frames=PREBUFFER_FRAMES,
        )
        self.streams.append(sid)
        self.send(FRONTDOOR, "ack", {"stream_id": sid})

    def finish(self) -> dict:
        per_stream = {}
        for sid in sorted(self.streams):
            rec = self.service.reception(sid)
            per_stream[sid] = {
                "frames_received": rec.frames_received,
                "bytes_received": rec.bytes_received,
                "settled_bps": rec.mean_bandwidth_bps(
                    0.7 * self.duration_us, 0.95 * self.duration_us
                ),
            }
        return {
            "level": self.spec.config["level"],
            "cpu_util_pct": self.meter.average(),
            "streams": per_stream,
        }


def build_frontdoor(spec: PartitionSpec) -> FrontdoorHarness:
    return FrontdoorHarness(spec)


def build_node(spec: PartitionSpec) -> NodeHarness:
    return NodeHarness(spec)


def pdescluster_specs(
    duration_us: float,
    seed: int = 42,
    n_nodes: int = 4,
    lookahead_us: float = SAN_LOOKAHEAD_US,
) -> list[PartitionSpec]:
    """Front door + N node partitions, admission waves fixed up front.

    Two Figure-9-shaped streams per node in the initial wave, one more
    per node in the late wave — the same population shape the cluster
    experiment admits, here crossing a partition seam.
    """
    from repro.experiments.calibration import run_frames

    if n_nodes < 1:
        raise ValueError("pdescluster needs at least one node partition")
    n_frames = run_frames(duration_us)

    def admit(node: int, sid: str, i: int) -> dict:
        return {
            "node": node,
            "stream_id": sid,
            "period_us": 333_333.0,
            "loss_x": 1,
            "loss_y": 2,
            "file_seed": seed + 17 * node + i,
            "n_frames": n_frames,
        }

    waves = [
        {
            "at": INITIAL_WAVE_US,
            "admits": [
                admit(node, f"n{node}-s{j}", j)
                for node in range(1, n_nodes + 1)
                for j in (1, 2)
            ],
        },
        {
            "at": LATE_WAVE_FRAC * duration_us,
            "admits": [
                admit(node, f"n{node}-late", 3) for node in range(1, n_nodes + 1)
            ],
        },
    ]
    specs = [
        PartitionSpec(
            index=FRONTDOOR,
            name="frontdoor",
            builder="repro.pdes.cluster:build_frontdoor",
            lookahead_us=lookahead_us,
            config={"waves": waves},
        )
    ]
    for node in range(1, n_nodes + 1):
        specs.append(
            PartitionSpec(
                index=node,
                name=f"node{node}",
                builder="repro.pdes.cluster:build_node",
                lookahead_us=lookahead_us,
                config={
                    "duration_us": duration_us,
                    "report_period_us": REPORT_PERIOD_US,
                    "seed": seed + 1000 * node,
                    "level": NODE_LEVELS[(node - 1) % len(NODE_LEVELS)],
                },
            )
        )
    return specs


def run_pdescluster(
    duration_us: float,
    seed: int = 42,
    n_nodes: int = 4,
    workers: Optional[int] = None,
) -> dict:
    """Run the cluster workload; returns the coordinator's canonical result."""
    from .coordinator import run_partitioned

    specs = pdescluster_specs(duration_us, seed=seed, n_nodes=n_nodes)
    return run_partitioned(specs, until=duration_us, workers=workers)
