"""The transport comparison: offload vs host over udp / tcp / ttp.

Beyond the paper: the prototype wires media frames onto the switch as raw
datagrams (the modeled I2O board-resident UDP). This experiment replays
the Figure 7/9 loading cell ("60%" web load, both the host and the NI
configuration) over each media transport —

* ``udp``  — the historical raw path, byte-for-byte the shipped runs,
* ``tcp``  — the go-back-N TCP of :mod:`repro.net.tcp`,
* ``ttp``  — the TTPoE-style reliable L2 transport of
  :mod:`repro.net.ttp` (tagged 3-way open, NACK-driven go-back-N,
  NOC-style credit flow; see ``docs/ttp-spec.md``)

— and tabulates per-stream settled bandwidth, delivered frames, the
NI/host delivery ratio per transport, and (for the reliable transports)
the retransmission and zero-leak ledger accounting.

Runs are deterministic given a seed: the whole table is replayed
byte-identically by ``python -m repro.experiments transport --seed 42``
(CI's ``determinism`` job diffs a double run).
"""

from __future__ import annotations

from typing import Optional

from repro.net.transport import VALID_TRANSPORTS, resolve_transport

from .calibration import SIM_DURATION_US
from .figures import LoadedRun, run_loading_experiment
from .report import ExperimentResult

__all__ = ["transport", "TRANSPORT_LOAD_LEVEL"]

#: the loading cell the comparison runs at (the paper's heavy web load)
TRANSPORT_LOAD_LEVEL = "60%"


def _delivered_frames(run: LoadedRun) -> int:
    return sum(c.total_frames for c in run.service.clients.values())


def transport(
    duration_us: float = SIM_DURATION_US,
    seed: int = 42,
    transports: Optional[list[str]] = None,
) -> ExperimentResult:
    """Offload-vs-host comparison across the media transports."""
    names = (
        [resolve_transport(t) for t in transports]
        if transports is not None
        else list(VALID_TRANSPORTS)
    )
    result = ExperimentResult(
        exp_id="Transport",
        title=(
            f"Media transport comparison at {TRANSPORT_LOAD_LEVEL} web load "
            f"(seed {seed})"
        ),
    )
    for tname in names:
        runs: dict[str, LoadedRun] = {}
        for kind in ("host", "ni"):
            run = run_loading_experiment(
                kind,
                TRANSPORT_LOAD_LEVEL,
                duration_us=duration_us,
                seed=seed,
                transport=tname,
            )
            runs[kind] = run
            svc = run.service
            for sid in sorted(svc.engine.scheduler.queues):
                result.add_row(
                    f"{tname}/{kind}: {sid} settled bandwidth",
                    run.settled_bandwidth(sid),
                    unit="bps",
                )
            result.add_row(
                f"{tname}/{kind}: frames delivered",
                float(_delivered_frames(run)),
            )
            if svc.books is not None:
                for label, value, note in svc.books.rows():
                    result.add_row(f"{tname}/{kind}: {label}", value, note=note)
        host_frames = _delivered_frames(runs["host"])
        ni_frames = _delivered_frames(runs["ni"])
        result.add_row(
            f"{tname}: NI/host delivery ratio",
            ni_frames / host_frames if host_frames else 0.0,
            note="the paper's offload advantage, per transport",
        )
    result.notes.append(
        "udp is the shipped raw-frame path; tcp/ttp carry each frame as "
        "one reliable record between the serving port and its client"
    )
    result.notes.append(
        "transport stacks charge their own per-packet protocol costs on "
        "top of the service's transmit-side stack charge"
    )
    result.notes.append(
        "deterministic: identical seed => identical rows across double runs"
    )
    return result
