"""PDES-lite: partitioned discrete-event execution inside a single run.

The sweep (:func:`repro.experiments.golden.run_cells`) parallelizes
*across* runs; this package parallelizes *within* one. It exploits the
structure the hardware model already encodes: cluster nodes interact
only through the SAN, whose **minimum** crossing latency
(:meth:`repro.server.cluster.Cluster.min_cross_latency_us`) is a
conservative lookahead, so a coordinator can advance every node
partition through synchronized time windows and deliver cross-partition
interactions as timestamped messages, with no rollback and no
speculation.

Layers:

* :mod:`repro.pdes.partition` — :class:`PartitionSpec`,
  :class:`PartitionHarness`, :class:`CrossMessage`.
* :mod:`repro.pdes.coordinator` — the window protocol plus the serial
  reference executor and the multi-process executor (persistent spawn
  workers, canonical-dict IPC, error envelopes).
* :mod:`repro.pdes.cluster` — the ``pdescluster`` experiment: a
  front-door partition plus N node partitions coupled by admission
  waves across the SAN seam.

The correctness oracle is the same one every kernel optimisation here
answers to: golden digests. A partitioned run must produce *the byte-
identical result* of the serial run — for every worker count.
"""

from .cluster import pdescluster_specs, run_pdescluster
from .coordinator import (
    CausalityError,
    Coordinator,
    ProcessExecutor,
    SerialExecutor,
    WorkerError,
    run_partitioned,
)
from .partition import CrossMessage, PartitionHarness, PartitionSpec

__all__ = [
    "CrossMessage",
    "PartitionHarness",
    "PartitionSpec",
    "CausalityError",
    "WorkerError",
    "Coordinator",
    "SerialExecutor",
    "ProcessExecutor",
    "run_partitioned",
    "pdescluster_specs",
    "run_pdescluster",
]
