"""Coordinator protocol: causality guards and executor equivalence."""

import json

import pytest

from repro.pdes.coordinator import (
    CausalityError,
    Coordinator,
    run_partitioned,
)
from repro.pdes.partition import PartitionSpec

from tests.pdes.toys import DENSE_OPS_A, DENSE_OPS_B, TOY_LOOKAHEAD_US


def island_spec(index, peer, ops):
    return PartitionSpec(
        index=index,
        name=f"island{index}",
        builder="tests.pdes.toys:build_island",
        lookahead_us=TOY_LOOKAHEAD_US,
        config={"peer": peer, "ops": ops},
    )


def canonical_wo_timing(outcome: dict) -> str:
    """The digest-bearing portion of a coordinator result, as bytes.

    ``timing`` is measurement telemetry and ``stats.workers`` names the
    executor that ran — both are digest-exempt by design (they land in
    footers, never in rows/series).
    """
    trimmed = {k: v for k, v in outcome.items() if k != "timing"}
    trimmed["stats"] = {
        k: v for k, v in outcome["stats"].items() if k != "workers"
    }
    return json.dumps(trimmed, sort_keys=True)


# -- construction guards ------------------------------------------------------


def test_coordinator_rejects_empty_spec_list():
    with pytest.raises(ValueError, match="at least one partition spec"):
        Coordinator([], until=10.0)


def test_coordinator_rejects_duplicate_partition_indices():
    a = island_spec(0, 1, [])
    b = island_spec(0, 1, [])
    with pytest.raises(ValueError, match="duplicate partition indices"):
        Coordinator([a, b], until=10.0)


# -- causality guards ---------------------------------------------------------


def test_unsound_eot_promise_raises_causality_error():
    liar = PartitionSpec(
        index=0, name="liar", builder="tests.pdes.toys:build_liar",
        lookahead_us=TOY_LOOKAHEAD_US, config={"peer": 1},
    )
    victim = PartitionSpec(
        index=1, name="victim", builder="tests.pdes.toys:build_silent",
        lookahead_us=TOY_LOOKAHEAD_US,
    )
    with pytest.raises(CausalityError, match="EOT promise"):
        run_partitioned([liar, victim], until=1_000.0)


def test_message_to_unknown_partition_names_valid_indices():
    # island 0 addresses partition 99, which no spec declares
    lone = island_spec(0, 99, [["succeed", 10.0, 0]])
    other = island_spec(1, 0, [])
    with pytest.raises(ValueError, match=r"unknown partition 99.*\[0, 1\]"):
        run_partitioned([lone, other], until=1_000.0)


# -- executor equivalence -----------------------------------------------------


def dense_islands():
    return [island_spec(0, 1, DENSE_OPS_A), island_spec(1, 0, DENSE_OPS_B)]


def test_toy_islands_serial_run_is_deterministic():
    ops_a = [["timeout", 0.0, 0], ["succeed", 5.0, 2], ["interrupt", 12.5, 0]]
    ops_b = [["succeed", 5.0, 0], ["timeout", 40.0, 1]]
    specs = [island_spec(0, 1, ops_a), island_spec(1, 0, ops_b)]
    first = run_partitioned(specs, until=20_000.0)
    second = run_partitioned(specs, until=20_000.0)
    assert canonical_wo_timing(first) == canonical_wo_timing(second)
    assert first["stats"]["messages"] >= 3  # pings both ways + pong replies


def test_process_executor_matches_serial_byte_for_byte():
    serial = run_partitioned(dense_islands(), until=20_000.0, workers=None)
    procs = run_partitioned(dense_islands(), until=20_000.0, workers=2)
    assert canonical_wo_timing(serial) == canonical_wo_timing(procs)
    assert serial["stats"]["workers"] == 0
    assert procs["stats"]["workers"] == 2
    # the window schedule itself is a pure function of the specs
    assert serial["stats"]["bounds"] == procs["stats"]["bounds"]
    assert len(serial["stats"]["bounds"]) > 1


def test_worker_count_is_clamped_to_partition_count():
    # 2 island partitions on 8 requested workers -> 2 spawned
    outcome = run_partitioned(dense_islands(), until=20_000.0, workers=8)
    assert outcome["stats"]["workers"] == 2


def test_pdescluster_process_executor_matches_serial(tmp_path):
    from repro.pdes.cluster import run_pdescluster

    serial = run_pdescluster(2_000_000.0, seed=42, n_nodes=2, workers=None)
    procs = run_pdescluster(2_000_000.0, seed=42, n_nodes=2, workers=2)
    assert canonical_wo_timing(serial) == canonical_wo_timing(procs)


def test_timing_block_is_present_but_excluded_from_canonical():
    outcome = run_partitioned(dense_islands(), until=20_000.0, workers=2)
    timing = outcome["timing"]
    assert timing["wall_s"] > 0.0
    assert timing["startup_s"] > 0.0
    assert set(timing["worker_cpu_s"]) == set(timing["worker_build_cpu_s"])
    assert "timing" not in canonical_wo_timing(outcome)
