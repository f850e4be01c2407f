"""Bench harness logic that runs without timing anything.

The timed paths (fresh-interpreter children, full digest verification)
are exercised by the CI bench-smoke job; here we pin the pure decision
logic — above all that an incomparable baseline can never yield a
speedup figure.
"""

import pytest

from repro.experiments.bench import (
    HOST_FIELDS,
    PARTITION_TARGET_SPEEDUP,
    WORKLOADS,
    baseline_comparability,
    critical_path_seconds,
    host_fingerprint,
    run_partition_bench,
)

#: a fully recorded host: every field the comparability check reads
HOST = {
    "python": "3.11.7",
    "machine": "x86_64",
    "cpu_model": "Intel Xeon Processor",
    "nproc": 2,
}


class TestBaselineComparability:
    def test_matching_environment_is_comparable(self):
        ok, reason = baseline_comparability(HOST, HOST)
        assert ok
        assert reason == ""

    def test_python_mismatch_is_incomparable(self):
        ok, reason = baseline_comparability(HOST, {**HOST, "python": "3.12.1"})
        assert not ok
        assert "python" in reason
        assert "3.11.7" in reason and "3.12.1" in reason

    def test_machine_mismatch_is_incomparable(self):
        ok, reason = baseline_comparability(HOST, {**HOST, "machine": "aarch64"})
        assert not ok
        assert "machine" in reason

    def test_both_mismatched_names_both_fields(self):
        current = {**HOST, "python": "3.12.1", "machine": "aarch64"}
        ok, reason = baseline_comparability(HOST, current)
        assert not ok
        assert "python" in reason and "machine" in reason

    def test_cpu_model_mismatch_is_incomparable(self):
        current = {**HOST, "cpu_model": "AMD EPYC 7B13"}
        ok, reason = baseline_comparability(HOST, current)
        assert not ok
        assert reason == "cpu_model 'Intel Xeon Processor' != 'AMD EPYC 7B13'"

    def test_nproc_mismatch_is_incomparable(self):
        ok, reason = baseline_comparability(HOST, {**HOST, "nproc": 8})
        assert not ok
        assert reason == "nproc 2 != 8"

    @pytest.mark.parametrize("field", ["cpu_model", "nproc"])
    def test_unrecorded_host_field_is_incomparable(self, field):
        """A baseline that predates the field cannot vouch for the host."""
        base = {k: v for k, v in HOST.items() if k != field}
        ok, reason = baseline_comparability(base, HOST)
        assert not ok
        assert reason == f"{field} not recorded in baseline"

    def test_missing_baseline_fields_are_incomparable(self):
        """A baseline captured before provenance fields existed must not
        silently compare equal."""
        ok, reason = baseline_comparability({}, HOST)
        assert not ok
        assert all(field in reason for field in HOST_FIELDS)

    def test_no_baseline(self):
        ok, reason = baseline_comparability(None)
        assert not ok
        assert reason == "no baseline"

    def test_host_fingerprint_records_every_compared_field(self):
        host = host_fingerprint()
        assert set(HOST_FIELDS) <= set(host)
        assert isinstance(host["nproc"], int) and host["nproc"] >= 1
        assert host["cpu_model"]
        ok, reason = baseline_comparability(host, host)
        assert ok, reason

    def test_checked_in_baseline_has_provenance_fields(self):
        import json

        from repro.experiments.bench import BASELINE_PATH

        baseline = json.loads(BASELINE_PATH.read_text())
        assert "python" in baseline and "machine" in baseline


class TestBenchConstants:
    def test_headline_is_a_workload(self):
        from repro.experiments.bench import HEADLINE

        assert HEADLINE in WORKLOADS

    def test_partition_speedup_target_is_pinned(self):
        assert PARTITION_TARGET_SPEEDUP == 1.3


class TestCriticalPath:
    def test_folds_overlap_and_recovers_coordinator_share(self):
        timing = {
            "wall_s": 10.0,
            "startup_s": 2.0,
            "worker_build_cpu_s": {0: 1.0, 1: 3.0},
            "worker_cpu_s": {0: 2.0, 1: 4.0},
        }
        critical, coord = critical_path_seconds(timing)
        # coordinator share: wall - startup - SUM(window cpu) = 10 - 2 - 6
        assert coord == pytest.approx(2.0)
        # critical path: MAX bring-up + MAX window + coordinator = 3 + 4 + 2
        assert critical == pytest.approx(9.0)

    def test_clamps_negative_coordinator_share(self):
        # workers genuinely overlapped: wall < startup + sum(cpu)
        timing = {
            "wall_s": 4.0,
            "startup_s": 1.0,
            "worker_build_cpu_s": {0: 0.5, 1: 0.5},
            "worker_cpu_s": {0: 2.0, 1: 2.0},
        }
        critical, coord = critical_path_seconds(timing)
        assert coord == 0.0
        assert critical == pytest.approx(0.5 + 2.0)

    def test_degrades_to_serial_shape_without_worker_data(self):
        # a serial run reports no per-worker CPU: critical path == wall
        timing = {"wall_s": 7.0, "startup_s": 0.0}
        critical, coord = critical_path_seconds(timing)
        assert coord == pytest.approx(7.0)
        assert critical == pytest.approx(7.0)


class TestPartitionBench:
    @pytest.mark.parametrize("bad", [0, -2])
    def test_rejects_non_positive_worker_counts(self, bad):
        with pytest.raises(ValueError, match="positive worker count"):
            run_partition_bench(bad)

    def test_verdict_is_the_measured_speedup_not_the_model(
        self, tmp_path, monkeypatch
    ):
        """A modelled critical path far below the wall must not turn a
        measured slowdown into "target met"."""
        monkeypatch.setattr(
            "repro.experiments.bench.critical_path_seconds",
            lambda timing: (1e-6, 0.0),
        )
        section = run_partition_bench(
            1, quick=True, n_nodes=1, out_path=tmp_path / "b.json"
        )
        assert section["speedup_critical_path"] >= PARTITION_TARGET_SPEEDUP
        assert section["target_met"] is False
        assert section["target_met"] == (
            section["speedup_measured"] >= section["target_speedup"]
        )
        assert section["cores"] == host_fingerprint()["nproc"]
