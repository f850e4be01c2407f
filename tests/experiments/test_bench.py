"""Partition bench logic, CLI surface and checked-in report.

The timed path is exercised by CI's ``gates`` job (``bench --quick
--partitions 2``); here we pin the critical-path arithmetic, that the
verdict is the measured speedup, which options the CLI accepts, and the
shape of the report it writes.
"""

import json

import pytest

from repro.experiments.bench import (
    DEFAULT_OUT,
    PARTITION_TARGET_SPEEDUP,
    critical_path_seconds,
    main,
    run_partition_bench,
    usable_cores,
)


class TestBenchConstants:
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
        assert section["cores"] == usable_cores()

    def test_report_holds_only_the_partitions_section(self, tmp_path):
        """The bench replaces the report rather than merging into it, so
        sections from an older report cannot linger next to new timings."""
        out = tmp_path / "b.json"
        out.write_text(json.dumps({"workloads": {}}))
        section = run_partition_bench(1, quick=True, n_nodes=1, out_path=out)
        assert json.loads(out.read_text()) == {"partitions": section}


class TestCli:
    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--partitions", "1", "--reps", "3"],
            ["--partitions", "1", "--jobs", "2"],
            ["--partitions", "1", "--profile"],
        ],
        ids=["no-partitions", "reps", "jobs", "profile"],
    )
    def test_rejects_all_but_the_partition_bench(self, tmp_path, extra):
        argv = ["--quick", "--nodes", "1", "--out", str(tmp_path / "b.json")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + extra)
        assert exit_info.value.code == 2
        assert not (tmp_path / "b.json").exists()


def test_checked_in_report_is_one_partitions_section():
    report = json.loads(DEFAULT_OUT.read_text())
    assert set(report) == {"partitions"}
    section = report["partitions"]
    assert section["identical"] is True
    assert section["target_met"] == (
        section["speedup_measured"] >= section["target_speedup"]
    )
