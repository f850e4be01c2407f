"""The sweep CLI end to end: artifacts, determinism, failures, flag checks.

Kept cheap: `sens_costs` is the fastest registry experiment, so the
matrix here is 2 seeds of it — enough to exercise the full path
(job build → workers → merge → artifacts → summary line).
"""

import json

import pytest

from repro.experiments import REGISTRY, sweep


def sweep_argv(out, jobs):
    return ["--experiments", "sens_costs", "--seeds", "2", "--jobs", str(jobs),
            "--out", str(out)]


@pytest.fixture(scope="module")
def one_worker(tmp_path_factory):
    """The 2-seed matrix swept once on one worker; its output directory."""
    out = tmp_path_factory.mktemp("sweep-cli") / "one"
    assert sweep.main(sweep_argv(out, jobs=1)) == 0
    return out


def test_cold_run_writes_artifacts_and_summary(one_worker):
    assert (one_worker / "SWEEP_result.txt").exists()
    report = json.loads((one_worker / "SWEEP_report.json").read_text())
    assert report["argv"] == sweep_argv(one_worker, jobs=1)
    assert report["summary"].startswith("sweep: 2 jobs (0 failed) workers=1 wall=")
    assert "speedup-est=" in report["summary"]
    assert [j["status"] for j in report["jobs"]] == ["ran", "ran"]


def test_two_workers_are_byte_identical_to_one(one_worker, tmp_path, capsys):
    assert sweep.main(sweep_argv(tmp_path, jobs=2)) == 0
    assert "workers=2" in capsys.readouterr().out
    assert (tmp_path / "SWEEP_result.txt").read_text() == (
        one_worker / "SWEEP_result.txt"
    ).read_text()


def test_merged_result_carries_ci_and_provenance(one_worker):
    text = (one_worker / "SWEEP_result.txt").read_text()
    assert "mean of 2 seeds, 95% CI" in text
    assert text.count("result digest") == 2  # one provenance note per job
    assert "merged digest: " in text


def test_out_none_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = sweep.main(
        ["--experiments", "sens_costs", "--seeds", "1", "--jobs", "1", "--out", "none"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" not in out
    assert list(tmp_path.iterdir()) == []


def test_failed_cell_is_reported_and_the_rest_merge(tmp_path, capsys, monkeypatch):
    def boom(seed=0):
        raise RuntimeError("boom")

    # one in-process worker, so the patched registry is the one that runs
    monkeypatch.setitem(REGISTRY, "boom", boom)
    rc = sweep.main(
        ["--experiments", "sens_costs,boom", "--seeds", "1", "--jobs", "1",
         "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "(1 failed)" in captured.out
    assert "FAILED boom seed=42: RuntimeError: boom" in captured.err
    text = (tmp_path / "SWEEP_result.txt").read_text()
    assert "job boom seed=42: FAILED (RuntimeError: boom)" in text
    assert "boom: every replica failed" in text
    assert "sens_costs: baseline avg frame (fixed, cache off)" in text
    assert "job sens_costs seed=42: result digest " in text


@pytest.mark.parametrize(
    "argv",
    [
        ["--jobs", "0"],
        ["--jobs", "-3"],
        ["--seeds", "0"],
        ["--seeds", "-2"],
        ["--experiments", "bogus"],
        ["cluster", "--nodes", "2,x"],
        ["sensitivity", "--scales", "1.5,x"],
        ["sensitivity", "--experiments", "sens_costs"],
        ["sensitivity", "--nodes", "2"],
        ["sensitivity", "--transports", "udp"],
        ["--scales", "1.5"],
        ["cluster", "--seeds", "3"],
        ["scenarios", "--seeds", "2"],
        ["--experiments", ","],
        ["cluster", "--nodes", ","],
        ["sensitivity", "--scales", ","],
        ["transport", "--transports", ","],
    ],
    ids=["jobs-0", "jobs-neg", "seeds-0", "seeds-neg", "unknown-id", "nodes-nan",
         "scales-nan", "experiments-elsewhere", "nodes-elsewhere",
         "transports-elsewhere", "scales-elsewhere", "seeds-in-cluster",
         "seeds-in-scenarios", "experiments-empty", "nodes-empty",
         "scales-empty", "transports-empty"],
)
def test_bad_count_or_id_exits_2_before_any_cell_runs(argv, tmp_path, capsys):
    """Each case fails on its own flag, which the error names: a flag the
    chosen mode does not read is refused, not ignored."""
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--jobs", "1", "--duration", "1000000", "--out", str(out), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = next(a for a in argv if a.startswith("--"))
    assert flag in captured.err.splitlines()[-1]  # the error, not the usage
    assert not out.exists()


def test_label_names_the_cell():
    """The label is part of the provenance notes, so of the merged digest."""
    job = sweep.Job(experiment="chaos", seed=7, duration_us=1e7, config={"k": 2})
    assert job.label == "chaos seed=7 T=1e+07us k=2"


def test_summary_line_contents():
    """Counts, workers and timings; the serial estimate sums every cell's
    compute seconds, failed cells included."""
    ok = sweep.JobOutcome(sweep.Job("a"), result=None, error=None, compute_s=1.5)
    bad = sweep.JobOutcome(sweep.Job("b"), result=None, error="boom", compute_s=0.5)
    report = sweep.SweepReport(outcomes=[ok, bad], wall_s=1.0, workers=2)
    assert report.summary_line() == (
        "sweep: 2 jobs (1 failed) workers=2 wall=1.00s "
        "serial-est=2.00s speedup-est=2.00x"
    )
    idle = sweep.SweepReport(outcomes=[], wall_s=0.0, workers=1)
    assert idle.summary_line().endswith("speedup-est=0.00x")


def test_job_matrices_shapes():
    jobs = sweep.replicate_jobs(["a", "b"], seeds=3, seed_base=10)
    assert len(jobs) == 6
    assert [j.seed for j in jobs[:3]] == [10, 11, 12]
    sens = sweep.sensitivity_jobs(scales=[1.5, 2.0], seeds=2)
    assert [j.experiment for j in sens] == [
        "sens_costs", "sens_costs", "sens_knockouts", "sens_knockouts"
    ]
    scen = sweep.scenario_jobs()
    assert all(j.experiment in ("chaos", "failover", "cluster") for j in scen)
    assert {j.experiment for j in scen} == {"chaos", "failover", "cluster"}
    assert all(len(j.config["scenarios"]) == 1 for j in scen)
    assert len({j.label for j in scen}) == len(scen)
    clus = sweep.cluster_jobs(nodes=[2, 3], scenarios=("baseline",))
    assert [j.config["n_nodes"] for j in clus] == [2, 3]
    assert all(j.experiment == "cluster" for j in clus)
