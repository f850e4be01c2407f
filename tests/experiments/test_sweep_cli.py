"""Replicated runs of the experiment CLI end to end: artifacts,
determinism, failures and flag checks.

Kept cheap: `sens_costs` is the fastest registry experiment, so the
matrix here is 2 seeds of it — enough to exercise the full path
(cell plan → workers → merge → artifacts → summary line).
"""

import json

import pytest

from repro.experiments import REGISTRY, golden, sweep
from repro.experiments.__main__ import main


def replica_argv(out, jobs):
    return ["sens_costs", "--seeds", "2", "--jobs", str(jobs), "--out", str(out)]


@pytest.fixture(scope="module")
def one_worker(tmp_path_factory):
    """The 2-seed matrix run once on one worker; its output directory."""
    out = tmp_path_factory.mktemp("sweep-cli") / "one"
    assert main(replica_argv(out, jobs=1)) == 0
    return out


def test_cold_run_writes_artifacts_and_summary(one_worker):
    assert (one_worker / "SWEEP_result.txt").exists()
    report = json.loads((one_worker / "SWEEP_report.json").read_text())
    assert report["argv"] == replica_argv(one_worker, jobs=1)
    assert report["summary"].startswith("sweep: 2 jobs (0 failed) workers=1 wall=")
    assert "speedup-est=" in report["summary"]
    assert [j["status"] for j in report["jobs"]] == ["ran", "ran"]


def test_two_workers_are_byte_identical_to_one(one_worker, tmp_path, capsys):
    assert main(replica_argv(tmp_path, jobs=2)) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("sweep: 2 jobs (0 failed) workers=2")
    assert (tmp_path / "SWEEP_result.txt").read_text() == (
        one_worker / "SWEEP_result.txt"
    ).read_text()


def test_merged_result_carries_ci_and_provenance(one_worker):
    text = (one_worker / "SWEEP_result.txt").read_text()
    assert "== Sweep: replicate: sens_costs x 2 seeds (base 42) ==" in text
    assert "mean of 2 seeds, 95% CI" in text
    assert text.count("result digest") == 2  # one provenance note per job
    assert "job sens_costs seed=43: result digest " in text
    assert "merged digest: " in text


def test_out_none_writes_nothing(tmp_path, capsys, monkeypatch):
    """Without --out a replicated run writes nothing, not even the
    artifacts observe writes on a plain run."""
    monkeypatch.chdir(tmp_path)
    argv = ["sens_costs", "observe", "--duration", "1000000"]
    assert main([*argv, "--seeds", "1"]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert main(argv) == 0  # a plain cell keeps the runner's own out_dir
    assert (tmp_path / "out" / "observe" / "SLO_report.json").exists()


def test_failed_cell_is_reported_and_the_rest_merge(tmp_path, capsys, monkeypatch):
    def boom(seed=0):
        raise RuntimeError("boom")

    # one in-process worker, so the patched registry is the one that runs
    monkeypatch.setitem(REGISTRY, "boom", boom)
    rc = main(
        ["sens_costs", "boom", "--seeds", "1", "--jobs", "1", "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "(1 failed)" in captured.out.splitlines()[-1]
    assert "FAILED boom seed=42: RuntimeError: boom" in captured.err
    text = (tmp_path / "SWEEP_result.txt").read_text()
    assert "job boom seed=42: FAILED (RuntimeError: boom)" in text
    assert "boom: every replica failed" in text
    assert "sens_costs: baseline avg frame (fixed, cache off)" in text
    assert "job sens_costs seed=42: result digest " in text


@pytest.mark.parametrize(
    "argv, token",
    [
        (["--jobs", "0"], "--jobs"),
        (["--jobs", "-3"], "--jobs"),
        (["--seeds", "0"], "--seeds"),
        (["--seeds", "-2"], "--seeds"),
        (["sweep"], "sweep"),
        (["cluster", "--set", "n_nodes=x"], "--set"),
        (["sens_costs", "--set", "scale=1.5,x"], "--set"),
        (["chaos", "--set", "n_nodes=2"], "--set"),
        (["sens_costs", "--set", "transport=udp"], "--set"),
        (["cluster", "--set", "scale=1.5"], "--set"),
        (["table5", "--seeds", "2"], "--seeds"),
        (["cluster", "--set", "n_nodes=,"], "--set"),
        (["sens_costs", "--set", "scale="], "--set"),
        (["chaos", "--set", "transport=,"], "--set"),
        (["table5", "--set", "n_nodes=2"], "--set"),
        (["cluster", "--set", "seed=1"], "--set"),
        (["chaos", "--set", "scenarios=baseline"], "--set"),
        (["cluster", "--set", "n_nodes"], "--set"),
        (["chaos", "--transport", "ttp", "--set", "transport=tcp"], "--set"),
        (["chaos", "--set", "transport=quic"], "--set"),
        (["--list", "--jobs", "0"], "--list"),
        (["--list", "--seeds", "0"], "--list"),
        (["--list", "--set", "n_nodes"], "--list"),
    ],
    ids=["jobs-0", "jobs-neg", "seeds-0", "seeds-neg", "unknown-id", "nodes-nan",
         "scales-nan", "nodes-elsewhere", "transports-elsewhere",
         "scales-elsewhere", "seeds-elsewhere", "nodes-empty", "scales-empty",
         "transports-empty", "set-in-table5", "set-owned-key",
         "set-non-scalar-key", "set-no-values", "set-and-transport",
         "set-unknown-transport", "list-jobs", "list-seeds", "list-set"],
)
def test_bad_count_or_id_exits_2_before_any_cell_runs(argv, token, tmp_path, capsys):
    """Each case fails on its own flag (or id), which the error names: an
    axis flag an id does not take is refused, not ignored, a --set value
    that names nothing, does not parse or names an unknown transport stops
    the run, and --list refuses every flag but experiment ids."""
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "1", "--duration", "1000000", "--out", str(out), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert token in captured.err.splitlines()[-1]  # the error, not the usage
    assert not out.exists()


def test_set_value_the_runner_refuses_fails_when_its_cell_runs(capsys):
    """Beyond transport names, a --set value is checked only for its type."""
    assert main(["cluster", "--set", "n_nodes=1", "--duration", "1000000"]) == 1
    failed = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("FAILED ")
    ]
    assert len(failed) == 1
    assert failed[0].endswith("a cluster plane needs at least two nodes")


@pytest.mark.parametrize(
    "experiment, key, values",
    [("sens_costs", "scale", (1.25, 2.0)), ("table4", "transfers", (10, 100))],
)
def test_set_cell_digest_matches_compute_result(
    experiment, key, values, tmp_path, capsys
):
    """Each --set cell runs exactly the runner call compute_result makes
    with the same keyword, coerced to the type of the runner's default."""
    text = ",".join(map(str, values))
    assert main([experiment, "--set", f"{key}={text}", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "SWEEP_report.json").read_text())
    assert [j["config"] for j in report["jobs"]] == [{key: v} for v in values]
    for job, value in zip(report["jobs"], values):
        want = golden.result_digest(
            golden.compute_result(experiment, seed=42, out_dir=None, **{key: value})
        )
        assert job["result_digest"] == want
    merged = (tmp_path / "SWEEP_result.txt").read_text()
    assert f"{experiment} {key}={values[0]!r}: " in merged


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
