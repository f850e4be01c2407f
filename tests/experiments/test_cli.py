"""The python -m repro.experiments command-line runner."""

import inspect

import pytest

from repro.experiments import CAMPAIGNS, REGISTRY
from repro.experiments.__main__ import main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "figure10" in out
    assert "ext_ni_balance" in out


def test_run_selected(capsys):
    assert main(["table5"]) == 0
    out = capsys.readouterr().out
    assert "PCI Card-to-Card" in out
    assert "66.27" in out


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["not_a_table"])


def test_plots_artifacts(tmp_path, capsys):
    assert main(["table5", "--out", str(tmp_path)]) == 0
    artifact = tmp_path / "table5.txt"
    assert artifact.exists()
    text = artifact.read_text()
    assert "PCI Card-to-Card" in text


def test_plots_include_ascii_series(tmp_path, capsys):
    assert main(["figure6", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "figure6.txt").read_text()
    assert "util:none" in text
    assert "*" in text  # a plotted point


def test_two_workers_print_what_one_prints(capsys):
    """Plain cells come back in input order whatever the worker count."""
    assert main(["table5", "sens_costs", "--jobs", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["table5", "sens_costs", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == one
    assert one.index("PCI Card-to-Card") < one.index("baseline avg frame")


@pytest.mark.parametrize(
    "flags, kwargs",
    [([], {}), (["--seed", "42"], {"seed": 42})],
    ids=["default", "42"],
)
def test_plain_cell_passes_only_the_given_seed(flags, kwargs, capsys):
    """Without --seed a plain cell passes none, so figure9 runs at its own
    default seed (0), not at the replicas' base seed (42)."""
    assert main(["figure9", "--duration", "2000000", *flags]) == 0
    want = REGISTRY["figure9"](duration_us=2e6, **kwargs).render()
    assert capsys.readouterr().out == want + "\n\n"


def test_failed_cell_is_reported_and_the_rest_print(capsys, monkeypatch):
    def boom(seed=0):
        raise RuntimeError("boom")

    monkeypatch.setitem(REGISTRY, "boom", boom)
    assert main(["boom", "table5"]) == 1
    captured = capsys.readouterr()
    assert "PCI Card-to-Card" in captured.out
    assert "boom" not in captured.out
    assert captured.err == "FAILED boom seed=None: RuntimeError: boom\n"


def test_every_runner_keyword_is_pinned():
    """A load-level subset or a control-block toggle would be a runner
    option with no caller."""
    params = [inspect.signature(runner).parameters for runner in REGISTRY.values()]
    assert set().union(*params) == {
        "duration_us", "kinds", "n_nodes", "out_dir", "scale", "scenarios",
        "seed", "service_time_us", "stream_counts", "transfers", "transport",
        "transports", "utilization_bound",
    }


class TestFlagsCheckedUpFront:
    @pytest.mark.parametrize(
        "argv, err",
        [
            (["chaos", "table5", "--scenarios", "baseline"],
             "'table5' does not take --scenarios"),
            (["chaos", "table5", "--transport", "ttp"],
             "'table5' does not take --transport"),
            (["chaos", "--scenarios", ","], "--scenarios names nothing"),
            (["chaos", "--scenarios", ""], "--scenarios names nothing"),
            (["transport", "--transport", ","], "--transport names nothing"),
        ],
        ids=["scenarios", "transport", "scenarios-comma", "scenarios-empty",
             "transport-comma"],
    )
    def test_bad_flag_stops_the_cli_before_any_experiment_runs(
        self, argv, err, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert err in captured.err

    def test_campaigns_are_the_runners_that_take_scenarios(self):
        takes = [
            name
            for name, runner in REGISTRY.items()
            if "scenarios" in inspect.signature(runner).parameters
        ]
        assert sorted(takes) == sorted(CAMPAIGNS)


class TestTransportFlag:
    def test_list_includes_transport(self, capsys):
        assert main(["--list"]) == 0
        assert "transport" in capsys.readouterr().out

    def test_unknown_transport_names_valid_set(self, capsys):
        with pytest.raises(SystemExit):
            main(["transport", "--transport", "quic"])
        err = capsys.readouterr().err
        assert "unknown transport 'quic'" in err
        assert "valid transports: tcp, ttp, udp" in err

    def test_multi_transport_rejected_for_single_transport_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--transport", "udp,ttp"])
        assert "takes a single --transport" in capsys.readouterr().err

    def test_transport_flag_rejected_where_unsupported(self, capsys):
        with pytest.raises(SystemExit):
            main(["table5", "--transport", "ttp"])
        assert "does not take --transport" in capsys.readouterr().err
