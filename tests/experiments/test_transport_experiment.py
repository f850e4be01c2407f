"""The transport comparison experiment: determinism, rows, registry."""

import pytest

from repro.experiments import REGISTRY, chaos, failover
from repro.experiments import golden
from repro.experiments.transport import TRANSPORT_LOAD_LEVEL, transport
from repro.net.transport import MediaTransportBooks

SHORT_US = 3_000_000.0


@pytest.fixture(scope="module")
def result():
    return transport(duration_us=SHORT_US, seed=42)


class TestRows:
    def test_every_transport_and_kind_reports(self, result):
        rows = {r.label for r in result.rows}
        for tname in ("udp", "tcp", "ttp"):
            for kind in ("host", "ni"):
                assert f"{tname}/{kind}: frames delivered" in rows
            assert f"{tname}: NI/host delivery ratio" in rows

    def test_reliable_transports_report_ledger_rows(self, result):
        rows = {r.label: r.measured for r in result.rows}
        for tname in ("tcp", "ttp"):
            for kind in ("host", "ni"):
                assert rows[f"{tname}/{kind}: records unaccounted"] == 0.0
                sent = rows[f"{tname}/{kind}: records sent"]
                delivered = rows[f"{tname}/{kind}: frames delivered"]
                assert sent == delivered  # clean network: nothing pending
        # the raw path keeps no books
        assert "udp/host: records sent" not in rows

    def test_udp_rows_match_the_raw_path(self, result):
        """The comparison's udp column IS the shipped path: same loading
        cell, same seed => same delivered-frame count as a direct run."""
        from repro.experiments.figures import run_loading_experiment

        run = run_loading_experiment(
            "ni", TRANSPORT_LOAD_LEVEL, duration_us=SHORT_US, seed=42
        )
        direct = float(sum(c.total_frames for c in run.service.clients.values()))
        rows = {r.label: r.measured for r in result.rows}
        assert rows["udp/ni: frames delivered"] == direct


@pytest.mark.parametrize("runner", [chaos, failover], ids=["chaos", "failover"])
def test_campaigns_report_the_one_ledger_row_set(runner):
    """chaos and failover print MediaTransportBooks.rows() under their
    scenario prefix: every label, in order, and a zero leak audit."""
    result = runner(
        duration_us=golden.SHORT_DURATION_US,
        seed=42,
        scenarios=["baseline"],
        transport="ttp",
    )
    prefix = "baseline: transport "
    got = [r.label for r in result.rows if r.label.startswith(prefix)]
    assert got == [prefix + label for label, _, _ in MediaTransportBooks().rows()]
    assert result.row(prefix + "records unaccounted").measured == 0.0


class TestDeterminism:
    def test_double_run_digest_identical(self, result):
        again = transport(duration_us=SHORT_US, seed=42)
        assert golden.result_digest(result) == golden.result_digest(again)

    def test_transport_subset_argument(self):
        sub = transport(duration_us=SHORT_US, seed=42, transports=["udp"])
        names = {r.label for r in sub.rows}
        assert any(n.startswith("udp/") for n in names)
        assert not any(n.startswith("tcp/") or n.startswith("ttp/") for n in names)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="valid transports"):
            transport(duration_us=SHORT_US, seed=42, transports=["quic"])


class TestRegistration:
    def test_in_registry(self):
        assert REGISTRY["transport"] is transport

    def test_in_golden_id_sets(self):
        assert "transport" in golden.GOLDEN_IDS
        assert "transport" in golden.SHORT_IDS
