"""The chaos harness: named scenarios, scoring, and seed determinism."""

import pytest

from repro.experiments import run_loading_experiment
from repro.experiments.chaos import chaos, run_chaos_scenario
from repro.faults import SCENARIOS
from repro.sim import S

#: short runs keep the suite fast; scenario windows are duration fractions,
#: so every scenario scales down cleanly
SHORT_US = 10 * S


class TestScenarioCatalogue:
    def test_at_least_three_fault_scenarios_plus_baseline(self):
        names = set(SCENARIOS)
        assert "baseline" in names
        assert len(names - {"baseline"}) >= 3

    def test_scenarios_are_well_formed(self):
        for name, sc in SCENARIOS.items():
            assert sc.name == name
            assert sc.description
            assert 0.0 <= sc.start_frac <= sc.end_frac <= 1.0
            start, end = sc.fault_window_us(100 * S)
            assert start == pytest.approx(sc.start_frac * 100 * S)
            assert end == pytest.approx(sc.end_frac * 100 * S)


class TestDeterminism:
    def test_same_seed_replays_identical_scores(self):
        a = run_chaos_scenario("link-burst", duration_us=SHORT_US, seed=7)
        b = run_chaos_scenario("link-burst", duration_us=SHORT_US, seed=7)
        assert a.ref_bps == b.ref_bps
        assert a.dip_bps == b.dip_bps
        assert a.recovery_us == b.recovery_us
        assert a.violations == b.violations
        assert a.dropped == b.dropped
        assert a.injected == b.injected

    def test_baseline_reproduces_the_plane_less_figure9_run(self):
        cr = run_chaos_scenario("baseline", duration_us=SHORT_US, seed=7)
        plain = run_loading_experiment("ni", "none", duration_us=SHORT_US, seed=7)
        assert cr.injected == 0
        chaos_stats = cr.run.service.engine.scheduler.stats
        plain_stats = plain.service.engine.scheduler.stats
        assert chaos_stats.violations == plain_stats.violations
        assert chaos_stats.dropped == plain_stats.dropped
        for sid in cr.ref_bps:
            want = plain.service.reception(sid).mean_bandwidth_bps(0.0, SHORT_US)
            got = cr.run.service.reception(sid).mean_bandwidth_bps(0.0, SHORT_US)
            assert got == want  # bit-identical: an idle plane draws nothing


class TestScoring:
    def test_link_burst_dips_then_recovers(self):
        cr = run_chaos_scenario("link-burst", duration_us=SHORT_US, seed=7)
        assert cr.injected > 0
        # at least one stream was visibly degraded inside the window ...
        assert any(cr.dip_bps[sid] < cr.ref_bps[sid] for sid in cr.ref_bps)
        # ... and every stream got back to >= 90% of its pre-fault rate
        assert all(rec is not None for rec in cr.recovery_us.values())

    def test_partition_starves_only_the_cut_client(self):
        cr = run_chaos_scenario("partition", duration_us=SHORT_US, seed=7)
        assert cr.dip_bps["s1"] == 0.0  # fully dark during the cut
        assert cr.dip_bps["s2"] > 0.0  # the other stream keeps flowing

    def test_ni_crash_sheds_and_readmits(self):
        cr = run_chaos_scenario("ni-crash", duration_us=SHORT_US, seed=7)
        service = cr.run.service
        assert service.card.crash_count == 1
        assert not service.card.crashed  # reset happened
        assert not service.admission.suspended_streams  # everyone re-admitted
        assert all(rec is not None for rec in cr.recovery_us.values())


class TestExperimentRunner:
    def test_chaos_result_rows_are_seed_deterministic(self):
        kw = dict(duration_us=SHORT_US, seed=5, scenarios=["baseline", "disk-spike"])
        a, b = chaos(**kw), chaos(**kw)
        assert [(r.label, r.measured) for r in a.rows] == [
            (r.label, r.measured) for r in b.rows
        ]
        labels = [r.label for r in a.rows]
        assert "disk-spike: violations" in labels
        assert "disk-spike: faults injected" in labels
        assert any(s.name == "disk-spike:s1:bw" for s in a.series)


class TestWirePathWork:
    def test_ni_over_ttp_cell_keeps_its_events_and_frames(self):
        """Pinned counts of a short NI-over-TTP cell with link loss. An edit
        to the wire path that adds or drops an event, or a link crossing,
        moves them."""
        cr = run_chaos_scenario("link-burst", duration_us=2 * S, seed=42, transport="ttp")
        env = cr.plane.env
        switch = cr.run.service.switch
        uplinks = sum(port.uplink.frames_sent for port in switch._ports.values())
        downlinks = sum(link.frames_sent for link in switch._downlinks.values())
        assert env._seq - len(env._queue) == 4898
        assert (uplinks, downlinks, switch.frames_dropped) == (272, 258, 14)
