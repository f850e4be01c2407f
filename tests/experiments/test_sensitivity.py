"""Sensitivity and knockout experiments behave as CALIBRATION.md claims."""

import pytest

from repro.experiments import cost_sensitivity, mechanism_knockouts
from repro.sim import S


@pytest.fixture(scope="module")
def costs():
    return cost_sensitivity()


class TestCostSensitivity:
    def test_fp_constant_moves_only_the_fp_build(self, costs):
        moved_soft = costs.row(
            "software-FP cell under x1.5 fp_emulation_cycles"
        ).measured
        unchanged_fixed = costs.row(
            "fixed-point cell under x1.5 fp_emulation_cycles"
        ).measured
        base = costs.row("baseline avg frame (fixed, cache off)").measured
        assert moved_soft > base + 5.0
        assert unchanged_fixed == pytest.approx(base, abs=0.01)

    def test_uncached_memory_constant_barely_touches_cached_cell(self, costs):
        off = costs.row("cache-off cell under x1.5 mem_uncached_cycles").measured
        on = costs.row("cache-on cell under x1.5 mem_uncached_cycles").measured
        base = costs.row("baseline avg frame (fixed, cache off)").measured
        assert off > base + 5.0
        assert on < off  # the cache keeps absorbing most of the increase

    def test_decision_base_moves_the_with_scheduler_cell(self, costs):
        bumped = costs.row("cache-off cell under x1.5 decision_base").measured
        base = costs.row("baseline avg frame (fixed, cache off)").measured
        # +50% of 2570 int ops at 66 MHz ≈ +19.5 µs, linearly
        assert bumped - base == pytest.approx(0.5 * 2570 / 66.0, rel=0.05)


class TestKnockouts:
    def test_priority_decay_is_the_necessary_mechanism(self):
        result = mechanism_knockouts(duration_us=50 * S)
        full = result.row("full model (both mechanisms)").measured
        fresh = result.row("priority decay knocked out").measured
        # degradation present with the full model, gone with fresh priority
        assert full < 0.75 * fresh
        assert fresh == pytest.approx(250_000.0, rel=0.15)

    def test_seed_moves_the_workload(self):
        a = mechanism_knockouts(duration_us=20 * S, seed=0)
        b = mechanism_knockouts(duration_us=20 * S, seed=1)
        again = mechanism_knockouts(duration_us=20 * S, seed=0)
        label = "full model (both mechanisms)"
        assert a.row(label).measured == again.row(label).measured
        assert a.row(label).measured != b.row(label).measured


class TestSeedPlumbing:
    def test_cost_sensitivity_is_seed_invariant_by_construction(self, costs):
        """The microbench drains deterministic pre-filled rings, so a
        different seed must not move any cell — the explicit plumbing is
        for a sweep's seed axis, not for variance."""
        from repro.experiments.golden import result_digest

        other = cost_sensitivity(seed=123)
        for row in costs.rows:
            assert other.row(row.label).measured == row.measured
        # digest-identical too: notes and labels carry no seed leakage
        assert result_digest(other) == result_digest(costs)
