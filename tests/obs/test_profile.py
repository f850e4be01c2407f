"""Wall-clock self-profiler: sampling, artifacts, env gating, bit-identity."""

import time

from repro.obs.profile import (
    PROFILE_CALLS_ENV_VAR,
    PROFILE_ENV_VAR,
    WallClockProfiler,
    maybe_profile,
)


def spin(seconds: float) -> int:
    """A deterministic busy loop the sampler can catch in the act."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += 1
    return acc


class TestSampling:
    def test_samples_capture_this_stack(self):
        with WallClockProfiler(interval_s=0.001) as prof:
            spin(0.12)
        assert prof.samples > 0
        assert prof.wall_s > 0.1
        # the busy loop's frame must appear as a leaf somewhere
        leaves = {stack[-1] for stack in prof.stacks}
        assert any(label.endswith(":spin") for label in leaves), leaves

    def test_collapsed_format(self):
        prof = WallClockProfiler(enabled=False)
        prof.stacks = {("m:a", "m:b"): 3, ("m:a",): 1}
        text = prof.collapsed()
        assert text == "m:a 1\nm:a;m:b 3\n"

    def test_collapsed_empty(self):
        assert WallClockProfiler(enabled=False).collapsed() == ""

    def test_call_counts_hook(self):
        with WallClockProfiler(interval_s=0.01, call_counts=True) as prof:
            for _ in range(5):
                spin(0.001)
        spins = [n for label, n in prof.calls.items() if label.endswith(":spin")]
        assert spins and spins[0] >= 5


class TestInert:
    def test_disabled_profiler_records_nothing(self):
        prof = WallClockProfiler(enabled=False)
        with prof:
            spin(0.02)
        assert prof.samples == 0
        assert prof.stacks == {}
        assert prof.wall_s == 0.0

    def test_stop_without_start_is_noop(self):
        prof = WallClockProfiler(enabled=False)
        assert prof.stop() is prof

    def test_interval_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            WallClockProfiler(interval_s=0.0)


class TestAnalysis:
    def make(self):
        prof = WallClockProfiler(enabled=False)
        prof.stacks = {
            ("repro.experiments.bench:main", "repro.core.dwcs:schedule"): 6,
            ("repro.experiments.bench:main", "repro.sim.environment:run"): 3,
            ("json.encoder:encode",): 1,
        }
        prof.samples = 10
        prof.wall_s = 5.0
        return prof

    def test_hotspots_leaf_attribution(self):
        rows = self.make().hotspots()
        assert rows[0]["module"] == "repro.core.dwcs"
        assert rows[0]["samples"] == 6
        assert rows[0]["share"] == 0.6
        assert rows[0]["est_s"] == 3.0
        assert [r["module"] for r in rows] == [
            "repro.core.dwcs",
            "repro.sim.environment",
            "json.encoder",
        ]

    def test_hotspots_top_truncation(self):
        assert len(self.make().hotspots(top=1)) == 1

    def test_package_rollup_families(self):
        prof = self.make()
        prof.stacks[("repro.experiments.bench:main", "repro.net.ttp:_on_data")] = 5
        prof.stacks[("repro.experiments.bench:main", "repro.net.udp:send")] = 3
        prof.stacks[("repro.rtos.kernel:_dispatcher",)] = 2
        prof.samples = 20
        shares = prof.package_rollup()
        assert shares == {
            "repro.core": 0.3,
            "repro.net": 0.4,
            "repro.rtos": 0.1,
            "repro.sim": 0.15,
            "other": 0.05,
        }
        assert list(shares)[-1] == "other"
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_package_rollup_without_foreign_samples(self):
        prof = self.make()
        del prof.stacks[("json.encoder:encode",)]
        prof.samples = 9
        assert prof.package_rollup()["other"] == 0.0

    def test_render_hotspots_mentions_modules(self):
        text = self.make().render_hotspots()
        assert "repro.core.dwcs" in text
        assert "10 samples" in text


class TestEnvGating:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        assert maybe_profile().enabled is False

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "0")
        assert maybe_profile().enabled is False

    def test_flag_arms_profiler(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        monkeypatch.delenv(PROFILE_CALLS_ENV_VAR, raising=False)
        prof = maybe_profile()
        assert prof.enabled is True
        assert prof.call_counts_enabled is False

    def test_calls_flag_adds_hook(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        monkeypatch.setenv(PROFILE_CALLS_ENV_VAR, "1")
        assert maybe_profile().call_counts_enabled is True


class TestBitIdentity:
    def test_simulated_results_identical_under_profiler(self):
        """The profiler reads host frames only — a profiled run's simulated
        output must equal the unprofiled run's, bit for bit."""
        from repro.experiments.golden import compute_result, result_digest

        bare = result_digest(compute_result("figure9", duration_us=2_000_000.0))
        with WallClockProfiler(interval_s=0.001):
            profiled = result_digest(compute_result("figure9", duration_us=2_000_000.0))
        assert profiled == bare
