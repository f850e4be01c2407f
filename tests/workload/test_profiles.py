"""Httperf rate profiles and Apache heavy-tail service draws."""

import pytest

from repro.hw.cpu import CPUSpec
from repro.rtos import SolarisHostOS
from repro.sim import Environment, RandomStreams, S
from repro.workload import ApacheServer, Httperf

FREE = CPUSpec(
    name="ideal", clock_mhz=100.0, has_fpu=True,
    context_switch_us=0.0, cache_pollution_us=0.0,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def server(env):
    host = SolarisHostOS(env, n_cpus=2, cpu_spec=FREE)
    return ApacheServer(env, host, rng=RandomStreams(1))


class TestRateProfiles:
    def test_profile_validation(self, env, server):
        with pytest.raises(ValueError):
            Httperf(env, server, rate_per_s=1.0, rate_profile=[])
        with pytest.raises(ValueError):
            Httperf(env, server, rate_per_s=1.0, rate_profile=[(0.0, -1.0)])
        with pytest.raises(ValueError):
            Httperf(
                env, server, rate_per_s=1.0,
                rate_profile=[(10.0, 1.0), (5.0, 2.0)],  # unsorted
            )

    def test_zero_rate_phase_issues_nothing(self, env, server):
        perf = Httperf(
            env,
            server,
            rate_per_s=1.0,
            rate_profile=[(0.0, 0.0), (2 * S, 200.0)],
            total_calls=10**6,
            rng=RandomStreams(2),
        )
        env.run(until=2 * S)
        assert perf.calls_issued == 0
        env.run(until=4 * S)
        assert perf.calls_issued > 200

    def test_profile_shapes_load_over_time(self, env, server):
        perf = Httperf(
            env,
            server,
            rate_per_s=0.001,
            rate_profile=[(0.0, 20.0), (3 * S, 200.0)],
            total_calls=10**6,
            rng=RandomStreams(3),
        )
        env.run(until=3 * S)
        early = perf.calls_issued
        env.run(until=6 * S)
        late = perf.calls_issued - early
        assert late > 5 * early


class TestHeavyTail:
    def test_effective_mean_includes_tail(self, env):
        host = SolarisHostOS(env, n_cpus=1, cpu_spec=FREE)
        server = ApacheServer(
            env, host, mean_service_us=1000.0,
            heavy_tail_prob=0.1, heavy_tail_mult=50.0,
        )
        assert server.effective_mean_service_us == pytest.approx(
            1000.0 * (0.9 + 0.1 * 50.0)
        )

    def test_invalid_tail_probability(self, env):
        host = SolarisHostOS(env, n_cpus=1, cpu_spec=FREE)
        with pytest.raises(ValueError):
            ApacheServer(env, host, heavy_tail_prob=1.5)

    def test_draw_matches_effective_mean(self, env, server):
        gen = RandomStreams(4).stream("draws")
        n = 20_000
        mean = sum(server.draw_service_us(gen) for _ in range(n)) / n
        assert mean == pytest.approx(server.effective_mean_service_us, rel=0.10)

    def test_tail_disabled(self, env):
        host = SolarisHostOS(env, n_cpus=1, cpu_spec=FREE)
        server = ApacheServer(env, host, heavy_tail_prob=0.0, mean_service_us=500.0)
        assert server.effective_mean_service_us == 500.0
        gen = RandomStreams(5).stream("draws")
        draws = [server.draw_service_us(gen) for _ in range(5000)]
        assert sum(draws) / len(draws) == pytest.approx(500.0, rel=0.10)
