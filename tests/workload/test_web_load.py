"""Apache pool + httperf load generation + Perfmeter sampling."""

import pytest

from repro.hw.cpu import CPUSpec
from repro.metrics import Perfmeter
from repro.rtos import SolarisHostOS
from repro.sim import Environment, RandomStreams
from repro.workload import ApacheServer, Httperf, WebRequest

LIGHT_SWITCH = CPUSpec(
    name="host", clock_mhz=200.0, has_fpu=True,
    context_switch_us=10.0, cache_pollution_us=25.0,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def host(env):
    return SolarisHostOS(env, n_cpus=2, cpu_spec=LIGHT_SWITCH)


class TestApache:
    def test_pool_starts_with_five(self, env, host):
        server = ApacheServer(env, host)
        assert server.nprocs == 5

    def test_invalid_pool_sizes(self, env, host):
        with pytest.raises(ValueError):
            ApacheServer(env, host, start_procs=0)
        with pytest.raises(ValueError):
            ApacheServer(env, host, start_procs=11, max_procs=10)

    def test_requests_get_served(self, env, host):
        server = ApacheServer(env, host)
        for _ in range(20):
            server.submit(WebRequest(submitted_at=env.now, service_us=1000.0))
        env.run(until=5_000_000.0)
        assert server.requests_served == 20
        assert server.response_time_us.count == 20

    def test_pool_grows_under_backlog_up_to_max(self, env, host):
        server = ApacheServer(env, host, mean_service_us=50_000.0)
        Httperf(env, server, rate_per_s=200.0, total_calls=2000, rng=RandomStreams(1))
        env.run(until=10_000_000.0)
        assert server.nprocs == server.max_procs

    def test_pool_stable_when_idle(self, env, host):
        server = ApacheServer(env, host)
        env.run(until=5_000_000.0)
        assert server.nprocs == 5


class TestHttperf:
    def test_invalid_parameters(self, env, host):
        server = ApacheServer(env, host)
        with pytest.raises(ValueError):
            Httperf(env, server, rate_per_s=0.0)
        with pytest.raises(ValueError):
            Httperf(env, server, rate_per_s=10.0, connections=0)

    def test_total_calls_ceiling(self, env, host):
        server = ApacheServer(env, host)
        perf = Httperf(env, server, rate_per_s=100.0, total_calls=50)
        env.run(until=30_000_000.0)
        assert perf.calls_issued == 50
        assert perf.calls_completed == 50

    def test_issue_rate_close_to_requested(self, env, host):
        server = ApacheServer(env, host)
        perf = Httperf(
            env, server, rate_per_s=200.0, total_calls=10_000, rng=RandomStreams(2)
        )
        env.run(until=5_000_000.0)  # 5s
        achieved = perf.calls_issued / 5.0
        assert achieved == pytest.approx(200.0, rel=0.15)

    def test_start_and_stop_bounds(self, env, host):
        server = ApacheServer(env, host)
        perf = Httperf(
            env,
            server,
            rate_per_s=100.0,
            total_calls=100_000,
            start_at_us=1_000_000.0,
            stop_at_us=2_000_000.0,
        )
        env.run(until=1_000_000.0)
        assert perf.calls_issued == 0
        env.run(until=4_000_000.0)
        assert perf.calls_issued == pytest.approx(100, rel=0.5)


class TestUtilizationTargets:
    """The Figure-6 knob: drive the host to a requested average level."""

    @pytest.mark.parametrize("target", [0.45, 0.60])
    def test_target_utilization_reached(self, env, host, target):
        server = ApacheServer(env, host, rng=RandomStreams(3))
        # open-loop M/M/k sizing, as the figure runners do
        rate = target * host.n_cpus * 1e6 / server.effective_mean_service_us
        Httperf(env, server, rate_per_s=rate, total_calls=10**6, rng=RandomStreams(4))
        meter = Perfmeter(env, host, period_us=500_000.0)
        env.run(until=30_000_000.0)  # 30s
        # skip the 2s ramp; context-switch overhead adds a little on top
        avg = meter.average(start=2_000_000.0) / 100.0
        assert avg == pytest.approx(target, abs=0.10)


class TestPerfmeter:
    def test_idle_system_near_zero(self, env, host):
        meter = Perfmeter(env, host, period_us=1_000_000.0)
        env.run(until=5_000_000.0)
        assert meter.average() < 1.0

    def test_invalid_period(self, env, host):
        with pytest.raises(ValueError):
            Perfmeter(env, host, period_us=0.0)

    def test_fully_loaded_near_100(self, env, host):
        def burner(task):
            while True:
                yield task.compute(100_000.0)

        host.spawn("burn0", burner)
        host.spawn("burn1", burner)
        meter = Perfmeter(env, host, period_us=1_000_000.0)
        env.run(until=5_000_000.0)
        assert meter.average() > 95.0
