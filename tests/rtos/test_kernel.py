"""OS kernel mechanics: compute service, quanta, affinity, accounting."""

import pytest

from repro.hw.cpu import CPUSpec
from repro.rtos import SolarisHostOS, WindScheduler
from repro.sim import Environment

# A spec with zero switch overhead keeps arithmetic exact in these tests.
FREE_SWITCH = CPUSpec(
    name="ideal", clock_mhz=100.0, has_fpu=True, context_switch_us=0.0, cache_pollution_us=0.0
)


@pytest.fixture
def env():
    return Environment()


def test_single_task_served_exactly(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)
    done = []

    def body(task):
        yield task.compute(500.0)
        done.append(env.now)

    os.spawn("t", body)
    env.run()
    assert done == [500.0]


def test_zero_compute_completes_immediately(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)
    done = []

    def body(task):
        yield task.compute(0.0)
        done.append(env.now)

    os.spawn("t", body)
    env.run()
    assert done == [0.0]


def test_negative_compute_rejected(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)
    errors = []

    def body(task):
        try:
            yield task.compute(-1.0)
        except ValueError as e:
            errors.append(e)
            yield env.timeout(0)

    os.spawn("t", body)
    env.run()
    assert len(errors) == 1


def test_cpu_time_accounting(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)

    def body(task):
        yield task.compute(300.0)
        yield env.timeout(1000.0)  # sleeping: no CPU
        yield task.compute(200.0)

    t = os.spawn("t", body)
    env.run()
    assert t.cpu_time_us == pytest.approx(500.0)
    assert t.requests == 2


def test_two_tasks_share_one_cpu_serially(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)
    finish = {}

    def body(task):
        yield task.compute(1000.0)
        finish[task.name] = env.now

    os.spawn("a", body, priority=100)
    os.spawn("b", body, priority=100)
    env.run()
    assert finish["a"] == pytest.approx(1000.0)
    assert finish["b"] == pytest.approx(2000.0)


def test_multicpu_runs_in_parallel(env):
    os = SolarisHostOS(env, n_cpus=2, cpu_spec=FREE_SWITCH)
    finish = {}

    def body(task):
        yield task.compute(1000.0)
        finish[task.name] = env.now

    os.spawn("a", body)
    os.spawn("b", body)
    env.run()
    assert finish["a"] == pytest.approx(1000.0)
    assert finish["b"] == pytest.approx(1000.0)


def test_context_switch_cost_charged(env):
    spec = CPUSpec(
        name="costly", clock_mhz=100.0, has_fpu=True,
        context_switch_us=10.0, cache_pollution_us=15.0,
    )
    os = WindScheduler(env, cpu_spec=spec)
    finish = {}

    def body(task):
        yield task.compute(100.0)
        finish[task.name] = env.now

    os.spawn("a", body)
    env.run()
    # one switch (idle->a) at 25us + 100us work
    assert finish["a"] == pytest.approx(125.0)
    assert os.context_switches == 1


def test_round_robin_interleaves_long_jobs(env):
    os = SolarisHostOS(env, n_cpus=1, cpu_spec=FREE_SWITCH)
    finish = {}

    def body(task):
        yield task.compute(250_000.0)
        finish[task.name] = env.now

    os.spawn("a", body)
    os.spawn("b", body)
    env.run()
    # With 100ms quanta both finish near the end, not serially:
    # serial would be a@250ms, b@500ms; RR gives a@450ms, b@500ms.
    assert finish["a"] > 400_000.0
    assert finish["b"] == pytest.approx(500_000.0)


def test_wind_runs_to_completion_no_timeslicing(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)
    finish = {}

    def body(task):
        yield task.compute(25_000.0)
        finish[task.name] = env.now

    os.spawn("a", body, priority=100)
    os.spawn("b", body, priority=100)
    env.run()
    assert finish["a"] == pytest.approx(25_000.0)
    assert finish["b"] == pytest.approx(50_000.0)


def test_wind_priority_preemption(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)
    finish = {}

    def low(task):
        yield task.compute(10_000.0)
        finish["low"] = env.now

    def high(task):
        yield env.timeout(1_000.0)
        yield task.compute(500.0)
        finish["high"] = env.now

    os.spawn("low", low, priority=200)
    os.spawn("high", high, priority=10)
    env.run()
    # high arrives at t=1000, preempts, finishes at 1500;
    # low resumes and finishes at 10500.
    assert finish["high"] == pytest.approx(1_500.0)
    assert finish["low"] == pytest.approx(10_500.0)


def test_no_preemption_in_time_sharing_class(env):
    os = SolarisHostOS(env, n_cpus=1, cpu_spec=FREE_SWITCH)
    finish = {}

    def first(task):
        yield task.compute(5_000.0)
        finish["first"] = env.now

    def second(task):
        yield env.timeout(100.0)
        yield task.compute(100.0)
        finish["second"] = env.now

    os.spawn("first", first)
    os.spawn("second", second)
    env.run()
    # second waits for first's slice (5ms < quantum) to finish
    assert finish["second"] == pytest.approx(5_100.0)


def test_bound_cpu_restricts_task_to_cpu(env):
    os = SolarisHostOS(env, n_cpus=2, cpu_spec=FREE_SWITCH)
    finish = {}

    def body(task):
        yield task.compute(1000.0)
        finish[task.name] = env.now

    # Three tasks bound to cpu 0 serialize even though cpu 1 is idle.
    for name in ("a", "b", "c"):
        os.spawn(name, body, bound_cpu=0)
    env.run()
    assert finish["c"] == pytest.approx(3000.0)


def test_spawn_validates_bound_cpu(env):
    os = SolarisHostOS(env, n_cpus=2, cpu_spec=FREE_SWITCH)

    def body(task):
        yield task.compute(1.0)

    with pytest.raises(ValueError):
        os.spawn("u", body, bound_cpu=9)


def test_busy_accounting_matches_work(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)

    def body(task):
        yield task.compute(2_000.0)

    os.spawn("t", body)
    env.run()
    assert os.cumulative_busy_us() == pytest.approx(2_000.0)


def test_unbound_work_drains_on_any_cpu(env):
    os = SolarisHostOS(env, n_cpus=4, cpu_spec=FREE_SWITCH)
    finish = []

    def body(task):
        yield task.compute(1000.0)
        finish.append(env.now)

    for i in range(8):
        os.spawn(f"t{i}", body)
    env.run()
    assert max(finish) == pytest.approx(2000.0)  # 8 jobs / 4 cpus / 1ms


def test_invalid_cpu_count():
    with pytest.raises(ValueError):
        SolarisHostOS(Environment(), n_cpus=0)


def test_system_tasks_light_load(env):
    os = WindScheduler(env, cpu_spec=FREE_SWITCH)
    os.spawn_system_tasks()
    env.run(until=1_000_000.0)  # 1s
    # ~2 tasks * 100us per 50ms = ~0.4% utilization
    assert os.cumulative_busy_us() < 10_000.0

