"""Environment convenience APIs not covered elsewhere."""

import pytest

from repro.sim import Environment, SimulationError


def test_all_of_helper():
    env = Environment()
    cond = env.all_of([env.timeout(3.0), env.timeout(7.0)])
    env.run(until=cond)
    assert env.now == 7.0


def test_event_factory_names():
    env = Environment()
    ev = env.event(name="custom")
    assert "custom" in repr(ev)


def test_process_naming():
    env = Environment()

    def body():
        yield env.timeout(1.0)

    p = env.process(body(), name="worker")
    assert "worker" in repr(p)
    env.run()


def test_repr_shows_time_and_queue():
    env = Environment()
    env.timeout(5.0)
    text = repr(env)
    assert "t=0.000" in text
    assert "queued=1" in text


def test_schedule_event_negative_delay_guard():
    env = Environment()
    with pytest.raises(SimulationError):
        env._schedule_event(env.event(), delay=-1.0)


def test_run_with_no_events_returns_immediately():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0


def test_run_until_time_with_empty_queue_advances_clock():
    env = Environment()
    env.run(until=500.0)
    assert env.now == 500.0


def test_nested_process_chain_depth():
    """Deep process chains resolve without recursion issues."""
    env = Environment()

    def level(n):
        if n == 0:
            yield env.timeout(1.0)
            return 0
        value = yield env.process(level(n - 1))
        return value + 1

    assert env.run(until=env.process(level(100))) == 100
    assert env.now == 1.0
