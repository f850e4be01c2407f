"""run(until=t) boundary semantics.

The contract every experiment's duration handling rests on:

* events scheduled at exactly ``t`` ARE processed by ``run(until=t)``;
* afterwards ``now`` lands on ``t`` (even when the last event was
  earlier);
* a repeated ``run(until=t)`` is a no-op;
* ``peek()`` is ``inf`` on an empty queue.
"""

import pytest

from repro.sim import Environment, SimulationError


class TestUntilBoundary:
    def test_event_at_exactly_until_is_processed(self):
        env = Environment()
        fired = []
        env.timeout(10.0).callbacks.append(lambda _e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == [10.0]
        assert env.now == 10.0

    def test_now_lands_on_until_past_the_last_event(self):
        env = Environment()
        fired = []
        env.timeout(3.0).callbacks.append(lambda _e: fired.append(env.now))
        env.run(until=50.0)
        assert fired == [3.0]
        assert env.now == 50.0

    def test_event_just_after_until_stays_queued(self):
        env = Environment()
        fired = []
        env.timeout(10.0 + 1e-9).callbacks.append(lambda _e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == []
        assert len(env._queue) == 1
        env.run()
        assert len(fired) == 1

    def test_repeated_run_until_same_t_is_noop(self):
        env = Environment()
        fired = []
        env.timeout(10.0).callbacks.append(lambda _e: fired.append(env.now))
        env.run(until=10.0)
        env.run(until=10.0)
        assert fired == [10.0]
        assert env.now == 10.0

    def test_run_until_the_past_raises(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_peek_inf_on_empty(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(4.0)
        assert env.peek() == 4.0
        env.run()
        assert env.peek() == float("inf")

    def test_segmented_runs_cover_the_schedule_once(self):
        env = Environment()
        fired = []
        for d in (2.0, 5.0, 5.0, 9.0):
            env.timeout(d).callbacks.append(lambda _e, d=d: fired.append((d, env.now)))
        env.run(until=5.0)
        assert fired == [(2.0, 2.0), (5.0, 5.0), (5.0, 5.0)]
        env.run(until=9.0)
        assert fired[-1] == (9.0, 9.0)
        assert len(fired) == 4

