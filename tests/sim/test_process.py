"""Process coroutines: spawning, waiting, returning, failing, interrupting."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


@pytest.fixture
def env():
    return Environment()


def test_process_runs_and_returns_value(env):
    def proc():
        yield env.timeout(5.0)
        return "finished"

    p = env.process(proc())
    assert env.run(until=p) == "finished"
    assert env.now == 5.0


def test_process_is_alive_until_done(env):
    def proc():
        yield env.timeout(5.0)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_receives_event_values(env):
    def proc():
        got = yield env.timeout(1.0, value="hello")
        return got

    assert env.run(until=env.process(proc())) == "hello"


def test_process_exception_fails_process_event(env):
    def proc():
        yield env.timeout(1.0)
        raise ValueError("inside")

    p = env.process(proc())
    with pytest.raises(ValueError, match="inside"):
        env.run(until=p)


def test_unwaited_process_failure_crashes_run(env):
    def proc():
        yield env.timeout(1.0)
        raise ValueError("unobserved")

    env.process(proc())
    with pytest.raises(ValueError, match="unobserved"):
        env.run()


def test_waiting_on_another_process(env):
    def child():
        yield env.timeout(3.0)
        return 99

    def parent():
        value = yield env.process(child())
        return value + 1

    assert env.run(until=env.process(parent())) == 100


def test_failed_event_thrown_into_process_can_be_caught(env):
    def proc():
        ev = env.event()
        env.schedule_callback(2.0, lambda: ev.fail(RuntimeError("deliberate")))
        try:
            yield ev
        except RuntimeError as e:
            return f"caught {e}"

    assert env.run(until=env.process(proc())) == "caught deliberate"


def test_yield_non_event_raises(env):
    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_waiting_on_already_processed_event(env):
    done = env.timeout(1.0, value="early")

    def proc():
        yield env.timeout(10.0)
        got = yield done  # already processed by now
        return got

    p = env.process(proc())
    assert env.run(until=p) == "early"
    assert env.now == 10.0


def test_spawn_requires_generator(env):
    with pytest.raises(SimulationError):
        env.process(lambda: None)


def test_active_process_tracking(env):
    observed = []

    def proc():
        observed.append(env.active_process)
        yield env.timeout(1.0)
        observed.append(env.active_process)

    p = env.process(proc())
    env.run()
    assert observed == [p, p]
    assert env.active_process is None


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)
            return ("completed", None, env.now)

        v = env.process(victim())

        def attacker():
            yield env.timeout(10.0)
            v.interrupt("stop it")

        env.process(attacker())
        assert env.run(until=v) == ("interrupted", "stop it", 10.0)

    def test_interrupted_process_can_continue(self, env):
        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(5.0)
            return env.now

        v = env.process(victim())

        def attacker():
            yield env.timeout(10.0)
            v.interrupt()

        env.process(attacker())
        assert env.run(until=v) == 15.0

    def test_uncaught_interrupt_fails_process(self, env):
        def victim():
            yield env.timeout(100.0)

        v = env.process(victim())

        def attacker():
            yield env.timeout(1.0)
            v.interrupt()

        env.process(attacker())
        with pytest.raises(Interrupt):
            env.run(until=v)

    def test_interrupt_finished_process_raises(self, env):
        def quick():
            yield env.timeout(1.0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        def proc():
            env.active_process.interrupt()
            yield env.timeout(1.0)

        p = env.process(proc())
        with pytest.raises(SimulationError):
            env.run(until=p)

    def test_old_target_still_fires_after_interrupt(self, env):
        """After an interrupt the old target stays valid; waiting on it again works."""
        marker = env.timeout(50.0, value="late")

        def victim():
            try:
                yield marker
            except Interrupt:
                got = yield marker  # re-wait on the same event
                return got

        v = env.process(victim())

        def attacker():
            yield env.timeout(10.0)
            v.interrupt()

        env.process(attacker())
        assert env.run(until=v) == "late"
        assert env.now == 50.0

    def test_interrupt_after_run_stopped_on_the_awaited_event(self, env):
        """``run(until=ev)`` registers its stop callback before a process
        that later waits on ``ev``: the loop stops before that process
        resumes, so it still names the processed ``ev`` as its target. An
        interrupt must still reach it."""
        ev = env.event()

        def waiter():
            try:
                yield ev
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)
            return ("resumed", None, env.now)

        w = env.process(waiter())

        def trigger():
            yield env.timeout(1.0)
            ev.succeed("x")

        env.process(trigger())
        assert env.run(until=ev) == "x"
        assert w.is_alive
        w.interrupt("late")
        assert env.run(until=w) == ("interrupted", "late", 1.0)
