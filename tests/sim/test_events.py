"""Event lifecycle, values, failures, and condition composition."""

import pytest

from repro.sim import AnyOf, Environment, SimulationError, Timeout


@pytest.fixture
def env():
    return Environment()


def test_fresh_event_is_untriggered(env):
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed


def test_value_before_trigger_raises(env):
    with pytest.raises(SimulationError):
        env.event().value


def test_ok_before_trigger_raises(env):
    with pytest.raises(SimulationError):
        env.event().ok


def test_succeed_fixes_value(env):
    ev = env.event().succeed(13)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 13


def test_double_succeed_raises(env):
    ev = env.event().succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_fail_requires_exception(env):
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")


def test_fail_fixes_exception(env):
    err = ValueError("boom")
    ev = env.event().fail(err)
    ev.defused = True
    assert ev.triggered
    assert not ev.ok
    assert ev.value is err


def test_unhandled_failed_event_surfaces_in_run(env):
    env.event().fail(RuntimeError("lost failure"))
    with pytest.raises(RuntimeError, match="lost failure"):
        env.run()


def test_defused_failed_event_does_not_crash_run(env):
    ev = env.event().fail(RuntimeError("handled"))
    ev.defused = True
    env.run()  # no raise


def test_callbacks_receive_event(env):
    seen = []
    ev = env.event()
    ev.callbacks.append(seen.append)
    ev.succeed("v")
    env.run()
    assert seen == [ev]
    assert ev.processed


def test_trigger_copies_outcome(env):
    src = env.event().succeed(5)
    dst = env.event()
    dst.trigger(src)
    assert dst.value == 5


def test_timeout_cannot_be_retriggered(env):
    t = env.timeout(1.0)
    with pytest.raises(SimulationError):
        t.succeed()
    with pytest.raises(SimulationError):
        t.fail(ValueError())


def test_timeout_is_built_by_the_environment_only(env):
    t = env.timeout(1.0)
    assert type(t) is Timeout
    with pytest.raises(SimulationError):
        Timeout(env, 1.0)


def test_timeout_stays_pending_until_the_clock_reaches_it(env):
    """Its value is fixed at creation, yet a condition built before the
    clock reaches it must not fire early."""
    t = env.timeout(5.0, value="t")
    wakeup = env.event()
    cond = AnyOf(env, [wakeup, t])
    assert not t.triggered and not cond.triggered
    env.run(until=4.0)
    assert not t.triggered and not cond.triggered
    env.run(until=cond)
    assert env.now == 5.0
    assert t.processed
    assert cond.value.todict() == {t: "t"}


class TestConditions:
    def test_anyof_fires_on_first(self, env):
        a, b = env.timeout(1.0, value="a"), env.timeout(5.0, value="b")
        cond = AnyOf(env, [a, b])
        result = env.run(until=cond)
        assert env.now == 1.0
        assert a in result
        assert b not in result

    def test_or_operator(self, env):
        a, b = env.timeout(2.0), env.timeout(3.0)
        env.run(until=a | b)
        assert env.now == 2.0

    def test_empty_anyof_is_immediately_true(self, env):
        cond = AnyOf(env, [])
        assert cond.triggered
        assert len(env.run(until=cond)) == 0

    def test_anyof_with_pretriggered_member_fires_immediately(self, env):
        done = env.event().succeed("x")
        later = env.timeout(10.0)
        cond = AnyOf(env, [done, later])
        assert cond.triggered

    def test_condition_fails_when_member_fails(self, env):
        good = env.timeout(5.0)
        bad = env.event()
        cond = AnyOf(env, [good, bad])
        bad.fail(ValueError("member failed"))
        with pytest.raises(ValueError, match="member failed"):
            env.run(until=cond)

    def test_condition_value_mapping_interface(self, env):
        # both members triggered before the condition fires, so both count
        a = env.event().succeed(1)
        b = env.event().succeed(2)
        cond = AnyOf(env, [a, b])
        env.run(until=cond)
        cv = cond.value
        assert len(cv) == 2
        assert list(cv) == [a, b]
        assert cv.todict() == {a: 1, b: 2}
        with pytest.raises(KeyError):
            cv[env.event()]

    def test_cross_environment_condition_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AnyOf(env, [env.event(), other.event()])
