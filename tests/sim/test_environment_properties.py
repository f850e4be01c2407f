"""Event-kernel property tests: the ordering and edge semantics the
experiments' exact repeatability rests on.

The run() fast path inlines step() and the trigger paths push heap tuples
directly; these tests pin the *observable contract* those shortcuts must
preserve — deterministic same-timestamp ordering, condition failure
semantics, and the run(until=...) boundary cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AnyOf, Environment, Event, Interrupt, SimulationError


# -- same-timestamp tie ordering ---------------------------------------------


@given(
    delays=st.lists(
        st.sampled_from([0.0, 1.0, 2.0, 5.0, 5.0, 10.0]), min_size=1, max_size=40
    )
)
@settings(max_examples=120, deadline=None)
def test_tie_order_is_stable_by_creation(delays):
    """Equal-time events fire in creation order: (time, seq) is a stable
    sort of the schedule, never an arbitrary heap order."""
    env = Environment()
    fired = []
    for i, delay in enumerate(delays):
        timeout = env.timeout(delay)
        timeout.callbacks.append(lambda _e, i=i: fired.append(i))
    env.run()
    assert fired == sorted(range(len(delays)), key=lambda i: delays[i])


def test_succeed_now_runs_after_earlier_same_time_timeouts():
    """An event succeeded at time t queues behind timeouts already due at t."""
    env = Environment()
    fired = []
    first = env.timeout(5.0)
    first.callbacks.append(lambda _e: fired.append("timeout"))
    kicker = env.timeout(5.0)
    manual = env.event()
    manual.callbacks.append(lambda _e: fired.append("manual"))
    kicker.callbacks.append(lambda _e: manual.succeed())
    env.run()
    assert fired == ["timeout", "manual"]


def test_urgent_priority_beats_same_time_normal():
    """URGENT (priority 0) outranks NORMAL at the same instant even when
    scheduled later — the carrier pattern Process.interrupt relies on."""
    env = Environment()
    fired = []
    normal = env.timeout(5.0)
    normal.callbacks.append(lambda _e: fired.append("normal"))
    # mirror of Process.interrupt's pre-triggered carrier event
    carrier = env.event()
    carrier._state = 1  # TRIGGERED
    carrier.callbacks.append(lambda _e: fired.append("urgent"))
    env._schedule_event(carrier, delay=5.0, priority=0)
    env.run()
    assert fired == ["urgent", "normal"]


def test_interrupt_outranks_same_time_timeout_expiry():
    """A process interrupted at the exact instant its timeout expires sees
    the Interrupt, not the timeout value."""
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(5.0)
            log.append("timeout")
        except Interrupt:
            log.append("interrupt")

    def interrupter():
        yield env.timeout(5.0)
        victim.interrupt("now")

    # The interrupter is created first so its t=5 timeout processes first;
    # the victim's own t=5 timeout is then still pending, and the URGENT
    # interrupt carrier — despite being created last — must outrank it.
    env.process(interrupter())
    victim = env.process(sleeper())
    env.run()
    assert log == ["interrupt"]


# -- AnyOf with failing members ---------------------------------------------


class Boom(Exception):
    pass


def test_anyof_first_failure_propagates_to_waiter():
    env = Environment()
    caught = []

    def waiter():
        fast_fail = env.event()
        slow = env.timeout(100.0)
        env.schedule_callback(5.0, lambda: fast_fail.fail(Boom("first")))
        try:
            yield AnyOf(env, [fast_fail, slow])
        except Boom as err:
            caught.append(str(err))

    env.process(waiter())
    env.run()
    assert caught == ["first"]


def test_condition_defuses_the_failed_member():
    """The member's failure is consumed by the condition: no crash at the
    end of the run for an 'unhandled' failed event."""
    env = Environment()
    bad = env.event()
    cond = AnyOf(env, [bad])
    cond.defused = True  # nobody waits on the condition either
    bad.fail(Boom())
    env.run()  # must not raise
    assert bad.defused
    assert cond.triggered and not cond.ok


def test_anyof_with_prefailed_member_fails_at_construction():
    env = Environment()
    bad = env.event()
    bad.defused = True  # keep the standalone failure from crashing run()
    bad.fail(Boom("early"))
    env.run()  # process the failure; bad is now PROCESSED
    cond = AnyOf(env, [bad])
    cond.defused = True
    assert cond.triggered and not cond.ok
    assert isinstance(cond.value, Boom)


def test_member_failure_after_anyof_won_still_surfaces():
    """AnyOf consumes only the failure that decides it: a member failing
    *after* the condition already succeeded is an ordinary unhandled
    failure and crashes the run (nothing silently eats errors)."""
    env = Environment()

    def waiter():
        fast = env.timeout(1.0)
        late_fail = env.event()
        env.schedule_callback(10.0, lambda: late_fail.fail(Boom("after")))
        value = yield AnyOf(env, [fast, late_fail])
        assert fast in value

    env.process(waiter())
    with pytest.raises(Boom):
        env.run()


# -- run(until=Event) edges ---------------------------------------------------


def test_run_until_failing_event_raises_and_defuses():
    env = Environment()
    ev = env.event()
    env.schedule_callback(5.0, lambda: ev.fail(Boom("stop")))
    with pytest.raises(Boom):
        env.run(until=ev)
    assert ev.defused
    assert env.now == 5.0


def test_run_until_already_processed_failed_event_raises():
    env = Environment()
    ev = env.event()
    ev.defused = True
    ev.fail(Boom())
    env.run()  # processes the failure
    with pytest.raises(Boom):
        env.run(until=ev)


def test_run_until_event_halts_before_later_same_time_events():
    """Stopping on an event is immediate: same-instant events queued after
    it are left unprocessed (and the clock stays at the stop time)."""
    env = Environment()
    fired = []
    stop = env.timeout(5.0, value="done")
    later = env.timeout(5.0)
    later.callbacks.append(lambda _e: fired.append("later"))
    assert env.run(until=stop) == "done"
    assert env.now == 5.0
    assert fired == []
    env.run()  # the leftover event is still queued and runs normally
    assert fired == ["later"]


def test_run_until_triggered_but_unprocessed_event_returns():
    env = Environment()
    ev = env.event()
    ev.succeed("v")  # TRIGGERED, sits in the queue unprocessed
    assert env.run(until=ev) == "v"


def test_run_until_time_boundary_is_inclusive():
    env = Environment()
    fired = []
    at_bound = env.timeout(10.0)
    at_bound.callbacks.append(lambda _e: fired.append("bound"))
    env.run(until=10.0)
    assert fired == ["bound"]
    assert env.now == 10.0


def test_run_until_event_with_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=env.event())


def test_run_until_event_from_process_return_value():
    env = Environment()

    def body():
        yield env.timeout(3.0)
        return 42

    assert env.run(until=env.process(body())) == 42
    assert env.now == 3.0
