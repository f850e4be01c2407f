"""The kernel's steady state makes no cyclic garbage.

A fired or failed condition takes its callback off the members that have
not run theirs, and a finished process drops the bound resume callback that
refers back to it. Reference counting alone then frees both, so these tests
run with the cyclic collector disabled and check that nothing is left for
it. None of this may change what a run observes: a member that fails after
its condition has fired still surfaces from ``run()``.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.sim import AnyOf, Environment
from repro.sim.process import Process


class _WeakProcess(Process):
    """A process that accepts weak references (the kernel's own need none)."""

    __slots__ = ("__weakref__",)


@contextmanager
def cyclic_gc_off():
    """Collect what earlier code left, then keep the cyclic collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def callbacks_of(cond, member):
    """The callbacks *member* holds that belong to *cond*."""
    return [cb for cb in member.callbacks if getattr(cb, "__self__", None) is cond]


@pytest.fixture
def env():
    return Environment()


class TestConditionDetach:
    def test_fired_anyof_leaves_no_callback_on_its_pending_member(self, env):
        pending = env.event()
        mine = []
        pending.callbacks.append(mine.append)
        cond = AnyOf(env, [pending, env.timeout(1.0)])
        assert callbacks_of(cond, pending)
        env.run()
        assert cond.processed
        assert not pending.triggered
        assert callbacks_of(cond, pending) == []
        # only the condition's callback went: the member's own stays
        assert pending.callbacks == [mine.append]

    def test_failed_anyof_leaves_no_callback_on_others(self, env):
        before, after = env.event(), env.timeout(5.0)
        bad = env.event()
        cond = AnyOf(env, [before, bad, after])
        cond.defused = True
        bad.fail(ValueError("member failed"))
        env.run(until=1.0)
        assert not cond.ok
        assert bad.defused
        assert callbacks_of(cond, before) == []
        assert callbacks_of(cond, after) == []

    def test_anyof_fired_at_construction_registers_nothing(self, env):
        done = env.event().succeed()
        first, last = env.event(), env.event()
        cond = AnyOf(env, [first, done, last])
        assert cond.triggered
        assert callbacks_of(cond, first) == []
        assert callbacks_of(cond, last) == []

    def test_member_failing_after_its_condition_fired_still_surfaces(self, env):
        winner, loser = env.event(), env.event()
        got = []

        def waiter():
            got.append((yield winner | loser))

        env.process(waiter())
        env.timeout(0.5).callbacks.append(lambda _e: winner.succeed("first"))
        env.timeout(1.0).callbacks.append(
            lambda _e: loser.fail(ValueError("late failure"))
        )
        with pytest.raises(ValueError, match="late failure"):
            env.run()
        assert list(got[0]) == [winner]
        assert not loser.defused


class TestProcessLifetime:
    def test_finished_process_dies_at_once(self, env):
        def body():
            yield env.timeout(1.0)
            return "done"

        with cyclic_gc_off():
            proc = _WeakProcess(env, body())
            ref = weakref.ref(proc)
            assert env.run(until=proc) == "done"
            del proc
            assert ref() is None

    def test_failed_process_dies_at_once(self, env):
        refs = []

        def body():
            yield env.timeout(1.0)
            raise ValueError("inside")

        def spawn():
            proc = _WeakProcess(env, body())
            refs.append(weakref.ref(proc))
            return proc

        def waiter():
            try:
                yield spawn()
            except ValueError:
                return "caught"

        with cyclic_gc_off():
            assert env.run(until=env.process(waiter())) == "caught"
            assert refs[0]() is None

    def test_failure_traceback_still_names_the_raising_line(self, env):
        def body():
            yield env.timeout(1.0)
            raise ValueError("inside")

        env.process(body())
        with pytest.raises(ValueError) as info:
            env.run()
        names = [entry.name for entry in info.traceback]
        assert names[-1] == "body"


def test_idle_waits_the_timeout_wins_leave_nothing_for_the_collector():
    env = Environment()

    def idle_poll():
        for _ in range(1_000):
            wakeup = env.event()
            yield wakeup | env.timeout(2_000.0)

    with cyclic_gc_off():
        env.process(idle_poll())
        env.run()
        assert env.now == 2_000_000.0
        assert gc.collect() == 0
