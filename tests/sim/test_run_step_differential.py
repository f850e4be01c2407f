"""Differential: the three ways to run one Environment under random schedules.

``Environment.run()`` inlines the body of ``Environment.step()`` for
speed, and its docstring says the two must stay in step. Hypothesis
builds interleaved timeout / succeed / cancel / interrupt / watch
schedules and runs each one three ways on fresh environments:

* ``run()`` to exhaustion;
* ``run(until=split)`` and then ``run()``;
* ``while env._queue: env.step()``.

The observable traces (who fired, at what clock, in which order) must be
equal. The ``watch`` op hangs a second callback on an existing event, so
the order in which one event's callbacks run is part of the trace: a
``step()`` that ran them in any other order than ``run()`` fails here.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt

#: a tie-heavy delay grid: repeated values force same-tick events
DELAYS = st.sampled_from([0.0, 0.0, 1.0, 2.5, 5.0, 5.0, 5.0, 10.0, 40.0])

#: one op = (kind, delay, aux)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["timeout", "succeed_later", "cancel", "interrupt", "watch"]),
        DELAYS,
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=30,
)

SPLITS = st.sampled_from([0.0, 2.5, 5.0, 10.0, 50.0])


def run_to_end(env, _split):
    env.run()


def run_in_two_segments(env, split):
    env.run(until=float(split))
    env.run()


def step_loop(env, _split):
    while env._queue:
        env.step()


def trace_of(run_mode, ops, split):
    """Build one op sequence on a fresh kernel, execute it with
    *run_mode*, and return the observable trace."""
    env = Environment()
    trace = []
    cancelable = []
    watchable = []

    def waiter(k):
        try:
            yield env.timeout(10_000.0)
            trace.append(("waiter-done", k, env.now))
        except Interrupt as it:
            trace.append(("interrupted", k, it.cause, env.now))

    for k, (kind, delay, aux) in enumerate(ops):
        if kind == "timeout":
            t = env.timeout(delay)
            t.callbacks.append(lambda _e, k=k: trace.append(("fire", k, env.now)))
            cancelable.append(t)
            watchable.append(t)
        elif kind == "succeed_later":
            # a manual event succeeded from inside the run, at `delay`:
            # exercises mid-run same-tick insertion
            target = env.event()
            target.callbacks.append(
                lambda _e, k=k: trace.append(("manual", k, env.now))
            )
            env.timeout(delay).callbacks.append(
                lambda _e, tg=target: tg.succeed()
            )
            watchable.append(target)
        elif kind == "cancel":
            # cancellation in this kernel is a callback-level concern: the
            # event still pops (in order) but observes nothing
            if cancelable:
                cancelable[aux % len(cancelable)].callbacks.clear()
        elif kind == "interrupt":
            # an URGENT delivery that overtakes same-tick NORMAL events
            proc = env.process(waiter(k))
            env.timeout(delay).callbacks.append(
                lambda _e, p=proc, k=k: p.interrupt(k) if p.is_alive else None
            )
        elif kind == "watch":
            # a later callback on an existing event: callback order shows
            if watchable:
                watchable[aux % len(watchable)].callbacks.append(
                    lambda _e, k=k: trace.append(("watch", k, env.now))
                )

    run_mode(env, split)
    # no clock here: run(until=split) deliberately lands `now` on split
    trace.append(("end", len(env._queue)))
    return trace


@given(ops=OPS, split=SPLITS)
@example(ops=[("timeout", 5.0, 0), ("watch", 0.0, 0)], split=0.0)
@settings(max_examples=80, deadline=None)
def test_run_segments_and_step_loop_produce_identical_traces(ops, split):
    reference = trace_of(run_to_end, ops, split)
    assert trace_of(run_in_two_segments, ops, split) == reference
    assert trace_of(step_loop, ops, split) == reference
