"""Resource/Store semantics: granting, queueing, priorities."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_grant_when_free(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        assert req.triggered
        assert res.count == 1

    def test_queue_when_full(self, env):
        res = Resource(env, capacity=1)
        res.request()
        second = res.request()
        assert not second.triggered
        assert res.queue_length == 1

    def test_release_wakes_waiter(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        res.release(first)
        assert second.triggered

    def test_fifo_order_among_equal_priority(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(tag, hold):
            with res.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(hold)

        for tag in ("a", "b", "c"):
            env.process(user(tag, 10.0))
        env.run()
        assert order == ["a", "b", "c"]

    def test_priority_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(tag, prio):
            with res.request(priority=prio) as req:
                yield req
                order.append(tag)
                yield env.timeout(10.0)

        def spawn():
            # occupy, then create contenders while busy
            with res.request() as req:
                yield req
                env.process(user("low", 5))
                env.process(user("high", 1))
                yield env.timeout(10.0)

        env.process(spawn())
        env.run()
        assert order == ["high", "low"]

    def test_release_of_queued_request_cancels_it(self, env):
        res = Resource(env, capacity=1)
        res.request()
        queued = res.request()
        res.release(queued)
        assert res.queue_length == 0
        assert not queued.triggered

    def test_double_release_is_noop(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        res.release(req)
        res.release(req)
        assert res.count == 0

    def test_multicapacity_grants(self, env):
        res = Resource(env, capacity=3)
        reqs = [res.request() for _ in range(4)]
        assert [r.triggered for r in reqs] == [True, True, True, False]

    def test_context_manager_releases(self, env):
        res = Resource(env, capacity=1)

        def user():
            with res.request() as req:
                yield req
                yield env.timeout(5.0)

        env.process(user())
        env.run()
        assert res.count == 0


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("item")
        got = store.get()
        assert got.triggered
        assert got.value == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        results = []

        def consumer():
            item = yield store.get()
            results.append((item, env.now))

        def producer():
            yield env.timeout(20.0)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert results == [("late", 20.0)]

    def test_fifo_item_order(self, env):
        store = Store(env)
        for i in range(3):
            store.put(i)
        assert [store.get().value for _ in range(3)] == [0, 1, 2]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        first = store.put("a")
        second = store.put("b")
        assert first.triggered
        assert not second.triggered
        store.get()
        assert second.triggered

    def test_filtered_get(self, env):
        store = Store(env)
        store.put({"kind": "x"})
        store.put({"kind": "y"})
        got = store.get(filter=lambda it: it["kind"] == "y")
        assert got.value == {"kind": "y"}
        assert len(store) == 1

    def test_filtered_get_waits_for_match(self, env):
        store = Store(env)
        store.put(1)
        got = store.get(filter=lambda it: it == 2)
        assert not got.triggered
        store.put(2)
        assert got.triggered
        assert got.value == 2

    def test_cancel_pending_get(self, env):
        store = Store(env)
        got = store.get()
        store.cancel(got)
        store.put("x")
        assert not got.triggered
        assert len(store) == 1

    def test_invalid_capacity_rejected(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestWaiterCancellation:
    """release() of a queued request must leave the waiter heap valid.

    Two structurally different paths: cancelling the heap's tail slot
    (cheap pop) and cancelling a mid-heap slot (which forces a re-heapify).
    Both must preserve the (priority, time, FIFO) service order of the
    surviving waiters.
    """

    def _contended(self, env, priorities):
        res = Resource(env, capacity=1)
        holder = res.request()
        waiters = [res.request(priority=p) for p in priorities]
        return res, holder, waiters

    def test_cancel_tail_waiter_keeps_order(self, env):
        res, holder, waiters = self._contended(env, [3, 1, 2])
        res.release(waiters[-1])  # the most recently queued: tail slot
        assert res.queue_length == 2
        res.release(holder)
        assert waiters[1].triggered  # priority 1 first
        res.release(waiters[1])
        assert waiters[0].triggered
        assert not waiters[2].triggered

    def test_cancel_mid_heap_waiter_reheapifies(self, env):
        # Six waiters make the heap deep enough that removing an interior
        # slot without re-heapify would leave a violated invariant.
        res, holder, waiters = self._contended(env, [5, 1, 4, 2, 6, 3])
        victim = waiters[1]  # priority 1: the heap root, never the tail
        res.release(victim)
        assert res.queue_length == 5
        served = []
        res.release(holder)
        for _ in range(5):
            (granted,) = [
                w for w in waiters if w.triggered and w not in served and w is not victim
            ]
            served.append(granted)
            res.release(granted)
        assert [w.priority for w in served] == [2, 3, 4, 5, 6]
        assert not victim.triggered

    def test_cancel_every_waiter_then_release_is_clean(self, env):
        res, holder, waiters = self._contended(env, [2, 1, 3])
        for w in waiters:
            res.release(w)
        assert res.queue_length == 0
        res.release(holder)  # wakes nobody, corrupts nothing
        assert res.count == 0
        late = res.request()
        assert late.triggered


class TestStorePutNowait:
    def test_put_nowait_deposits_without_event(self, env):
        store = Store(env)
        store.put_nowait("x")
        assert len(store) == 1
        assert store.get().value == "x"

    def test_put_nowait_serves_pending_get(self, env):
        store = Store(env)
        got = store.get()
        store.put_nowait("y")
        assert got.triggered
        assert got.value == "y"
        assert len(store) == 0

    def test_put_nowait_full_store_raises(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        with pytest.raises(SimulationError):
            store.put_nowait("b")

    def test_put_nowait_preserves_fifo_with_put(self, env):
        store = Store(env)
        store.put(1)
        store.put_nowait(2)
        store.put(3)
        assert [store.get().value for _ in range(3)] == [1, 2, 3]
