"""VCMPeerDown: typed fail-fast when the local peer card is gone."""

from repro.dvcm import (
    ExtensionModule,
    MessageQueuePair,
    VCMInterface,
    VCMPeerDown,
    VCMRuntime,
    VCMTimeout,
)
from repro.rtos import WindScheduler
from repro.server import ServerNode
from repro.sim import Environment


def echo_module():
    mod = ExtensionModule("echo")
    mod.provide("ping", lambda payload: payload.get("value"))
    return mod


def card_rig(env):
    node = ServerNode(env, n_cpus=1)
    card = node.add_i960_card(segment=0)
    queues = MessageQueuePair(env, card.segment, name=card.name)
    runtime = VCMRuntime(env, queues, card.cpu, card=card)
    runtime.load_extension(echo_module())
    rtos = WindScheduler(env)
    rtos.spawn("tVCM", runtime.task_body, priority=60)
    return card, queues, runtime


class TestLocalCardPeerDown:
    def test_call_fails_fast_when_the_card_is_down(self):
        env = Environment()
        card, queues, _runtime = card_rig(env)
        api = VCMInterface(env, queues, card=card)
        card.crash()
        errors = []

        def caller():
            try:
                yield from api.call("echo.ping", {"value": 1})
            except VCMPeerDown as err:
                errors.append((env.now, err))

        env.process(caller())
        env.run(until=10_000_000)
        assert len(errors) == 1
        at, err = errors[0]
        assert at == 0.0  # fail-fast: no retry/backoff burned
        assert card.name in str(err)
        assert api.peer_down_errors == 1
        assert api.retries == 0

    def test_crash_mid_call_raises_peer_down_not_timeout(self):
        env = Environment()
        card, queues, _runtime = card_rig(env)
        api = VCMInterface(env, queues, timeout_us=50_000.0, max_retries=2, card=card)
        outcome = []

        def caller():
            try:
                yield from api.call("echo.ping", {"value": 1}, timeout_us=50_000.0)
            except VCMPeerDown:
                outcome.append("peer-down")
            except VCMTimeout:
                outcome.append("timeout")

        # crash after the first post but before any reply can land: the
        # retry loop must convert to the typed peer-down error
        env.schedule_callback(1.0, card.crash)
        env.process(caller())
        env.run(until=10_000_000)
        assert outcome == ["peer-down"]

    def test_without_card_binding_the_generic_timeout_remains(self):
        env = Environment()
        card, queues, _runtime = card_rig(env)
        api = VCMInterface(env, queues, timeout_us=50_000.0, max_retries=1)
        outcome = []

        def caller():
            try:
                yield from api.call("echo.ping", {"value": 1})
            except VCMTimeout:
                outcome.append("timeout")

        card.crash()
        env.process(caller())
        env.run(until=10_000_000)
        assert outcome == ["timeout"]

    def test_healthy_card_calls_still_roundtrip(self):
        env = Environment()
        card, queues, _runtime = card_rig(env)
        api = VCMInterface(env, queues, card=card)
        got = []

        def caller():
            result = yield from api.call("echo.ping", {"value": 42})
            got.append(result)

        env.process(caller())
        env.run(until=10_000_000)
        assert got == [42]
        assert api.peer_down_errors == 0

    def test_peer_down_is_a_vcm_error_subtype(self):
        from repro.dvcm.api import VCMError

        assert issubclass(VCMPeerDown, VCMError)
        assert not issubclass(VCMPeerDown, VCMTimeout)

