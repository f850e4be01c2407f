"""The admission front door: tiers, at-most-once placement, node loss."""

import pytest

from repro.cluster import ClusterPlane
from repro.core.attributes import StreamSpec
from repro.experiments.calibration import figure_mpeg_file
from repro.faults import FaultPlane
from repro.media import FrameType, MediaFrame
from repro.sim import Environment, RandomStreams, S


def admit_all(env, plane, specs, service_time_us, at_us=0.0):
    """Kick one process that admits *specs* in order; returns tier list."""
    tiers = []

    def proc():
        for i, spec in enumerate(specs):
            file = figure_mpeg_file(spec.stream_id, seed=i, n_frames=8)
            tier = yield from plane.frontdoor.admit_stream(
                spec, service_time_us, file, inject_gap_us=100_000.0
            )
            tiers.append(tier)

    def kick():
        env.process(proc(), name="test.admit")

    if at_us > 0:
        env.schedule_callback(at_us, kick, name="test.admit.kick")
    else:
        kick()
    return tiers


def specs_named(*sids, period_us=1_000_000.0):
    return [StreamSpec(s, period_us=period_us, loss_x=1, loss_y=2) for s in sids]


def nodes_serving(plane, stream_id):
    """How many node services actually schedule *stream_id* right now."""
    count = 0
    for node in plane.nodes:
        runtime = node.service.runtime_of(stream_id)
        if runtime is not None and stream_id in runtime.scheduler.streams:
            count += 1
    return count


class TestBackpressureTiers:
    def test_full_then_degraded_then_parked(self):
        """Capacity math: cost = (1-x/y)·C/T = 0.5 at full tier, 0.25
        degraded, bound 0.85/card ⇒ each card takes 1 full + 1 degraded.
        2 nodes × 2 cards ⇒ 4 full, 4 degraded, the rest park."""
        env = Environment()
        plane = ClusterPlane(env, n_nodes=2)
        specs = specs_named(*[f"s{i}" for i in range(10)])
        tiers = admit_all(env, plane, specs, service_time_us=1_000_000.0)
        env.run(until=5 * S)
        assert tiers.count("full") == 4
        assert tiers.count("degraded") == 4
        assert tiers.count(None) == 2
        census = plane.account()
        assert census["placed"] == 8
        assert census["degraded"] == 4
        assert census["parked"] == 2
        assert census["unaccounted"] == 0
        plane.ledger.check()

    def test_degraded_streams_marked_on_the_serving_node(self):
        env = Environment()
        plane = ClusterPlane(env, n_nodes=2)
        specs = specs_named(*[f"s{i}" for i in range(5)])
        admit_all(env, plane, specs, service_time_us=1_000_000.0)
        env.run(until=5 * S)
        degraded = [
            e.stream_id
            for sid in (s.stream_id for s in specs)
            if (e := plane.ledger.entry(sid)) is not None and e.tier == "degraded"
        ]
        assert degraded
        for sid in degraded:
            assert sid in plane.service_of(sid).degraded_streams


class TestAtMostOncePlacement:
    """The acceptance bar: injected drop/dup windows never double-place."""

    def _run_under_fault(self, drop_rate=None, dup_rate=None, n_streams=6):
        env = Environment()
        fault = FaultPlane(env, seed=9)
        if drop_rate:
            fault.inject_rpc_drop("fd<->*", 0.0, 1e12, rate=drop_rate)
        if dup_rate:
            fault.inject_rpc_duplication("fd<->*", 0.0, 1e12, rate=dup_rate)
        plane = ClusterPlane(env, n_nodes=3, rng=RandomStreams(5))
        specs = specs_named(*[f"s{i}" for i in range(n_streams)])
        admit_all(env, plane, specs, service_time_us=2_000.0)
        env.run(until=30 * S)
        return plane, specs

    def test_duplicated_deliveries_never_double_place(self):
        plane, specs = self._run_under_fault(dup_rate=1.0)
        assert plane.rpc.dup_deliveries > 0
        assert sum(n.dup_suppressed for n in plane.nodes) > 0
        for spec in specs:
            assert nodes_serving(plane, spec.stream_id) == 1
        assert plane.account()["placed"] == len(specs)
        plane.ledger.check()

    def test_dropped_and_retried_admits_never_double_place(self):
        plane, specs = self._run_under_fault(drop_rate=0.5, dup_rate=0.5)
        telemetry = plane.rpc.telemetry()
        assert telemetry["retries"] > 0  # the fault actually bit
        for spec in specs:
            sid = spec.stream_id
            entry = plane.ledger.entry(sid)
            assert entry is not None, f"{sid} vanished from the ledger"
            serving = nodes_serving(plane, sid)
            assert serving <= 1, f"{sid} double-placed on {serving} nodes"
            if entry.state == "placed":
                assert serving == 1
                assert plane.ledger.node_of(sid) is not None
            else:
                # parked via rescind: nobody may still serve it
                assert entry.state == "parked"
                assert serving == 0
        assert plane.account()["unaccounted"] == 0
        plane.ledger.check()

    def test_rescind_poisons_a_never_executed_admit(self):
        """An admit whose request legs were all lost gets rescinded; a
        late duplicate of the poisoned token must refuse, not place."""
        env = Environment()
        plane = ClusterPlane(env, n_nodes=2)
        node = plane.nodes[0]
        results = []

        def proc():
            reply = yield from node.exec_control(
                "rescind", {"admit_token": "admit:sX:0", "stream_id": "sX"}, "r0"
            )
            results.append(reply)
            spec = specs_named("sX")[0]
            reply = yield from node.exec_control(
                "admit",
                {
                    "spec": spec,
                    "service_time_us": 2_000.0,
                    "file": figure_mpeg_file("sX", seed=0, n_frames=8),
                },
                "admit:sX:0",
            )
            results.append(reply)

        env.process(proc())
        env.run(until=1 * S)
        assert results[0] == {"ok": True, "undone": False}
        assert results[1]["ok"] is False
        assert "rescinded" in results[1]["reason"]
        assert nodes_serving(plane, "sX") == 0


class TestNodeLoss:
    def _crash_node(self, env, plane, index, at_us, down_us=None):
        node = plane.nodes[index]

        def crash():
            for card in node.critical_cards:
                if not card.crashed:
                    card.crash()

        def reset():
            for card in node.critical_cards:
                if card.crashed:
                    card.reset()

        env.schedule_callback(at_us, crash, name=f"test.crash:{node.name}")
        if down_us is not None:
            env.schedule_callback(
                at_us + down_us, reset, name=f"test.reset:{node.name}"
            )

    def test_node_crash_reaccounts_every_stream_within_budget(self):
        env = Environment()
        plane = ClusterPlane(env, n_nodes=3)
        specs = specs_named(*[f"s{i}" for i in range(6)])
        admit_all(env, plane, specs, service_time_us=2_000.0)
        self._crash_node(env, plane, index=1, at_us=4 * S)
        env.run(until=10 * S)
        meter = plane.meter
        assert meter.fault_at_us == 4 * S
        assert meter.detection_latency_us is not None
        assert meter.detection_latency_us < 800_000.0  # the 800 ms budget
        assert meter.recovered_at_us is not None
        dead = plane.nodes[1].name
        assert plane.ledger.placed_count(dead) == 0
        census = plane.account()
        assert census["unaccounted"] == 0
        assert census["placed"] + census["parked"] + census["lost"] == len(specs)
        # every stream the dead node served was re-admitted or parked
        assert set(meter.migrated) | set(meter.parked) | set(meter.parked)
        for sid in meter.migrated:
            assert nodes_serving(plane, sid) == 1
            assert plane.ledger.node_of(sid) != dead
        plane.ledger.check()

    def test_concurrent_flaps_do_not_stampede(self):
        """Two nodes flap (crash + reset) inside the watchdog deadline at
        the same time: ride-out means no migration, no breaker opens, no
        placement changes — per node, not just in aggregate."""
        env = Environment()
        plane = ClusterPlane(env, n_nodes=3)
        specs = specs_named(*[f"s{i}" for i in range(6)])
        admit_all(env, plane, specs, service_time_us=2_000.0)
        env.run(until=3 * S)
        before = {
            node.name: plane.ledger.streams_on(node.name) for node in plane.nodes
        }
        # both flaps inside the 640 ms front-door deadline (and the local
        # HA deadline): down 250 ms, concurrently on two nodes
        self._crash_node(env, plane, index=1, at_us=3.1 * S, down_us=250_000.0)
        self._crash_node(env, plane, index=2, at_us=3.1 * S, down_us=250_000.0)
        env.run(until=8 * S)
        assert plane.meter.migrated == []
        assert plane.meter.parked == []
        after = {
            node.name: plane.ledger.streams_on(node.name) for node in plane.nodes
        }
        assert after == before
        for watchdog in plane.frontdoor.watchdogs:
            assert watchdog.state == "alive"
        for breaker in plane.frontdoor.breakers:
            assert breaker.closed
        plane.ledger.check()

    def test_partitioned_node_is_not_migrated(self):
        """Control-path silence with a live SAN probe: breaker opens, no
        failover, and the breaker closes once beats resume."""
        env = Environment()
        fault = FaultPlane(env, seed=3)
        plane = ClusterPlane(env, n_nodes=3)
        specs = specs_named(*[f"s{i}" for i in range(6)])
        admit_all(env, plane, specs, service_time_us=2_000.0)
        target = plane.nodes[1]
        fault.inject_rpc_drop(target.channel.name, 3 * S, 5 * S, rate=1.0)
        env.run(until=8 * S)
        assert plane.meter.partitions >= 1
        assert plane.meter.migrated == []
        assert plane.frontdoor.breakers[1].opens >= 1
        assert plane.frontdoor.breakers[1].closed  # healed after the window
        assert plane.frontdoor.watchdogs[1].state == "alive"
        assert plane.account()["unaccounted"] == 0
        plane.ledger.check()


class TestHandoff:
    def test_graceful_handoff_moves_the_stream(self):
        env = Environment()
        plane = ClusterPlane(env, n_nodes=3)
        specs = specs_named("s0")
        admit_all(env, plane, specs, service_time_us=2_000.0)
        env.run(until=2 * S)
        source = plane.ledger.node_of("s0")
        target_index = next(
            i for i, n in enumerate(plane.nodes) if n.name != source
        )
        out = {}

        def proc():
            out["tier"] = yield from plane.frontdoor.handoff("s0", target_index)

        env.process(proc())
        env.run(until=4 * S)
        assert out["tier"] == "full"
        assert plane.ledger.node_of("s0") == plane.nodes[target_index].name
        assert nodes_serving(plane, "s0") == 1
        assert plane.frontdoor.handoffs == 1
        plane.ledger.check()

    def test_handoff_of_unplaced_stream_rejected(self):
        env = Environment()
        plane = ClusterPlane(env, n_nodes=2)
        with pytest.raises(ValueError, match="not placed"):
            next(plane.frontdoor.handoff("ghost", 0))


class TestEvictionDrain:
    def test_drained_eviction_leaves_no_head_of_line_entry(self):
        # ClusterNode empties the ring itself before remove_stream; the
        # scheduler must still hold an entry exactly per non-empty queue
        env = Environment()
        plane = ClusterPlane(env, n_nodes=2)
        admit_all(env, plane, specs_named("s0", "s1"), service_time_us=2_000.0)
        env.run(until=2 * S)
        node = next(n for n in plane.nodes if n.name == plane.ledger.node_of("s0"))
        scheduler = node.service.runtime_of("s0").scheduler
        for k in range(3):
            scheduler.enqueue(MediaFrame("s0", 1_000 + k, FrameType.I, 1_000, 0.0), env.now)
        assert "s0" in scheduler._entries
        discarded = node.frames_discarded
        assert node._evict({"stream_id": "s0"})["ok"]
        assert node.frames_discarded >= discarded + 3
        assert "s0" not in scheduler.streams
        assert set(scheduler._entries) == {
            sid for sid, q in scheduler.queues.items() if len(q)
        }


class TestPlaneValidation:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            ClusterPlane(Environment(), n_nodes=1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="placement policy"):
            ClusterPlane(Environment(), n_nodes=2, policy="first-fit")
