"""Unit tests for the partition primitives and the SAN seam lookahead."""

import pytest

from repro.pdes.cluster import SAN_LOOKAHEAD_US
from repro.pdes.partition import (
    MESSAGE_PRIORITY,
    CrossMessage,
    PartitionHarness,
    PartitionSpec,
    resolve_builder,
)
from repro.sim import SimulationError

from tests.pdes.toys import TOY_LOOKAHEAD_US, SilentHarness, build_island


def spec(index=0, lookahead=TOY_LOOKAHEAD_US, **cfg):
    return PartitionSpec(
        index=index,
        name=f"toy{index}",
        builder="tests.pdes.toys:build_silent",
        lookahead_us=lookahead,
        config=cfg,
    )


# -- CrossMessage -------------------------------------------------------------


def test_cross_message_round_trips_through_canonical_dict():
    msg = CrossMessage(
        src=1, dst=0, send_time=3.0, deliver_at=8.0, seq=7,
        kind="ping", payload={"op": 4},
    )
    assert CrossMessage.from_dict(msg.canonical()) == msg


def test_cross_message_order_key_sorts_like_a_monolithic_kernel():
    # deliver_at first, then send_time, then src, then per-source seq
    msgs = [
        CrossMessage(src=1, dst=0, send_time=2.0, deliver_at=9.0, seq=1, kind="a", payload={}),
        CrossMessage(src=0, dst=1, send_time=2.0, deliver_at=8.0, seq=2, kind="b", payload={}),
        CrossMessage(src=1, dst=0, send_time=1.0, deliver_at=8.0, seq=3, kind="c", payload={}),
        CrossMessage(src=0, dst=1, send_time=1.0, deliver_at=8.0, seq=1, kind="d", payload={}),
    ]
    assert [m.kind for m in sorted(msgs, key=lambda m: m.order_key)] == [
        "d", "c", "b", "a"
    ]


# -- PartitionSpec ------------------------------------------------------------


def test_partition_spec_round_trips_through_canonical_dict():
    s = spec(index=3, marker=1)
    assert PartitionSpec.from_dict(s.canonical()) == s


def test_partition_spec_rejects_negative_index():
    with pytest.raises(ValueError, match="index must be >= 0"):
        spec(index=-1)


@pytest.mark.parametrize("lookahead", [0.0, -2.5])
def test_partition_spec_rejects_nonpositive_lookahead(lookahead):
    with pytest.raises(ValueError, match="positive lookahead_us"):
        spec(lookahead=lookahead)


def test_partition_spec_rejects_builder_without_colon():
    with pytest.raises(ValueError, match="module:callable"):
        PartitionSpec(
            index=0, name="x", builder="not_a_path",
            lookahead_us=1.0,
        )


# -- resolve_builder ----------------------------------------------------------


def test_resolve_builder_imports_by_path():
    assert resolve_builder("tests.pdes.toys:build_island") is build_island


@pytest.mark.parametrize(
    "path",
    ["no.such.module:build", "tests.pdes.toys:no_such_builder"],
)
def test_resolve_builder_rejects_unresolvable_paths(path):
    with pytest.raises(ValueError, match="cannot resolve partition builder"):
        resolve_builder(path)


def test_resolve_builder_rejects_non_callable_target():
    with pytest.raises(ValueError, match="is not callable"):
        resolve_builder("tests.pdes.toys:NOT_CALLABLE")


# -- PartitionHarness plumbing ------------------------------------------------


def test_send_below_seam_lookahead_is_refused():
    h = SilentHarness(spec())
    h.build()
    with pytest.raises(ValueError, match="below the declared seam lookahead"):
        h.send(1, "ping", {}, latency_us=TOY_LOOKAHEAD_US / 2)


def test_send_defaults_latency_to_the_seam_lookahead():
    h = SilentHarness(spec())
    h.build()
    msg = h.send(1, "ping", {"op": 0})
    assert msg.deliver_at == msg.send_time + TOY_LOOKAHEAD_US
    assert msg.seq == 1 and h.sent == 1


def test_harvest_drains_the_outbox_once():
    h = SilentHarness(spec())
    h.build()
    h.send(1, "a", {})
    h.send(1, "b", {})
    assert [m.kind for m in h.harvest()] == ["a", "b"]
    assert h.harvest() == []


def test_default_eot_is_next_event_plus_lookahead():
    h = SilentHarness(spec())
    h.build()
    assert h.eot() == float("inf")  # empty queue: peek() is inf
    h.env.schedule_at(12.0, lambda: None)
    assert h.eot() == 12.0 + TOY_LOOKAHEAD_US


def test_deliver_into_the_local_past_raises():
    h = SilentHarness(spec())
    h.build()
    h.env.schedule_at(50.0, lambda: None)
    h.advance(50.0)
    late = CrossMessage(
        src=1, dst=0, send_time=10.0, deliver_at=20.0, seq=1,
        kind="late", payload={},
    )
    with pytest.raises(SimulationError):
        h.deliver([late])


def test_deliver_schedules_at_message_priority():
    """Same-tick arrivals beat local events: the order a monolithic run pins."""
    order = []
    h = SilentHarness(spec())
    h.build()
    h.on_message = lambda msg: order.append("arrival")
    h.env.schedule_at(30.0, lambda: order.append("local"))
    h.deliver([
        CrossMessage(src=1, dst=0, send_time=25.0, deliver_at=30.0, seq=1,
                     kind="tick", payload={})
    ])
    h.advance(31.0)
    assert order == ["arrival", "local"]
    assert MESSAGE_PRIORITY == 0


# -- the SAN seam -------------------------------------------------------------


def test_san_lookahead_pins_the_cluster_minimum():
    """SAN_LOOKAHEAD_US must track Cluster.min_cross_latency_us()."""
    from repro.server.cluster import Cluster
    from repro.sim import Environment

    cluster = Cluster(Environment(), n_nodes=2, n_cpus_per_node=1)
    assert SAN_LOOKAHEAD_US == cluster.min_cross_latency_us()
