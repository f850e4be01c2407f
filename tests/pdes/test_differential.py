"""Differential: monolithic kernel vs. partitioned windows, random ops.

Hypothesis scripts BOTH islands of the toy workload with interleaved
timeout / succeed(send) / interrupt ops, then executes the same script
two ways: once on a single shared kernel (cross sends scheduled
directly, the monolithic reference) and once through the conservative
window protocol. The observable logs must be identical — including the
tie-heavy schedules, same-tick arrival/local races, and reactive
cascades the real workloads may never produce. This is the adversarial
counterpart to the golden-digest byte-identity proof, in the same
spirit as the run/step differential in tests/sim.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pdes.coordinator import run_partitioned
from repro.pdes.partition import PartitionSpec
from repro.sim import Environment

from tests.pdes.toys import DENSE_OPS_A, DENSE_OPS_B, TOY_LOOKAHEAD_US, MonoIsland

#: simulation horizon: past the waiter timeout, past every cascade
UNTIL_US = 20_000.0

#: a tie-heavy time grid: repeated values force same-tick cohorts, and
#: 40.0 lands sends from both islands in the same coordinator window
TIMES = st.sampled_from([0.0, 1.0, 5.0, 5.0, 12.5, 40.0, 40.0, 100.0])

#: one op = [kind, time, aux]; aux widens the send latency past the seam
OPS = st.lists(
    st.tuples(
        st.sampled_from(["timeout", "succeed", "interrupt"]),
        TIMES,
        st.integers(min_value=0, max_value=7),
    ),
    min_size=0,
    max_size=10,
).map(lambda ops: [[kind, when, aux] for kind, when, aux in ops])


def island_specs(ops_a, ops_b):
    return [
        PartitionSpec(
            index=0, name="island0",
            builder="tests.pdes.toys:build_island",
            lookahead_us=TOY_LOOKAHEAD_US,
            config={"peer": 1, "ops": ops_a},
        ),
        PartitionSpec(
            index=1, name="island1",
            builder="tests.pdes.toys:build_island",
            lookahead_us=TOY_LOOKAHEAD_US,
            config={"peer": 0, "ops": ops_b},
        ),
    ]


def run_monolithic(ops_a, ops_b):
    """Both islands on ONE kernel: the causality ground truth."""
    env = Environment()
    registry = {}
    specs = island_specs(ops_a, ops_b)
    islands = [MonoIsland(spec, env, registry) for spec in specs]
    for island in islands:
        registry[island.index] = island
    for island in islands:
        island.build()
    env.run(until=UNTIL_US)
    return {island.index: island.finish() for island in islands}


def run_windows(ops_a, ops_b, workers=None):
    outcome = run_partitioned(
        island_specs(ops_a, ops_b), until=UNTIL_US, workers=workers
    )
    return outcome["fragments"]


@given(ops_a=OPS, ops_b=OPS)
@settings(max_examples=60, deadline=None)
# a message delivering exactly AT a window bound (send at 0, latency 5)
# racing a local event at that bound (timeout at 5): caught the
# inclusive-advance ordering inversion that exclusive windows fix
@example(ops_a=[["timeout", 5.0, 0]], ops_b=[["succeed", 0.0, 0]])
def test_partitioned_logs_match_the_monolithic_kernel(ops_a, ops_b):
    assert run_windows(ops_a, ops_b) == run_monolithic(ops_a, ops_b)


def test_process_executor_matches_the_monolithic_kernel_too():
    """One fixed dense script through spawned workers (spawn is slow, so
    the randomized sweep above stays serial; the executors are proven
    byte-identical separately in test_coordinator.py)."""
    assert run_windows(DENSE_OPS_A, DENSE_OPS_B, workers=2) == run_monolithic(
        DENSE_OPS_A, DENSE_OPS_B
    )
