"""Cluster topology: N nodes, each with one card on the SAN switch."""

import pytest

from repro.server import Cluster
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestCluster:
    def test_topology(self, env):
        cluster = Cluster(env, n_nodes=4)
        assert len(cluster.nodes) == 4
        assert len(cluster.san.port_names) == 4
        assert all(card.eth_ports[1].switch is cluster.san for card in cluster.san_cards)

    def test_sixteen_node_paper_configuration(self, env):
        """The paper's server: 16 quad Pentium Pro nodes."""
        cluster = Cluster(env, n_nodes=16, n_cpus_per_node=4)
        assert len(cluster.nodes) == 16
        assert all(n.host_os.n_cpus == 4 for n in cluster.nodes)

    def test_at_least_one_node(self, env):
        with pytest.raises(ValueError):
            Cluster(env, n_nodes=0)
