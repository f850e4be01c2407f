"""Server node composition and the Figure-3 transfer paths (Table 4)."""

import pytest

from repro.hw import EthernetPort, EthernetSwitch
from repro.server import (
    ServerNode,
    path_a_transfer,
    path_b_transfer,
    path_c_transfer,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def rig(env):
    """Node + switch + one client port, matching the Table 4 setup."""
    node = ServerNode(env, n_cpus=4)
    switch = EthernetSwitch(env)
    client = EthernetPort(env, "client")
    switch.attach(client)
    return node, switch, client


def run(env, gen):
    return env.run(until=env.process(gen))


class TestServerNode:
    def test_default_configuration(self, env):
        node = ServerNode(env)
        assert node.host_os.n_cpus == 4
        assert len(node.segments) == 1
        assert node.memory.capacity_bytes == 128 << 20

    def test_two_bus_segments(self, env):
        node = ServerNode(env, n_pci_segments=2)
        assert len(node.segments) == 2
        assert node.bridge_for(node.segments[1]).segment is node.segments[1]

    def test_bridge_for_foreign_segment_raises(self, env):
        node = ServerNode(env)
        other = ServerNode(env, name="other")
        with pytest.raises(ValueError):
            node.bridge_for(other.segments[0])

    def test_slot_population(self, env):
        node = ServerNode(env, n_pci_segments=2)
        card = node.add_i960_card(segment=0)
        nic = node.add_82557_nic(segment=1)
        ctrl = node.add_disk_controller(segment=0)
        assert card in node.segments[0].devices
        assert nic in node.segments[1].devices
        assert ctrl in node.segments[0].devices

class TestPaths:
    FRAME = 1000

    def _path_a(self, env, rig, fs_kind):
        node, switch, _client = rig
        ctrl = node.add_disk_controller()
        nic = node.add_82557_nic()
        switch.attach(nic.eth_port)
        fs = ctrl.mount_ufs() if fs_kind == "ufs" else ctrl.mount_dosfs()
        f = fs.open("movie.mpg", size_bytes=1_000_000)

        def many(n):
            total = 0.0
            for _ in range(n):
                total += yield from path_a_transfer(
                    node, ctrl, f, nic, "client", self.FRAME
                )
            return total / n

        return run(env, many(100))

    def test_path_a_ufs_about_1ms(self, env, rig):
        """Experiment I, UFS row: ≈1 ms per frame."""
        avg = self._path_a(env, rig, "ufs")
        assert avg == pytest.approx(1000.0, rel=0.35)

    def test_path_a_dosfs_about_8ms(self, env, rig):
        """Experiment I, VxWorks-fs row: ≈8 ms per frame."""
        avg = self._path_a(env, rig, "dosfs")
        assert avg == pytest.approx(8000.0, rel=0.20)

    def test_path_c_about_5_4ms(self, env, rig):
        """Experiment II: NI disk -> NI CPU -> network ≈ 5.4 ms."""
        node, switch, _client = rig
        card = node.add_i960_card()
        fs = card.attach_disk()
        switch.attach(card.eth_ports[0])
        f = fs.open("movie.mpg", size_bytes=1_000_000)

        def many(n):
            total = 0.0
            for _ in range(n):
                total += yield from path_c_transfer(card, f, "client", self.FRAME)
            return total / n

        avg = run(env, many(100))
        assert avg == pytest.approx(5400.0, rel=0.15)

    def test_path_b_adds_only_pci_time(self, env, rig):
        """Experiment III ≈ Experiment II + ~15 µs of PCI."""
        node, switch, _client = rig
        producer = node.add_i960_card()
        scheduler = node.add_i960_card()
        fs = producer.attach_disk()
        switch.attach(scheduler.eth_ports[0])
        f = fs.open("movie.mpg", size_bytes=1_000_000)

        def many(n):
            total = 0.0
            for _ in range(n):
                total += yield from path_b_transfer(
                    producer, scheduler, f, "client", self.FRAME
                )
            return total / n

        avg = run(env, many(100))
        assert avg == pytest.approx(5415.0, rel=0.15)

    def test_path_b_and_c_eliminate_host_traffic(self, env, rig):
        node, switch, _client = rig
        producer = node.add_i960_card()
        scheduler = node.add_i960_card()
        fs = producer.attach_disk()
        switch.attach(scheduler.eth_ports[0])
        f = fs.open("m", size_bytes=100_000)
        run(env, path_b_transfer(producer, scheduler, f, "client", self.FRAME))
        assert node.system_bus.bytes_transferred == 0
        assert node.segments[0].bytes_transferred == self.FRAME

    def test_path_a_charges_host_bus_twice(self, env, rig):
        node, switch, _client = rig
        ctrl = node.add_disk_controller()
        nic = node.add_82557_nic()
        switch.attach(nic.eth_port)
        fs = ctrl.mount_ufs()
        f = fs.open("m", size_bytes=100_000)
        run(env, path_a_transfer(node, ctrl, f, nic, "client", self.FRAME))
        assert node.system_bus.bytes_transferred == 2 * self.FRAME

    def test_path_b_requires_same_segment(self, env, rig):
        node2 = ServerNode(env, name="n2", n_pci_segments=2)
        a = node2.add_i960_card(segment=0)
        b = node2.add_i960_card(segment=1)
        fs = a.attach_disk()
        f = fs.open("m", size_bytes=10_000)
        with pytest.raises(ValueError):
            run(env, path_b_transfer(a, b, f, "client", 1000))
