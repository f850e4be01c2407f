"""Tables 1-5: microbenchmarks, critical paths, and PCI primitives.

Each ``table*`` function runs the corresponding measurement on the
simulated platform and returns an :class:`ExperimentResult` whose rows
carry both the measured value and the paper's reported cell.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.engine import MicrobenchEngine
from repro.fixedpoint import ArithmeticContext, FixedPointContext, SoftwareFloatContext
from repro.hw.cache import DataCache
from repro.hw.cpu import CPU, I960RD_66
from repro.hw.ethernet import EthernetPort, EthernetSwitch
from repro.hw.pci import PCISegment
from repro.server.node import ServerNode
from repro.server.paths import path_a_transfer, path_b_transfer, path_c_transfer
from repro.sim import Environment

from .calibration import (
    MPEG_FILE_BYTES,
    hardware_queue_factory,
    microbench_scheduler,
)
from .report import ExperimentResult

__all__ = ["table1", "table2", "table3", "table4", "table5"]


def _microbench(
    ctx_factory: Callable[[], ArithmeticContext],
    cache_enabled: bool,
    queue_factory_builder: Optional[Callable] = None,
) -> tuple[float, float, float, float]:
    """(total_with, avg_with, total_without, avg_without) in µs."""
    results = []
    for with_scheduler in (True, False):
        env = Environment()
        cpu = CPU(I960RD_66, cache=DataCache(enabled=cache_enabled))
        qf = queue_factory_builder() if queue_factory_builder else None
        scheduler = microbench_scheduler(ctx_factory(), queue_factory=qf)
        engine = MicrobenchEngine(env, scheduler, cpu)
        gen = (
            engine.run_with_scheduler()
            if with_scheduler
            else engine.run_without_scheduler()
        )
        results.append(env.run(until=env.process(gen)))
    w, wo = results
    return w.total_us, w.avg_frame_us, wo.total_us, wo.avg_frame_us


def _microbench_table(
    exp_id: str,
    title: str,
    cache_enabled: bool,
    paper: dict[str, tuple[float, float]],
) -> ExperimentResult:
    """Shared shape of Tables 1 and 2 (software FP and fixed point columns)."""
    result = ExperimentResult(exp_id=exp_id, title=title)
    for label, ctx_factory in (
        ("Software FP", SoftwareFloatContext),
        ("Fixed Point", FixedPointContext),
    ):
        tw, aw, two, awo = _microbench(ctx_factory, cache_enabled)
        p_total, p_avg, p_total_wo, p_avg_wo = paper[label]
        result.add_row(f"Total Sched time ({label})", tw, "µs", paper=p_total)
        result.add_row(f"Avg frame Sched time ({label})", aw, "µs", paper=p_avg)
        result.add_row(f"Total time w/o Scheduler ({label})", two, "µs", paper=p_total_wo)
        result.add_row(f"Avg frame time w/o Scheduler ({label})", awo, "µs", paper=p_avg_wo)
    return result


def table1() -> ExperimentResult:
    """Scheduler microbenchmarks, data cache **disabled**."""
    return _microbench_table(
        "Table 1",
        "Scheduler Microbenchmarks (Data Cache Disabled)",
        cache_enabled=False,
        paper={
            "Software FP": (19580.88, 129.67, 5210.88, 34.60),
            "Fixed Point": (16425.36, 108.48, 4583.28, 30.35),
        },
    )


def table2() -> ExperimentResult:
    """Scheduler microbenchmarks, data cache **enabled**."""
    result = _microbench_table(
        "Table 2",
        "Scheduler Microbenchmarks (Data Cache Enabled)",
        cache_enabled=True,
        paper={
            "Software FP": (17398.56, 115.20, 4776.48, 31.40),
            "Fixed Point": (14295.60, 94.60, 4195.68, 27.78),
        },
    )
    result.notes.append(
        "paper: cache saves ~14.47/13.88 µs per frame (SW FP / fixed point) vs Table 1"
    )
    return result


def table3() -> ExperimentResult:
    """'Hardware queue' build: descriptors in MMIO registers, fixed point,
    data cache enabled."""
    tw, aw, two, awo = _microbench(
        FixedPointContext,
        cache_enabled=True,
        queue_factory_builder=lambda: hardware_queue_factory(),
    )
    result = ExperimentResult(
        exp_id="Table 3",
        title="Scheduler Microbenchmarks, Hardware Queues (Data Cache Enabled)",
    )
    result.add_row("Total Sched time (Fixed Point)", tw, "µs", paper=14569.68)
    # the paper prints two values for this cell ("72.48, 96.48"); we compare
    # against the one consistent with its own total (14569.68/151 = 96.5)
    result.add_row("Avg frame Sched time (Fixed Point)", aw, "µs", paper=96.48)
    result.add_row("Total time w/o Scheduler (Fixed Point)", two, "µs", paper=4199.04)
    result.add_row("Avg frame time w/o Scheduler (Fixed Point)", awo, "µs", paper=27.80)
    result.notes.append(
        "paper: register-file and pinned-memory descriptor costs are comparable"
    )
    return result


def table4(transfers: int = 1000) -> ExperimentResult:
    """Critical-path benchmarks: 1000-byte frame, disk → remote client."""
    frame = 1000
    result = ExperimentResult(
        exp_id="Table 4", title="Critical Path Benchmarks (1000-byte frame)"
    )

    def run_many(env, make_gen, n):
        def runner():
            total = 0.0
            for _ in range(n):
                total += yield from make_gen()
            return total / n

        return env.run(until=env.process(runner()))

    # -- Experiment I, path A, two filesystem variants ---------------------
    for fs_kind, paper_ms in (("ufs", 1.0), ("dosfs", 8.0)):
        env = Environment()
        node = ServerNode(env)
        switch = EthernetSwitch(env)
        client = EthernetPort(env, "client")
        switch.attach(client)
        ctrl = node.add_disk_controller()
        nic = node.add_82557_nic()
        switch.attach(nic.eth_port)
        fs = ctrl.mount_ufs() if fs_kind == "ufs" else ctrl.mount_dosfs()
        f = fs.open("movie.mpg", size_bytes=transfers * frame + frame)
        avg = run_many(
            env,
            lambda: path_a_transfer(node, ctrl, f, nic, "client", frame),
            transfers,
        )
        label = "I: Disk-Host CPU-I/O Bus-Network" + (
            " (ufs)" if fs_kind == "ufs" else " (VxWorks fs)"
        )
        result.add_row(label, avg / 1000.0, "ms", paper=paper_ms)

    # -- Experiment II, path C ------------------------------------------------
    env = Environment()
    node = ServerNode(env)
    switch = EthernetSwitch(env)
    client = EthernetPort(env, "client")
    switch.attach(client)
    card = node.add_i960_card()
    fs = card.attach_disk()
    switch.attach(card.eth_ports[0])
    f = fs.open("movie.mpg", size_bytes=transfers * frame + frame)
    avg = run_many(
        env, lambda: path_c_transfer(card, f, "client", frame), transfers
    )
    result.add_row("II: NI Disk-NI CPU-Network", avg / 1000.0, "ms", paper=5.4)

    # -- Experiment III, path B ------------------------------------------------
    env = Environment()
    node = ServerNode(env)
    switch = EthernetSwitch(env)
    client = EthernetPort(env, "client")
    switch.attach(client)
    producer = node.add_i960_card()
    scheduler_card = node.add_i960_card()
    fs = producer.attach_disk()
    switch.attach(scheduler_card.eth_ports[0])
    f = fs.open("movie.mpg", size_bytes=transfers * frame + frame)
    avg = run_many(
        env,
        lambda: path_b_transfer(producer, scheduler_card, f, "client", frame),
        transfers,
    )
    result.add_row("III: Disk-I/O Bus-NI CPU-Network", avg / 1000.0, "ms", paper=5.415)

    # -- component decomposition of Experiment III ------------------------------
    env = Environment()
    seg = PCISegment(env)
    disk_env = Environment()
    from repro.hw.disk import SCSIDisk

    disk = SCSIDisk(disk_env)
    disk_lat = disk_env.run(until=disk_env.process(disk.read(frame)))
    pci_lat = env.run(until=env.process(seg.transfer(frame)))
    result.add_row("III component: disk", disk_lat / 1000.0, "ms", paper=4.2)
    result.add_row("III component: pci", pci_lat / 1000.0, "ms", paper=0.015)
    return result


def table5() -> ExperimentResult:
    """PCI card-to-card transfer primitives."""
    result = ExperimentResult(exp_id="Table 5", title="PCI Card-to-Card Transfer Benchmarks")
    env = Environment()
    seg = PCISegment(env)
    dma_us = env.run(until=env.process(seg.transfer(MPEG_FILE_BYTES)))
    result.add_row(
        f"MPEG File Transfer by DMA ({MPEG_FILE_BYTES} bytes)",
        dma_us,
        "µs",
        paper=11673.84,
    )
    result.add_row("DMA effective bandwidth", MPEG_FILE_BYTES / dma_us, "MB/s", paper=66.27)
    env = Environment()
    seg = PCISegment(env)
    result.add_row(
        "Memory Word Read (PIO)",
        env.run(until=env.process(seg.pio_read())),
        "µs",
        paper=3.6,
    )
    env = Environment()
    seg = PCISegment(env)
    result.add_row(
        "Memory Word Write (PIO)",
        env.run(until=env.process(seg.pio_write())),
        "µs",
        paper=3.1,
    )
    return result
