"""Data cache model.

Tables 1 vs 2 of the paper are the same microbenchmark with the i960 RD's
data cache disabled vs enabled; the observed effect is ≈14–15 µs saved per
frame-scheduling decision because "stream priority values and descriptor
addresses [are] cached and updated every scheduler cycle without additional
memory latency".

We model the cache at the level that matters for those tables: a hit ratio
applied to data memory references, with hit/miss service times taken from the
owning CPU's spec. A small working-set estimator supports ablations (hit
ratio degrades once the scheduler's descriptor footprint exceeds capacity).

The paper also notes an operational constraint we keep: the VxWorks SCSI
driver runs with the data cache *disabled*, so a card that performs local
disk reads cannot enable caching (§4.2: producers run on disk-attached NIs so
the dedicated scheduler NI can keep its cache on).
"""

from __future__ import annotations

__all__ = ["DataCache"]


class DataCache:
    """Enable/disable-able data cache with a steady-state hit ratio."""

    def __init__(
        self,
        size_bytes: int = 4096,
        line_bytes: int = 16,
        hit_ratio: float = 0.75,
        enabled: bool = False,
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if not 0.0 <= hit_ratio <= 1.0:
            raise ValueError(f"hit ratio must be in [0,1], got {hit_ratio}")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        #: steady-state hit ratio when the working set fits
        self.base_hit_ratio = hit_ratio
        self.enabled = enabled

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def effective_hit_ratio(self, working_set_bytes: int | None = None) -> float:
        """Hit ratio given an (optional) working-set size.

        Disabled cache → 0. A working set within capacity gets the base
        ratio; beyond capacity the ratio falls off with the capacity
        fraction (simple inclusive-reuse model, adequate for the ablation
        study — the paper's own tables only exercise the fits/disabled
        endpoints).
        """
        if not self.enabled:
            return 0.0
        if working_set_bytes is None or working_set_bytes <= self.size_bytes:
            return self.base_hit_ratio
        return self.base_hit_ratio * (self.size_bytes / working_set_bytes)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<DataCache {self.size_bytes}B {state} hit={self.base_hit_ratio:.2f}>"
