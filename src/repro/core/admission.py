"""Admission control for window-constrained streams.

The paper positions "admission control and online request scheduling" as
the software levers for server scalability, and requires the server to
process rising stream counts "with a pre-negotiated bound on service
degradation". This module provides the standard DWCS-style feasibility
test: for unit-capacity service, a set of streams with periods T_i,
per-packet service times C_i, and loss-tolerances x_i/y_i is schedulable
with no violations when the *mandatory* utilization

    U = Σ (1 − x_i/y_i) · C_i / T_i

does not exceed the configured bound (West & Poellabauer prove U ≤ 1 is
exact for unit-time packets; a safety margin covers scheduling overhead
and non-unit packets).

:class:`AdmissionController` tracks admitted streams and evaluates
candidate requests; it also exposes the utilization ledger so experiments
can sweep stream counts against the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .attributes import StreamSpec

__all__ = ["AdmissionController", "AdmissionDecision", "mandatory_utilization"]


def mandatory_utilization(spec: StreamSpec, service_time_us: float) -> float:
    """The stream's guaranteed-service share: (1 − x/y) · C/T."""
    if service_time_us <= 0:
        raise ValueError("service time must be positive")
    mandatory_fraction = 1.0 - spec.loss_x / spec.loss_y
    return mandatory_fraction * service_time_us / spec.period_us


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission test."""

    admitted: bool
    #: utilization the stream set would have including the candidate
    projected_utilization: float
    #: the configured admission bound
    bound: float
    reason: str = ""


class AdmissionController:
    """Utilization-based admission for one scheduler's stream set."""

    def __init__(self, utilization_bound: float = 0.85) -> None:
        if not 0.0 < utilization_bound <= 1.0:
            raise ValueError("bound must be in (0, 1]")
        self.utilization_bound = utilization_bound
        self._admitted: dict[str, float] = {}
        #: streams shed under failure/overload, FIFO by suspension order —
        #: their shares are off the ledger until resumed
        self._suspended: dict[str, float] = {}

    @property
    def utilization(self) -> float:
        """Mandatory utilization of the admitted set."""
        return sum(self._admitted.values())

    @property
    def admitted_streams(self) -> list[str]:
        return sorted(self._admitted)

    def evaluate(self, spec: StreamSpec, service_time_us: float) -> AdmissionDecision:
        """Test a candidate without admitting it."""
        share = mandatory_utilization(spec, service_time_us)
        projected = self.utilization + share
        if spec.stream_id in self._admitted or spec.stream_id in self._suspended:
            return AdmissionDecision(
                admitted=False,
                projected_utilization=self.utilization,
                bound=self.utilization_bound,
                reason=f"stream {spec.stream_id!r} already admitted",
            )
        if projected > self.utilization_bound:
            return AdmissionDecision(
                admitted=False,
                projected_utilization=projected,
                bound=self.utilization_bound,
                reason=(
                    f"mandatory utilization {projected:.3f} would exceed "
                    f"bound {self.utilization_bound:.3f}"
                ),
            )
        return AdmissionDecision(
            admitted=True,
            projected_utilization=projected,
            bound=self.utilization_bound,
        )

    def admit(self, spec: StreamSpec, service_time_us: float) -> AdmissionDecision:
        """Test and, on success, record the stream."""
        decision = self.evaluate(spec, service_time_us)
        if decision.admitted:
            self._admitted[spec.stream_id] = mandatory_utilization(
                spec, service_time_us
            )
        return decision

    def release(self, stream_id: str) -> None:
        """Return a departed stream's share."""
        if stream_id in self._suspended:
            del self._suspended[stream_id]
            return
        if stream_id not in self._admitted:
            raise KeyError(f"stream {stream_id!r} not admitted")
        del self._admitted[stream_id]

    # -- graceful degradation ------------------------------------------------
    @property
    def suspended_streams(self) -> list[str]:
        return sorted(self._suspended)

    def suspend(self, stream_id: str) -> None:
        """Shed an admitted stream (NI failure, sustained overload).

        Its share leaves the ledger but is remembered, so the stream can be
        re-admitted ahead of newcomers once capacity returns.
        """
        if stream_id not in self._admitted:
            raise KeyError(f"stream {stream_id!r} not admitted")
        self._suspended[stream_id] = self._admitted.pop(stream_id)

    def resume_all(self) -> list[str]:
        """Re-admit suspended streams FIFO while headroom allows.

        Returns the stream ids actually re-admitted; any remainder stays
        suspended (degraded service, not dropped state).
        """
        resumed = []
        for stream_id in list(self._suspended):
            share = self._suspended[stream_id]
            if self.utilization + share > self.utilization_bound:
                continue
            self._admitted[stream_id] = self._suspended.pop(stream_id)
            resumed.append(stream_id)
        return resumed

    def headroom(self) -> float:
        """Remaining admissible mandatory utilization."""
        return max(0.0, self.utilization_bound - self.utilization)

    def __repr__(self) -> str:
        return (
            f"<AdmissionController {self.utilization:.3f}/{self.utilization_bound} "
            f"streams={len(self._admitted)}>"
        )
