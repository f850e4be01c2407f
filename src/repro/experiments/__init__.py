"""Experiment harness: one runner per table and figure of the paper.

``REGISTRY`` maps experiment ids to runners returning
:class:`~repro.experiments.report.ExperimentResult`. Every runner can be
called with no arguments; most also take keywords (``seed``,
``duration_us``, ``n_nodes``, ...), which the CLI's flags and its
``--set`` axis pass. ``CAMPAIGNS`` maps the scenario-driven ids to their
scenario tables.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster import CLUSTER_SCENARIOS
from repro.faults import FAILOVER_SCENARIOS, SCENARIOS

from .chaos import chaos, run_chaos_scenario
from .cluster import cluster, run_cluster_scenario
from .failover import failover, run_failover_scenario
from .figures import (
    LoadedRun,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    run_loading_experiment,
)
from .extensions import admission_sweep, jitter_comparison, ni_balance, stream_scaling
from .headline import headline, scheduling_overhead
from .observe import observe, run_observed
from .report import ExperimentResult, Row, Series
from .sensitivity import cost_sensitivity, mechanism_knockouts
from .tables import table1, table2, table3, table4, table5
from .transport import transport

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "headline",
    "scheduling_overhead",
    "stream_scaling",
    "jitter_comparison",
    "admission_sweep",
    "ni_balance",
    "cost_sensitivity",
    "mechanism_knockouts",
    "chaos",
    "run_chaos_scenario",
    "transport",
    "cluster",
    "run_cluster_scenario",
    "failover",
    "run_failover_scenario",
    "observe",
    "run_observed",
    "run_loading_experiment",
    "LoadedRun",
    "ExperimentResult",
    "Row",
    "Series",
    "REGISTRY",
    "CAMPAIGNS",
]

REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "headline": headline,
    "ext_stream_scaling": stream_scaling,
    "ext_jitter": jitter_comparison,
    "ext_admission": admission_sweep,
    "ext_ni_balance": ni_balance,
    "sens_costs": cost_sensitivity,
    "sens_knockouts": mechanism_knockouts,
    "chaos": chaos,
    "cluster": cluster,
    "transport": transport,
    "failover": failover,
    "observe": observe,
}

#: the scenario-driven experiment ids and their scenario registries:
#: ``--list ID`` and the ``--scenarios`` check read it
CAMPAIGNS = {
    "chaos": SCENARIOS,
    "failover": FAILOVER_SCENARIOS,
    "cluster": CLUSTER_SCENARIOS,
}

