"""Discrete-event simulation kernel.

A compact, deterministic, generator-coroutine kernel (SimPy-flavoured API)
with microsecond time base. See :mod:`repro.sim.environment` for the time
conventions used throughout the reproduction.
"""

from .environment import MS, S, US, Environment
from .errors import Interrupt, SimulationError
from .events import AnyOf, ConditionValue, Event, Timeout
from .monitor import RateEstimator, TallyStats, TimeSeries
from .process import Process
from .resources import Request, Resource, Store, StoreGet, StorePut
from .rng import RandomStreams
from .trace import TraceEvent, Tracer

__all__ = [
    "Environment",
    "US",
    "MS",
    "S",
    "Event",
    "Timeout",
    "AnyOf",
    "ConditionValue",
    "Process",
    "Interrupt",
    "SimulationError",
    "Resource",
    "Request",
    "Store",
    "StoreGet",
    "StorePut",
    "TimeSeries",
    "TallyStats",
    "RateEstimator",
    "RandomStreams",
    "Tracer",
    "TraceEvent",
]
