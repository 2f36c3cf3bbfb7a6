"""Discrete-event simulation of dual-processor standby-sparing systems."""

from .trace import ExecutionTrace, Segment, TraceEvent, LogicalJobRecord
from .engine import (
    PolicyContext,
    SchedulingPolicy,
    SimulationResult,
    StandbySparingEngine,
    PRIMARY,
    SPARE,
)
from .gantt import render_gantt
from .export import (
    result_to_dict,
    result_to_json,
    segments_to_csv,
    write_result,
)

__all__ = [
    "ExecutionTrace",
    "Segment",
    "TraceEvent",
    "LogicalJobRecord",
    "PolicyContext",
    "SchedulingPolicy",
    "SimulationResult",
    "StandbySparingEngine",
    "PRIMARY",
    "SPARE",
    "render_gantt",
    "result_to_dict",
    "result_to_json",
    "segments_to_csv",
    "write_result",
]
