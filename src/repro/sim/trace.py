"""Execution traces: what ran where, when, and how each job ended up.

The trace is the single source of truth downstream: energy accounting
integrates processor busy time from segments, the QoS monitor reads
logical-job outcomes, and the Gantt renderer draws the segments.

A consumer that asks a trace several questions builds a
:class:`TraceIndex` when it starts and drops it when it returns: the
index derives each answer (a processor's segments in time order, an
accounting window's busy ticks and idle gaps, a task's records in job
order) once, from the trace as it is while the consumer runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..model.job import Job, JobOutcome


@dataclass(frozen=True)
class Segment:
    """A maximal interval during which one job copy ran on one processor."""

    processor: int
    start: int
    end: int
    task_index: int
    job_index: int
    role: str  # JobRole.value, kept as str for cheap serialization
    #: Execution frequency (DVFS): the int 1 at full speed, an exact
    #: Fraction in (0, 1) for a slowed main copy.  Defaulted so every
    #: pre-DVFS construction site (and serialization) is unchanged.
    speed: "int | object" = 1

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError(
                f"segment must have positive length: [{self.start},{self.end})"
            )

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlap_with(self, window_start: int, window_end: int) -> int:
        """Ticks of this segment inside [window_start, window_end)."""
        lo = max(self.start, window_start)
        hi = min(self.end, window_end)
        return max(0, hi - lo)


@dataclass(frozen=True)
class TraceEvent:
    """A notable scheduling event, for logging and debugging."""

    time: int
    kind: str
    detail: str


@dataclass
class LogicalJobRecord:
    """Final verdict on one logical job J_ij."""

    task_index: int
    job_index: int
    release: int
    deadline: int
    outcome: Optional[JobOutcome] = None
    decided_at: Optional[int] = None
    classified_as: str = ""  # "mandatory" | "optional" | "skipped"
    flexibility_degree: Optional[int] = None

    @property
    def effective(self) -> bool:
        return self.outcome is JobOutcome.EFFECTIVE


class ExecutionTrace:
    """Complete record of one simulation run.

    Adjacent segments of the same (task, job, role) on one processor are
    coalesced as they are recorded, so a long uninterrupted execution
    crossing many event boundaries costs O(preemptions) segments rather
    than O(events).
    """

    def __init__(self, processor_count: int = 2) -> None:
        if processor_count < 1:
            raise SimulationError("need at least one processor")
        self.processor_count = processor_count
        self._segments: List[Segment] = []
        self.events: List[TraceEvent] = []
        self.records: Dict[Tuple[int, int], LogicalJobRecord] = {}
        # Each processor's still-growing tail interval, the only
        # coalescing candidate: [start, end, task_index, job_index, role,
        # speed] (role as the enum member -- its ``.value`` is resolved
        # only when the interval is sealed into a Segment).  Extending a
        # run is then one integer store instead of a frozen-dataclass
        # construction.
        self._open: List[Optional[list]] = [None] * processor_count

    # -- recording ---------------------------------------------------------

    def add_segment(self, processor: int, start: int, end: int, job: Job) -> None:
        """Record that ``job`` ran on ``processor`` during [start, end)."""
        if start == end:
            return
        tail = self._open[processor]
        if tail is not None:
            if (
                tail[1] == start
                and tail[2] == job.task_index
                and tail[3] == job.job_index
                and tail[4] is job.role
                and tail[5] == job.speed
            ):
                tail[1] = end
                return
            self._seal(processor, tail)
        self._open[processor] = [
            start, end, job.task_index, job.job_index, job.role, job.speed,
        ]

    def _seal(self, processor: int, tail: list) -> None:
        self._segments.append(
            Segment(
                processor=processor,
                start=tail[0],
                end=tail[1],
                task_index=tail[2],
                job_index=tail[3],
                role=tail[4].value,
                speed=tail[5],
            )
        )

    @property
    def segments(self) -> List[Segment]:
        """All recorded segments (coalesced), in recording order."""
        opens = self._open
        for processor in range(self.processor_count):
            tail = opens[processor]
            if tail is not None:
                self._seal(processor, tail)
                opens[processor] = None
        return self._segments

    def log(self, time: int, kind: str, detail: str) -> None:
        """Append a trace event."""
        self.events.append(TraceEvent(time=time, kind=kind, detail=detail))

    def record_for(self, key: Tuple[int, int]) -> LogicalJobRecord:
        """The logical-job record for (task_index, job_index); must exist."""
        try:
            return self.records[key]
        except KeyError as exc:
            raise SimulationError(f"no logical job record for {key}") from exc

    # -- queries -----------------------------------------------------------

    def segments_on(self, processor: int) -> List[Segment]:
        """Segments of one processor, in chronological order."""
        return sorted(
            (s for s in self.segments if s.processor == processor),
            key=lambda s: s.start,
        )

    def busy_ticks(
        self,
        processor: Optional[int] = None,
        window: Optional[Tuple[int, int]] = None,
    ) -> int:
        """Total execution ticks, optionally per processor and windowed."""
        total = 0
        for segment in self.segments:
            if processor is not None and segment.processor != processor:
                continue
            if window is None:
                total += segment.length
            else:
                total += segment.overlap_with(*window)
        return total

    def idle_gaps(
        self, processor: int, window: Tuple[int, int]
    ) -> List[Tuple[int, int]]:
        """Maximal idle intervals of a processor inside ``window``."""
        window_start, window_end = window
        gaps: List[Tuple[int, int]] = []
        cursor = window_start
        for segment in self.segments_on(processor):
            seg_start = max(segment.start, window_start)
            seg_end = min(segment.end, window_end)
            if seg_end <= cursor:
                continue
            if seg_start > cursor:
                gaps.append((cursor, min(seg_start, window_end)))
            cursor = max(cursor, seg_end)
            if cursor >= window_end:
                break
        if cursor < window_end:
            gaps.append((cursor, window_end))
        return [gap for gap in gaps if gap[1] > gap[0]]

    def validate(self) -> None:
        """Assert trace invariants: no overlapping segments per processor.

        Tracks the running *maximum* end over the start-sorted segments:
        remembering only the previous segment's end would let a segment
        nested inside an earlier, longer one reset the watermark and hide
        a later overlap.

        Raises:
            SimulationError: when two segments on one processor overlap.
        """
        for processor in range(self.processor_count):
            max_end = None
            for segment in self.segments_on(processor):
                if max_end is not None and segment.start < max_end:
                    raise SimulationError(
                        f"overlapping segments on processor {processor} at "
                        f"tick {segment.start}"
                    )
                if max_end is None or segment.end > max_end:
                    max_end = segment.end

    def outcomes_for_task(self, task_index: int) -> List[bool]:
        """Per-job effectiveness flags of one task, in job order."""
        keys = sorted(k for k in self.records if k[0] == task_index)
        return [self.records[k].effective for k in keys]

    def __repr__(self) -> str:
        return (
            f"ExecutionTrace(segments={len(self.segments)}, "
            f"records={len(self.records)}, events={len(self.events)})"
        )


#: One accounting window's facts: busy ticks (each segment's overlap,
#: summed), idle-gap lengths (length -> occurrences) and busy ticks per
#: speed other than 1.
WindowFacts = Tuple[int, Dict[int, int], Dict[object, int]]


class TraceIndex:
    """The facts a trace's consumers derive, each computed once.

    Every answer equals the matching :class:`ExecutionTrace` query
    (:meth:`~ExecutionTrace.segments_on`, :meth:`~ExecutionTrace.busy_ticks`
    and :meth:`~ExecutionTrace.idle_gaps` over a window,
    :meth:`~ExecutionTrace.outcomes_for_task`), but a fact is derived on
    its first query and then reused.  The index reads the trace lazily
    and never notices a later change to it, so build one where an audit
    or a consumer starts and drop it when that call returns; never keep
    one beside a trace that may still change.

    ``derived`` holds facts that layers above the trace compute from the
    index (the (m,k) violations of :func:`repro.qos.monitor.verify_mk`),
    so they too are derived once per index.
    """

    __slots__ = ("trace", "derived", "_on", "_windows", "_task_keys")

    def __init__(self, trace: ExecutionTrace) -> None:
        self.trace = trace
        self.derived: Dict[str, Any] = {}
        self._on: Optional[Dict[int, List[Segment]]] = None
        self._windows: Dict[Tuple[int, int, int], WindowFacts] = {}
        self._task_keys: Optional[Dict[int, List[Tuple[int, int]]]] = None

    def segments_on(self, processor: int) -> List[Segment]:
        """Segments of one processor, in chronological order (a shared
        list: do not modify it)."""
        on = self._on
        if on is None:
            on = {}
            for segment in self.trace.segments:
                group = on.get(segment.processor)
                if group is None:
                    on[segment.processor] = [segment]
                else:
                    group.append(segment)
            for group in on.values():
                group.sort(key=_START)
            self._on = on
        return on.get(processor, [])

    def window(self, processor: int, start: int, end: int) -> WindowFacts:
        """Busy ticks, idle-gap lengths and per-speed busy ticks of one
        processor inside ``[start, end)``, from one walk over its
        segments (shared dicts: do not modify them)."""
        key = (processor, start, end)
        facts = self._windows.get(key)
        if facts is not None:
            return facts
        busy = 0
        gaps: Dict[int, int] = {}
        speeds: Dict[object, int] = {}
        cursor = start
        for segment in self.segments_on(processor):
            seg_start = segment.start
            if seg_start >= end:
                break  # the later segments start no earlier
            lo = seg_start if seg_start > start else start
            hi = segment.end if segment.end < end else end
            if hi > lo:
                busy += hi - lo
                speed = segment.speed
                if speed != 1:
                    speeds[speed] = speeds.get(speed, 0) + hi - lo
            if hi <= cursor:
                continue
            if lo > cursor:
                gaps[lo - cursor] = gaps.get(lo - cursor, 0) + 1
            cursor = hi
        if cursor < end:
            gaps[end - cursor] = gaps.get(end - cursor, 0) + 1
        facts = (busy, gaps, speeds)
        self._windows[key] = facts
        return facts

    def task_keys(self) -> Dict[int, List[Tuple[int, int]]]:
        """Each task's record keys, in job order (shared: do not modify)."""
        by_task = self._task_keys
        if by_task is None:
            by_task = {}
            for key in self.trace.records:
                keys = by_task.get(key[0])
                if keys is None:
                    by_task[key[0]] = [key]
                else:
                    keys.append(key)
            for keys in by_task.values():
                keys.sort()
            self._task_keys = by_task
        return by_task

    def outcomes_for_task(self, task_index: int) -> List[bool]:
        """Per-job effectiveness flags of one task, in job order."""
        records = self.trace.records
        return [
            records[key].effective
            for key in self.task_keys().get(task_index, ())
        ]


_START = attrgetter("start")
