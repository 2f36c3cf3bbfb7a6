"""The aggregate counters of one simulation run.

Every :class:`~repro.sim.engine.SimulationResult` carries a
:class:`RunStats`: everything energy accounting, the QoS metrics and the
cross-mode ledger read from a run.  A stats-only run
(``collect_trace=False``) and the batch kernel fill it online; a trace
run's is derived from its trace once, by :func:`trace_stats`, when its
result is built.  The counters are integers (gap *lengths* are
bucketed, and the downstream energy arithmetic over the buckets is
:class:`~fractions.Fraction`-exact and order-independent), so a
stats-only run's result is bit-identical to the trace run's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..model.job import JobOutcome
from .trace import ExecutionTrace, TraceIndex

if TYPE_CHECKING:
    from ..model.mk import MKConstraint


class RunStats:
    """Cumulative counters of one run.

    Attributes:
        busy: per-processor execution ticks inside the processor's
            energy window: [0, horizon), cut at the fault tick on the
            processor a permanent fault killed.
        gap_counts: per-processor multiset of idle-gap lengths inside
            the same window, as a length -> count dict (the energy model
            only needs each gap's length, not its position).
        speed_busy: per-processor speed -> execution-tick dict for
            DVFS-scaled execution (speed != 1 only; full-speed ticks are
            ``busy`` minus the scaled sum).  Empty on every non-DVFS
            run, so the ledger stays byte-identical to the pre-DVFS one.
        released / effective / missed / mandatory / optional_executed /
            skipped: logical-job counts matching
            :class:`~repro.qos.metrics.QoSMetrics`.
        violations: per-task count of violated (m,k) windows.
    """

    __slots__ = (
        "busy",
        "gap_counts",
        "speed_busy",
        "released",
        "effective",
        "missed",
        "mandatory",
        "optional_executed",
        "skipped",
        "violations",
    )

    def __init__(self, task_count: int) -> None:
        self.busy: List[int] = [0, 0]
        self.gap_counts: List[Dict[int, int]] = [{}, {}]
        self.speed_busy: List[dict] = [{}, {}]
        self.released = 0
        self.effective = 0
        self.missed = 0
        self.mandatory = 0
        self.optional_executed = 0
        self.skipped = 0
        self.violations: List[int] = [0] * task_count


def trace_stats(
    trace: ExecutionTrace,
    horizon_ticks: int,
    permanent_fault: Optional[Tuple[int, int]] = None,
    constraints: "Sequence[MKConstraint]" = (),
) -> RunStats:
    """The counters a stats-only run of the same descriptor fills,
    derived from a trace.

    Each processor's busy ticks, idle-gap lengths and per-speed busy
    ticks come from one walk over its segments inside its energy window
    ``[0, horizon_ticks)``, cut at the fault tick on the processor
    ``permanent_fault`` killed; the job counts come from the records.
    ``constraints`` holds each task's (m,k)-constraint: a task's
    violations slide its k-window over its outcomes in job order and
    count every full window with fewer than m successes, as a stats-only
    run counts them online.  A bare trace (no constraints) gets no
    per-task violations.
    """
    stats = RunStats(len(constraints))
    index = TraceIndex(trace)
    windows = []
    for processor in range(trace.processor_count):
        end = horizon_ticks
        if permanent_fault is not None and permanent_fault[0] == processor:
            end = min(end, permanent_fault[1])
        windows.append(index.window(processor, 0, end))
    stats.busy, stats.gap_counts, stats.speed_busy = map(list, zip(*windows))

    # One pass over the records: the counts, and each constrained task's
    # (job, outcome) pairs, put in job order below.
    EFFECTIVE = JobOutcome.EFFECTIVE
    effective = missed = mandatory = optional = skipped = 0
    by_task: List[List[Tuple[int, bool]]] = [[] for _ in constraints]
    for (task_index, job_index), record in trace.records.items():
        outcome = record.outcome
        if outcome is EFFECTIVE:
            effective += 1
        elif outcome is JobOutcome.MISSED:
            missed += 1
        classified = record.classified_as
        if classified == "mandatory":
            mandatory += 1
        elif classified == "optional":
            optional += 1
        elif classified == "skipped":
            skipped += 1
        if task_index < len(by_task):
            by_task[task_index].append((job_index, outcome is EFFECTIVE))
    stats.released = len(trace.records)
    stats.effective = effective
    stats.missed = missed
    stats.mandatory = mandatory
    stats.optional_executed = optional
    stats.skipped = skipped

    violations = stats.violations
    for task_index, mk in enumerate(constraints):
        m, k = mk.m, mk.k
        pairs = by_task[task_index]
        pairs.sort()
        flags = [ok for _, ok in pairs]
        successes = 0
        for n, ok in enumerate(flags):
            successes += ok
            if n >= k:
                successes -= flags[n - k]
            if n >= k - 1 and successes < m:
                violations[task_index] += 1
    return stats
