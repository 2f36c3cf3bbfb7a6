"""Exact worst-case response time analysis for fixed-priority tasks.

Two flavours are provided:

* :func:`response_time` -- the classic Joseph & Pandya fixed point

      R_i = C_i + sum_{k < i} ceil(R_i / P_k) * C_k

  treating every job of every higher-priority task as interference.  The
  paper's promotion times Y_i = D_i - R_i (Equation 2) are built on this.

* :func:`response_time_mandatory` -- the same fixed point but counting only
  *mandatory* jobs of higher-priority tasks under a static pattern, i.e.
  the interference term becomes (number of mandatory jobs of τ_k released
  in [0, t)) * C_k.  Under the deeply-red R-pattern the synchronous release
  is the critical instant for the mandatory subsequence (all windows start
  "full"), which is the basis of the paper's Theorem 1.

All computation is in integer ticks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import AnalysisError
from ..model.patterns import Pattern, RPattern
from ..model.taskset import TaskSet
from ..timebase import TimeBase
from .cache import analysis_cache
from .demand import mandatory_job_count


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def response_time(
    taskset: TaskSet,
    index: int,
    timebase: Optional[TimeBase] = None,
) -> int:
    """Worst-case response time (ticks) of the task at priority ``index``.

    Raises:
        AnalysisError: if the fixed point exceeds the task's deadline (the
            task is unschedulable under plain FP with all jobs mandatory).
    """
    base = timebase or taskset.timebase()
    task = taskset[index]
    wcet = base.to_ticks(task.wcet)
    deadline = base.to_ticks(task.deadline)
    hp = [
        (base.to_ticks(t.period), base.to_ticks(t.wcet))
        for t in taskset.higher_priority(index)
    ]
    current = wcet
    while True:
        nxt = wcet + sum(_ceil_div(current, p) * c for p, c in hp)
        if nxt == current:
            return current
        if nxt > deadline:
            raise AnalysisError(
                f"response time of {task.name or index} exceeds its deadline "
                f"({base.from_ticks(nxt)} > {task.deadline})"
            )
        current = nxt


def response_times(
    taskset: TaskSet, timebase: Optional[TimeBase] = None
) -> List[int]:
    """Response times (ticks) for every task, highest priority first.

    Memoized in the shared :mod:`repro.analysis.cache` (a failing RTA
    raises before anything is stored, so errors are never cached).
    """
    base = timebase or taskset.timebase()
    key = ("rta", taskset.analysis_key(), base.ticks_per_unit)
    cached = analysis_cache().get(
        key,
        lambda: [response_time(taskset, i, base) for i in range(len(taskset))],
    )
    return list(cached)


def response_time_mandatory(
    taskset: TaskSet,
    index: int,
    timebase: Optional[TimeBase] = None,
    patterns: Optional[Sequence[Pattern]] = None,
) -> int:
    """Response time counting only mandatory higher-priority interference.

    Args:
        taskset: the task set.
        index: priority index of the task under analysis.
        timebase: tick grid; derived from the task set when omitted.
        patterns: one static pattern per task; defaults to R-patterns.

    Returns:
        The least fixed point of
        ``t = C_i + sum_{k<i} mandatory_k([0, t)) * C_k`` in ticks.

    Raises:
        AnalysisError: if the fixed point exceeds the deadline.
    """
    base = timebase or taskset.timebase()
    if patterns is None:
        patterns = [RPattern(t.mk) for t in taskset]
    task = taskset[index]
    wcet = base.to_ticks(task.wcet)
    deadline = base.to_ticks(task.deadline)
    hp: List[tuple] = [
        (base.to_ticks(t.period), base.to_ticks(t.wcet), patterns[k])
        for k, t in enumerate(taskset.higher_priority(index))
    ]
    current = wcet
    while True:
        nxt = wcet
        for period, cost, pattern in hp:
            released = _ceil_div(current, period)
            nxt += mandatory_job_count(pattern, released) * cost
        if nxt == current:
            return current
        if nxt > deadline:
            raise AnalysisError(
                f"mandatory response time of {task.name or index} exceeds "
                f"its deadline ({base.from_ticks(nxt)} > {task.deadline})"
            )
        current = nxt


def response_times_mandatory(
    taskset: TaskSet,
    timebase: Optional[TimeBase] = None,
    patterns: Optional[Sequence[Pattern]] = None,
) -> List[int]:
    """Mandatory-only response times for every task.

    Memoized when ``patterns`` is None (default R-patterns); explicit
    pattern objects bypass the cache.
    """
    base = timebase or taskset.timebase()
    if patterns is None:
        key = ("rta-mandatory", taskset.analysis_key(), base.ticks_per_unit)
        cached = analysis_cache().get(
            key,
            lambda: [
                response_time_mandatory(taskset, i, base)
                for i in range(len(taskset))
            ],
        )
        return list(cached)
    return [
        response_time_mandatory(taskset, i, base, patterns)
        for i in range(len(taskset))
    ]


def response_time_map(
    taskset: TaskSet, timebase: Optional[TimeBase] = None
) -> Dict[str, int]:
    """Response times keyed by task name, for reporting."""
    base = timebase or taskset.timebase()
    return {
        taskset[i].name: response_time(taskset, i, base)
        for i in range(len(taskset))
    }
