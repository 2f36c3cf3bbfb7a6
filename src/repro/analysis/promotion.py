"""Promotion times for the dual-priority baseline (Equation 2).

Haque et al. run backup tasks on the spare processor under the dual
priority scheme: a backup job of τ_i may be procrastinated by the
*promotion time*

    Y_i = D_i - R_i

because even if the backup only starts competing Y_i units after release
it still finishes within R_i <= D_i - Y_i of the promoted instant.  The
paper models this as a revised release time r + Y_i, which is also how we
implement it.

In the standby-sparing (m,k) setting only *mandatory* jobs execute, so the
relevant worst-case response time is the pattern-aware one (interference
counts mandatory higher-priority jobs only); on the paper's Figure 1
example both notions coincide (Y_1 = Y_2 = 1).  When even the mandatory
response time exceeds the deadline (the admission test is exact simulation
and can accept sets the sufficient RTA rejects), the promotion time falls
back to 0 -- "no postponement", which is always safe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import AnalysisError
from ..model.patterns import Pattern
from ..model.taskset import TaskSet
from ..timebase import TimeBase
from .cache import analysis_cache
from .rta import response_time_mandatory


def promotion_time(
    taskset: TaskSet,
    index: int,
    timebase: Optional[TimeBase] = None,
    patterns: Optional[Sequence[Pattern]] = None,
) -> int:
    """Promotion time Y_i = D_i - R_i in ticks (0 when R_i > D_i)."""
    base = timebase or taskset.timebase()
    deadline = base.to_ticks(taskset[index].deadline)
    try:
        response = response_time_mandatory(taskset, index, base, patterns)
    except AnalysisError:
        return 0
    return max(0, deadline - response)


def promotion_times(
    taskset: TaskSet,
    timebase: Optional[TimeBase] = None,
    patterns: Optional[Sequence[Pattern]] = None,
) -> List[int]:
    """Promotion times for every task, highest priority first."""
    base = timebase or taskset.timebase()
    if patterns is None:
        key = ("promotion", taskset.analysis_key(), base.ticks_per_unit)
        cached = analysis_cache().get(
            key,
            lambda: [
                promotion_time(taskset, i, base) for i in range(len(taskset))
            ],
        )
        return list(cached)
    return [
        promotion_time(taskset, i, base, patterns) for i in range(len(taskset))
    ]
