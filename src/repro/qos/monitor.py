"""(m,k)-constraint verification over simulation results.

The engine records an outcome for every released logical job; this module
replays those outcomes through sliding windows and reports every violated
window -- the *dynamic failures* of the (m,k) literature -- rather than
just a boolean, so tests and benches can localize exactly where a scheme
went wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..model.mk import MKConstraint
from ..sim.engine import SimulationResult
from ..sim.trace import TraceIndex


@dataclass(frozen=True)
class MKViolation:
    """One violated window of a task's (m,k)-constraint.

    Attributes:
        task_index: the violating task.
        window_end_job: 1-based index of the last job in the bad window.
        successes: successes observed in that window (< m).
    """

    task_index: int
    window_end_job: int
    successes: int


class MKMonitor:
    """Streams job outcomes and detects (m,k) violations online.

    The successes of the last k outcomes are kept as a running count, so
    each outcome costs O(1) whatever k is.
    """

    def __init__(self, mk: MKConstraint) -> None:
        self.mk = mk
        self._outcomes: List[bool] = []
        self._successes = 0  # among the last k outcomes
        self.violations: List[MKViolation] = []

    def record(self, effective: bool, task_index: int = 0) -> None:
        """Record the next job's outcome; logs a violation if one closes."""
        outcomes = self._outcomes
        effective = bool(effective)
        outcomes.append(effective)
        successes = self._successes + effective
        n = len(outcomes)
        k = self.mk.k
        if n > k:
            successes -= outcomes[n - k - 1]
        self._successes = successes
        if n >= k and successes < self.mk.m:
            self.violations.append(
                MKViolation(
                    task_index=task_index,
                    window_end_job=n,
                    successes=successes,
                )
            )

    @property
    def satisfied(self) -> bool:
        return not self.violations

    @property
    def outcomes(self) -> Sequence[bool]:
        return tuple(self._outcomes)


def verify_mk(
    result: SimulationResult, index: Optional[TraceIndex] = None
) -> List[MKViolation]:
    """All (m,k) violations of a simulation run, across tasks.

    Only *complete* jobs are judged: the trailing jobs whose deadlines fall
    beyond the horizon are still recorded by the engine (their deadline
    events drain), so the outcome list is complete by construction.

    Requires a trace run: stats-only results carry per-task violation
    *counts* (``result.stats.violations``) but not the per-window detail
    this report localizes.  ``index`` is the caller's
    :class:`~repro.sim.trace.TraceIndex` of the trace (None builds one),
    which keeps the violations for its other consumers.
    """
    if result.trace is None:
        raise ValueError(
            "verify_mk needs a trace run (collect_trace=True); stats-only "
            "results expose per-task violation counts via result.stats"
        )
    if index is None:
        index = TraceIndex(result.trace)
    violations = index.derived.get("mk_violations")
    if violations is None:
        violations = []
        for task_index, task in enumerate(result.taskset):
            monitor = MKMonitor(task.mk)
            for effective in index.outcomes_for_task(task_index):
                monitor.record(effective, task_index=task_index)
            violations.extend(monitor.violations)
        index.derived["mk_violations"] = violations
    return list(violations)


def count_mk_violations(
    result: SimulationResult, index: Optional[TraceIndex] = None
) -> int:
    """Number of violated (m,k) windows in a run, regardless of mode.

    The single counting definition shared by every consumer: trace runs
    replay the recorded outcomes through :func:`verify_mk`; stats-only
    runs sum the engine's per-task online window counters, which track
    the same sliding windows.  Both paths count one violation per job
    index that closes a window with fewer than m successes.  ``index``
    is passed on to :func:`verify_mk`.
    """
    if result.trace is None:
        stats = result.stats
        if stats is None:  # pragma: no cover - engine fills one of the two
            raise ValueError("result has neither trace nor stats")
        return sum(stats.violations)
    return len(verify_mk(result, index))
