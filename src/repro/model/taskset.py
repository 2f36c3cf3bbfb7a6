"""Ordered collections of tasks with fixed-priority semantics.

The position of a task inside a :class:`TaskSet` *is* its priority: index 0
is the highest-priority task, matching the paper's "τj has lower priority
than τi if j > i" convention.  The class also exposes the aggregate
quantities the evaluation section sweeps over (total utilization and total
(m,k)-utilization) and the hyperperiods used as analysis horizons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ModelError
from ..timebase import TimeBase
from .task import Task


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class AnalysisKey:
    """A task set's fingerprint in exact integers, hashed once.

    The numerator and denominator of each task's period, deadline and
    WCET, then its m and k, in priority order.  Two keys are equal
    exactly when the fingerprints are, but a key hashes and compares as
    plain ints, never as :class:`~fractions.Fraction` values.
    """

    __slots__ = ("values", "_hash")

    def __init__(self, values: Tuple[int, ...]) -> None:
        self.values = values
        self._hash = hash(values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnalysisKey):
            return NotImplemented
        return self.values == other.values


class TaskSet:
    """An immutable, priority-ordered set of periodic tasks."""

    __slots__ = ("_tasks", "_fingerprint", "_key", "_timebase")

    def __init__(self, tasks: Iterable[Task]) -> None:
        task_list: List[Task] = list(tasks)
        if not task_list:
            raise ModelError("a TaskSet needs at least one task")
        for position, task in enumerate(task_list):
            if not isinstance(task, Task):
                raise ModelError(f"element {position} is not a Task: {task!r}")
        self._fingerprint: "tuple | None" = None
        self._key: Optional[AnalysisKey] = None
        self._timebase: Optional[TimeBase] = None
        self._tasks = tuple(
            task if task.name else Task(
                task.period, task.deadline, task.wcet, task.mk,
                name=f"tau{position + 1}",
            )
            for position, task in enumerate(task_list)
        )

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    @property
    def tasks(self) -> Sequence[Task]:
        """The tasks in priority order (index 0 = highest priority)."""
        return self._tasks

    def fingerprint(self) -> "tuple":
        """Hashable identity of the analysis-relevant parameters.

        The tuple of per-task ``(period, deadline, wcet, m, k)`` in
        priority order, with the temporal parameters as exact Fractions.
        Two task sets with equal fingerprints are indistinguishable to
        every offline analysis and to the simulator, so the fingerprint
        keys the :mod:`repro.analysis.cache` entries.  Names are
        deliberately excluded.  Computed once and memoized (the task set
        is immutable).
        """
        fp = self._fingerprint
        if fp is None:
            fp = tuple(
                (task.period, task.deadline, task.wcet, task.mk.m, task.mk.k)
                for task in self._tasks
            )
            self._fingerprint = fp
        return fp

    def analysis_key(self) -> AnalysisKey:
        """The :meth:`fingerprint` as the key of this set's
        :mod:`repro.analysis.cache` entries: exact integers, hashed once
        (memoized).  A set reloaded from the generation store finds the
        original's entries without any Fraction hashing or comparison.
        """
        key = self._key
        if key is None:
            values: List[int] = []
            for task in self._tasks:
                for value in (task.period, task.deadline, task.wcet):
                    values += (value.numerator, value.denominator)
                values += (task.mk.m, task.mk.k)
            key = self._key = AnalysisKey(tuple(values))
        return key

    def priority_of(self, task: Task) -> int:
        """Index (= priority level) of a task; 0 is the highest priority."""
        for position, candidate in enumerate(self._tasks):
            if candidate is task:
                return position
        raise ModelError(f"task {task} is not a member of this TaskSet")

    def higher_priority(self, index: int) -> Sequence[Task]:
        """Tasks with strictly higher priority than the one at ``index``."""
        return self._tasks[:index]

    @property
    def utilization(self) -> Fraction:
        """Sum of C/P over all tasks."""
        return sum((task.utilization for task in self._tasks), Fraction(0))

    @property
    def mk_utilization(self) -> Fraction:
        """Sum of m*C/(k*P), the paper's x-axis quantity."""
        return sum((task.mk_utilization for task in self._tasks), Fraction(0))

    def hyperperiod(self) -> Fraction:
        """LCM of the task periods (on the common tick grid)."""
        base = self.timebase()
        ticks = 1
        for task in self._tasks:
            ticks = _lcm(ticks, base.to_ticks(task.period))
        return base.from_ticks(ticks)

    def mk_hyperperiod(self, upto_priority: "int | None" = None) -> Fraction:
        """LCM of k_i * P_i, the (m,k)-pattern hyperperiod.

        Args:
            upto_priority: when given, restrict to tasks with priority index
                <= this value -- Equation (5) of the paper uses
                ``LCM_{q <= i}(k_q P_q)``.
        """
        base = self.timebase()
        ticks = 1
        tasks = self._tasks if upto_priority is None else self._tasks[: upto_priority + 1]
        for task in tasks:
            ticks = _lcm(ticks, task.mk.k * base.to_ticks(task.period))
        return base.from_ticks(ticks)

    def timebase(self) -> TimeBase:
        """The coarsest tick grid exactly representing all task parameters.

        Memoized: every caller shares one :class:`TimeBase`, which only
        its constructor assigns.
        """
        base = self._timebase
        if base is None:
            values = []
            for task in self._tasks:
                values.extend((task.period, task.deadline, task.wcet))
            base = self._timebase = TimeBase.for_values(values)
        return base

    def __repr__(self) -> str:
        inner = ", ".join(str(task) for task in self._tasks)
        return f"TaskSet([{inner}])"
