"""MKSS_ST: the static reference scheme (Section V, first approach).

Task sets are statically partitioned with R-patterns; every mandatory job
runs *concurrently* on both processors -- main on the primary, backup on
the spare, both released at the nominal release time, with no
procrastination.  Optional jobs are never executed.  The evaluation uses
this scheme's energy as the normalization reference.

Because the two processors are identical and both copies are released
together, the copies finish (essentially) together and cancellation saves
nothing in the fault-free case -- which is exactly why the paper treats
this scheme as the upper reference: its active energy is twice the
mandatory workload.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..model.patterns import Pattern, RPattern
from ..sim.engine import PolicyContext, SchedulingPolicy
from ..sim.profile import SchemeProfile, TaskProfile


class MKSSStatic(SchedulingPolicy):
    """Static R-pattern standby-sparing without procrastination."""

    name = "MKSS_ST"

    def __init__(self, patterns: Optional[Sequence[Pattern]] = None) -> None:
        """Args:
        patterns: static partitioning patterns, one per task; defaults
            to deeply-red R-patterns (the paper's choice).
        """
        self._patterns: Optional[List[Pattern]] = (
            list(patterns) if patterns is not None else None
        )

    def prepare(self, ctx: PolicyContext) -> SchemeProfile:
        patterns = self._patterns
        if patterns is None:
            patterns = [RPattern(task.mk) for task in ctx.taskset]
        elif len(patterns) != len(ctx.taskset):
            raise ValueError("need exactly one pattern per task")
        # Pattern-mandatory jobs only, main on the primary and backup on
        # the spare both at the nominal release; post-fault mains land on
        # the survivor at the release too.
        return SchemeProfile(
            self.name,
            (
                TaskProfile("pattern", pattern=pattern, backup_offset=0)
                for pattern in patterns
            ),
        )
