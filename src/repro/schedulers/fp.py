"""Plain single-processor fixed-priority scheduling (substrate baseline).

Every job is treated as mandatory and runs as a single copy on the primary
processor; no sparing, no patterns.  Useful as a sanity baseline (it is
the schedule classic RTA reasons about) and for exercising the engine in
isolation from the standby-sparing machinery.
"""

from __future__ import annotations

from ..model.job import JobRole
from ..sim.engine import (
    PRIMARY,
    CopySpec,
    PolicyContext,
    ReleasePlan,
    SchedulingPolicy,
)
from ..sim.profile import SchemeProfile, TaskProfile


class SingleProcessorFP(SchedulingPolicy):
    """All jobs mandatory, one copy, primary processor, FP order."""

    name = "FP"

    def __init__(self, processor: int = PRIMARY) -> None:
        self._processor = processor

    def plan_release(
        self,
        ctx: PolicyContext,
        task_index: int,
        job_index: int,
        release: int,
        deadline: int,
        fd: int,
    ) -> ReleasePlan:
        processor = self._processor
        if ctx.fault_mode and ctx.dead_processor == processor:
            processor = ctx.surviving_processor()
        return ReleasePlan(
            copies=(CopySpec(JobRole.MAIN, processor, release),),
            classified_as="mandatory",
        )

    def profile(self, ctx: PolicyContext) -> SchemeProfile:
        # Every job mandatory, single copy, no backups, no postponement.
        return SchemeProfile(
            scheme=self.name,
            tasks=tuple(
                TaskProfile("all", main_processor=self._processor)
                for _ in ctx.taskset
            ),
            max_copies=1,
        )

    def fold_state(self, ctx: PolicyContext, pattern_phases):
        # Stateless: every job is mandatory on a fixed processor.
        return ()
