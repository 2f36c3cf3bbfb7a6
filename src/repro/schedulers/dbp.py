"""Distance-based priority (DBP) -- extension baseline.

Hamdaoui & Ramanathan's classic dynamic scheme for (m,k)-firm streams:
each task's priority is its *distance to failure*, i.e. how many more
consecutive misses it can absorb -- exactly the flexibility degree of this
package, plus one.  Jobs closer to violating their constraint get higher
priority.

This is not part of the paper's evaluation (which is fixed-priority
throughout), but it is the canonical related dynamic scheme and makes a
natural extra baseline for the ablation benches: it shows how much of the
selective scheme's win comes from standby-sparing-aware *placement* rather
than from (m,k)-aware *prioritization* alone.

Implementation note: the engine's queues order by a key fixed at release;
DBP's distance is indeed fixed at release (it changes only with outcomes
of earlier jobs of the same task, all decided by then), so the mapping is
exact.  Every job runs as a single copy; mandatory-urgency jobs
(distance 1, i.e. FD 0) go to the MJQ so they preempt everything else,
mirroring DBP's intent on one processor.
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


class DistanceBasedPriority(SchedulingPolicy):
    """Single-processor DBP over the engine's two-queue structure."""

    name = "DBP"

    def __init__(self, processor: int = PRIMARY, run_all: bool = False) -> None:
        """Args:
        processor: the processor everything runs on.
        run_all: when True every job is submitted (classic DBP); when
            False jobs with distance > 2 are skipped, a common
            energy-aware DBP variant that only runs jobs within two
            misses of failure.
        """
        self._processor = processor
        self._run_all = run_all

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
        if fd == 0:
            return ReleasePlan(
                copies=(CopySpec(JobRole.MAIN, processor, release),),
                classified_as="mandatory",
            )
        if not self._run_all and fd > 2:
            return ReleasePlan.skip()
        # The OJQ orders by (fd, task, job): exactly DBP's smaller
        # distance-to-failure = higher priority, FP tie-break.
        return ReleasePlan(
            copies=(CopySpec(JobRole.OPTIONAL, processor, release),),
            classified_as="optional",
        )

    def profile(self, ctx: PolicyContext) -> SchemeProfile:
        # FD classification, single copy, no backups; the energy-aware
        # variant only runs optionals within two misses of failure.
        # Everything runs on the survivor after a fault.
        return SchemeProfile(
            scheme=self.name,
            tasks=tuple(
                TaskProfile(
                    "fd",
                    fd_max=None if self._run_all else 2,
                    main_processor=self._processor,
                    optional_processor=self._processor,
                    postfault_optionals=True,
                )
                for _ in ctx.taskset
            ),
            max_copies=1,
        )

    def fold_state(self, ctx: PolicyContext, pattern_phases):
        # Decisions derive from the flexibility degree (part of the
        # engine's canonical state) and constructor constants.
        return ()
