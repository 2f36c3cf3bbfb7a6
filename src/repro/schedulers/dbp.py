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

from ..sim.engine import PRIMARY, PolicyContext, SchedulingPolicy
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

    def prepare(self, ctx: PolicyContext) -> SchemeProfile:
        # FD classification, single copy, no backups; the energy-aware
        # variant only runs optionals within two misses of failure.  The
        # OJQ orders by (fd, task, job): exactly DBP's smaller
        # distance-to-failure = higher priority, FP tie-break.
        # Everything runs on the survivor after a fault.
        return SchemeProfile(
            self.name,
            (
                TaskProfile(
                    "fd",
                    fd_max=None if self._run_all else 2,
                    main_processor=self._processor,
                    optional_processor=self._processor,
                    postfault_optionals=True,
                )
                for _ in ctx.taskset
            ),
        )
