"""Plain single-processor fixed-priority scheduling (substrate baseline).

Every job is treated as mandatory and runs as a single copy on the primary
processor; no sparing, no patterns.  Useful as a sanity baseline (it is
the schedule classic RTA reasons about) and for exercising the engine in
isolation from the standby-sparing machinery.
"""

from __future__ import annotations

from ..sim.engine import PRIMARY, PolicyContext, SchedulingPolicy
from ..sim.profile import SchemeProfile, TaskProfile


class SingleProcessorFP(SchedulingPolicy):
    """All jobs mandatory, one copy, primary processor, FP order."""

    name = "FP"

    def __init__(self, processor: int = PRIMARY) -> None:
        self._processor = processor

    def prepare(self, ctx: PolicyContext) -> SchemeProfile:
        # Every job mandatory, single copy, no backups, no postponement;
        # after a fault every job runs on the survivor.
        return SchemeProfile(
            self.name,
            (
                TaskProfile("all", main_processor=self._processor)
                for _ in ctx.taskset
            ),
        )
