"""Re-execution fault tolerance (software redundancy) — extension baseline.

The paper's introduction contrasts two redundancy styles: *hardware*
(standby-sparing: a second processor runs a backup copy, covering
permanent **and** transient faults) and *software* (re-execute a faulted
job on the same processor when slack allows, covering transient faults
only — Zhu et al.'s reliability-aware line of work).

:class:`ReExecutionFP` implements the software style on one processor
under the (m,k) model: jobs are classified dynamically (mandatory iff
FD = 0), optional FD = 1 jobs run best-effort, and when a job's sanity
check fails at completion a recovery copy is re-enqueued immediately —
if it can still meet the deadline.  Repeated faults trigger repeated
recoveries (each recovery rolls the fault dice again), bounded by
``max_recoveries``.

Energy-wise this needs no spare processor at all, so on transient-only
fault scenarios it undercuts every standby-sparing scheme; the price is
zero tolerance of permanent faults (after one, the system is simply
single-processor anyway) and a recovery-induced tail latency.  The
comparison bench quantifies both sides.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..model.job import Job
from ..sim.engine import PRIMARY, CopySpec, PolicyContext
from ..sim.profile import ProfiledPolicy, TaskProfile


class ReExecutionFP(ProfiledPolicy):
    """Single-processor FP with (m,k) classification and re-execution."""

    name = "ReExecution_FP"

    def __init__(
        self,
        processor: int = PRIMARY,
        fd_threshold: int = 1,
        max_recoveries: int = 3,
    ) -> None:
        """Args:
        processor: where everything runs.
        fd_threshold: execute optionals with 1 <= FD <= this.
        max_recoveries: recovery copies allowed per logical job.
        """
        self._processor = processor
        self.fd_threshold = fd_threshold
        self.max_recoveries = max_recoveries
        self._recovery_counts: Dict[Tuple[int, int], int] = {}

    def _target(self, ctx: PolicyContext) -> int:
        if ctx.fault_mode and ctx.dead_processor == self._processor:
            return ctx.surviving_processor()
        return self._processor

    def prepare(self, ctx: PolicyContext) -> None:
        # FD classification, single copy, no backups; each logical job
        # may execute up to 1 + max_recoveries copies' worth of work.
        # Recoveries only follow transient faults, and the batch kernel
        # leaves this policy's transient-capable runs to the scalar
        # engine.  Everything runs on the survivor after a fault.
        self.adopt_rules(
            (
                TaskProfile(
                    "fd",
                    fd_max=self.fd_threshold,
                    main_processor=self._processor,
                    optional_processor=self._processor,
                    postfault_optionals=True,
                )
                for _ in ctx.taskset
            ),
            max_copies=1 + self.max_recoveries,
        )

    def plan_recovery(
        self, ctx: PolicyContext, job: Job, now: int
    ) -> Optional[CopySpec]:
        key = job.key()
        used = self._recovery_counts.get(key, 0)
        if used >= self.max_recoveries:
            return None
        if now + job.wcet > job.deadline:
            return None  # the recovery could never finish in time
        self._recovery_counts[key] = used + 1
        return CopySpec(job.role, self._target(ctx), now)
