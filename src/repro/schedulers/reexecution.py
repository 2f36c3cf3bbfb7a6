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
``max_recoveries``: the profile's ``recoveries``, which the engine
executes.

Energy-wise this needs no spare processor at all, so on transient-only
fault scenarios it undercuts every standby-sparing scheme; the price is
zero tolerance of permanent faults (after one, the system is simply
single-processor anyway) and a recovery-induced tail latency.  The
comparison bench quantifies both sides.
"""

from __future__ import annotations

from ..sim.engine import PRIMARY, PolicyContext, SchedulingPolicy
from ..sim.profile import SchemeProfile, TaskProfile


class ReExecutionFP(SchedulingPolicy):
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

    def prepare(self, ctx: PolicyContext) -> SchemeProfile:
        # FD classification, single copy, no backups; each logical job
        # may execute up to 1 + max_recoveries copies' worth of work.
        # Recoveries only follow transient faults, and the batch kernel
        # leaves this policy's transient-capable runs to the scalar
        # engine.  Everything runs on the survivor after a fault, so a
        # recovery's own processor is always where the job lives.
        return SchemeProfile(
            self.name,
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
            recoveries=self.max_recoveries,
        )
