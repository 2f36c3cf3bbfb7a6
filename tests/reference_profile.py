"""A per-release interpreter of scheme profiles, kept as a differential oracle.

:class:`ReferencePlanner` executes a :class:`~repro.sim.profile.SchemeProfile`
one release at a time: it reads each rule afresh at every release, asks a
pattern's ``is_mandatory`` directly, builds every copy it plans, keeps its own
optional alternation toggles and recovery counts, and sends a recovery copy to
the task's home processor (``main_processor``), or to the survivor once home
has died.  The engine instead compiles the profile once per run into
release-relative templates and reruns a faulted copy on its own processor; the
reference engine (``tests/reference_engine.py``) plans with this class, so the
differential tests hold the compiled rules to code that shares nothing with
them.

Used only by tests; never import this from package code.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.model.job import Job, JobRole
from repro.sim.engine import PRIMARY, SPARE
from repro.sim.profile import SchemeProfile


class CopySpec(NamedTuple):
    """One copy to create for a released logical job."""

    role: JobRole
    processor: int
    enqueue_tick: int


class ReleasePlan(NamedTuple):
    """The verdict for one released logical job.

    Attributes:
        copies: the copies to instantiate (empty = the job is skipped).
        classified_as: "mandatory" / "optional" / "skipped" for reporting.
    """

    copies: Tuple[CopySpec, ...]
    classified_as: str


SKIP = ReleasePlan((), "skipped")


def _other(processor: int) -> int:
    return SPARE if processor == PRIMARY else PRIMARY


class ReferencePlanner:
    """One run's release and recovery decisions, read from a profile."""

    def __init__(self, profile: SchemeProfile) -> None:
        self.profile = profile
        self._next_optional = [task.optional_processor for task in profile.tasks]
        self._recovery_counts: Dict[Tuple[int, int], int] = {}

    def plan_release(
        self,
        dead_processor: Optional[int],
        task_index: int,
        job_index: int,
        release: int,
        fd: int,
    ) -> ReleasePlan:
        """Classify a released logical job and emit its copies."""
        rules = self.profile.tasks[task_index]
        if rules.classification == "fd":
            mandatory = fd == 0
        elif rules.classification == "all":
            mandatory = True
        else:
            mandatory = rules.pattern.is_mandatory(job_index)
        if mandatory:
            if dead_processor is not None:
                survivor = _other(dead_processor)
                offset = rules.postfault_main_offset[survivor]
                return ReleasePlan(
                    (CopySpec(JobRole.MAIN, survivor, release + offset),),
                    "mandatory",
                )
            copies = (CopySpec(JobRole.MAIN, rules.main_processor, release),)
            if rules.backup_offset is not None:
                copies += (
                    CopySpec(
                        JobRole.BACKUP,
                        _other(rules.main_processor),
                        release + rules.backup_offset,
                    ),
                )
            return ReleasePlan(copies, "mandatory")
        if fd < 1 or (rules.fd_max is not None and fd > rules.fd_max):
            return SKIP
        if dead_processor is not None:
            if not rules.postfault_optionals:
                return SKIP
            processor = _other(dead_processor)
        elif rules.alternate_optionals:
            processor = self._next_optional[task_index]
            self._next_optional[task_index] = _other(processor)
        else:
            processor = rules.optional_processor
        return ReleasePlan((CopySpec(JobRole.OPTIONAL, processor, release),), "optional")

    def plan_recovery(
        self, dead_processor: Optional[int], job: Job, now: int
    ) -> Optional[CopySpec]:
        """A recovery copy for a transiently faulted, undecided job, or
        None once the job's recoveries are spent or one could not finish
        by the deadline."""
        key = job.key()
        used = self._recovery_counts.get(key, 0)
        if used >= self.profile.recoveries or now + job.wcet > job.deadline:
            return None
        self._recovery_counts[key] = used + 1
        home = self.profile.tasks[job.task_index].main_processor
        if home == dead_processor:
            home = _other(home)
        return CopySpec(job.role, home, now)
