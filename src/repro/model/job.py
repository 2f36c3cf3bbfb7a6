"""Runtime job instances.

A *logical job* J_ij is the j-th instance of task τ_i.  Under
standby-sparing a mandatory logical job materializes as two *copies* -- a
main copy on the primary processor and a backup copy on the spare -- while
an optional job materializes as a single copy on whichever processor the
policy selects.  :class:`Job` models one copy; the simulator links the two
copies of a mandatory job through :attr:`Job.sibling`.

Jobs live on the integer tick grid of the simulation (see
:mod:`repro.timebase`); the model layer's rational quantities are compiled
down before any ``Job`` exists.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..errors import ModelError


class JobRole(enum.Enum):
    """What a job copy is, in standby-sparing terms."""

    MAIN = "main"          #: mandatory job's primary-processor copy
    BACKUP = "backup"      #: mandatory job's spare-processor copy
    OPTIONAL = "optional"  #: optional job (single copy, no backup)

    # Members are singletons compared by identity, so identity hashing is
    # consistent with equality and skips the pure-Python Enum.__hash__.
    __hash__ = object.__hash__


class JobStatus(enum.Enum):
    """Lifecycle of one job copy inside the simulator."""

    PENDING = "pending"        #: released but not yet enqueued (postponed)
    READY = "ready"            #: in a ready queue, may be preempted-resumed
    RUNNING = "running"        #: currently executing
    COMPLETED = "completed"    #: ran to completion (may still have faulted)
    CANCELED = "canceled"      #: backup canceled because its main succeeded
    ABANDONED = "abandoned"    #: optional dropped (infeasible or policy skip)
    LOST = "lost"              #: copy destroyed by a permanent processor fault

    # Identity hashing, as on JobRole: the engine tests membership in
    # FINISHED_STATUSES for every dispatch decision.
    __hash__ = object.__hash__


#: Statuses after which a copy never executes again.  Hot paths (ready
#: queues, the engine's dispatch loop) test membership here directly
#: rather than through the :attr:`Job.is_finished` property.
FINISHED_STATUSES = frozenset(
    (
        JobStatus.COMPLETED,
        JobStatus.CANCELED,
        JobStatus.ABANDONED,
        JobStatus.LOST,
    )
)


class JobOutcome(enum.Enum):
    """Outcome of a *logical* job with respect to the (m,k) constraint."""

    EFFECTIVE = "effective"  #: counted as a success ("1" in the window)
    MISSED = "missed"        #: counted as a miss ("0" in the window)


class Job:
    """One schedulable copy of a logical job, in tick time.

    Attributes:
        task_index: priority index of the owning task (0 = highest).
        job_index: 1-based instance number j of J_ij.
        role: main / backup / optional.
        release: nominal release time r_ij in ticks.
        enqueue_time: time this copy becomes ready (release + postponement).
        deadline: absolute deadline d_ij in ticks.
        wcet: execution budget c_ij in ticks.
        remaining: ticks of execution still owed.
        status: copy lifecycle state.
        faulted: True when a transient fault will be detected at completion.
        sibling: the other copy of the same mandatory logical job, if any.
        processor: index of the processor this copy is bound to.
        queue_key: ready-queue priority key assigned by the simulator at
            copy creation ((task_index, job_index) for mandatory copies,
            (flexibility degree, task_index, job_index) for optionals).
            Kept on the copy itself so requeueing after preemption never
            needs a side table.
        speed: execution frequency of this copy (DVFS).  The int 1 for
            full speed (the default; every non-DVFS run), or an exact
            Fraction in (0, 1) for a slowed main copy -- its ``wcet``
            is then already the *stretched* tick budget, so the engine's
            time arithmetic needs no per-tick scaling.
        entry: the simulator's bookkeeping for the logical job this copy
            belongs to (None outside a run), so a completing or dropped
            copy reaches its logical job without a lookup.
    """

    __slots__ = (
        "task_index",
        "job_index",
        "role",
        "release",
        "enqueue_time",
        "deadline",
        "wcet",
        "remaining",
        "status",
        "faulted",
        "sibling",
        "processor",
        "completion_time",
        "started_at",
        "_name",
        "queue_key",
        "speed",
        "entry",
    )

    def __init__(
        self,
        task_index: int,
        job_index: int,
        role: JobRole,
        release: int,
        deadline: int,
        wcet: int,
        processor: int,
        enqueue_time: Optional[int] = None,
        speed: "int | object" = 1,
        entry: object = None,
        name: str = "",
    ) -> None:
        if wcet <= 0:
            raise ModelError(f"job wcet must be positive ticks, got {wcet}")
        if deadline < release:
            raise ModelError(
                f"deadline {deadline} precedes release {release} for job "
                f"({task_index},{job_index})"
            )
        self.task_index = task_index
        self.job_index = job_index
        self.role = role
        self.release = release
        self.enqueue_time = release if enqueue_time is None else enqueue_time
        self.deadline = deadline
        self.wcet = wcet
        self.remaining = wcet
        self.status = JobStatus.PENDING
        self.faulted = False
        self.sibling: Optional[Job] = None
        self.processor = processor
        self.completion_time: Optional[int] = None
        self.started_at: Optional[int] = None
        self._name = name
        self.queue_key: "tuple[int, ...]" = (task_index, job_index)
        self.speed = speed
        self.entry = entry

    @property
    def name(self) -> str:
        """Human-readable label ``J<i>,<j>``, built on demand.

        Only trace logging and ``repr`` read it, so the common stats-only
        path never pays for the f-string.
        """
        return self._name or f"J{self.task_index + 1},{self.job_index}"

    @property
    def executed(self) -> int:
        """Ticks of execution already consumed by this copy."""
        return self.wcet - self.remaining

    @property
    def is_finished(self) -> bool:
        """True when this copy will never execute again."""
        return self.status in FINISHED_STATUSES

    def can_finish_by_deadline(self, now: int) -> bool:
        """Whether the remaining budget fits before the deadline from ``now``.

        This is a *best-case* (no interference) feasibility check used to
        skip optional jobs that have no chance -- the paper drops O11 in
        Figure 2 on exactly this ground.
        """
        return now + self.remaining <= self.deadline

    def key(self) -> "tuple[int, int]":
        """Identity of the logical job: (task_index, job_index)."""
        return (self.task_index, self.job_index)

    def __repr__(self) -> str:
        return (
            f"Job({self.name}, role={self.role.value}, r={self.release}, "
            f"d={self.deadline}, c={self.wcet}, rem={self.remaining}, "
            f"status={self.status.value}, proc={self.processor})"
        )
