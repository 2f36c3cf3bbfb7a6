"""Each scheme's release rules, written once as data.

The paper gives every standby-sparing scheme as a few per-task rules
(Section IV, Algorithm 1): which jobs are mandatory, where their copies
run, how far each backup is postponed, and which optional jobs run on
which processor.  A :class:`SchemeProfile` states those rules as data.
A policy's :meth:`~repro.sim.engine.SchedulingPolicy.prepare` returns
one, and three readers consume the same object:

* the scalar engine (:class:`~repro.sim.engine.StandbySparingEngine`)
  compiles it once per run into per-task, release-relative templates;
* the batch kernel (:mod:`repro.sim.batch`) fills its per-task tables
  from it and evaluates the same rules over whole arrays of runs;
* the conformance auditor (:func:`repro.sim.validation.audit_result`)
  replays a finished trace against it.

Semantics, per task (:class:`TaskProfile`):

* ``classification`` ``"fd"``: a job is mandatory iff its flexibility
  degree (FD) is 0; ``"pattern"``: iff ``pattern.is_mandatory(j)``;
  ``"all"``: every job is mandatory.
* A job that is not mandatory is an optional iff ``1 <= FD <= fd_max``
  (``fd_max=None`` means no upper bound, 0 means never); otherwise it is
  skipped.  Only ``"fd"`` tasks run optionals: any other classification
  must keep ``fd_max`` at 0.
* A mandatory job places a MAIN copy on ``main_processor`` at its
  release r and, unless ``backup_offset`` is None, a BACKUP copy on the
  other processor at r + ``backup_offset``.
* After a permanent fault, a mandatory job runs one MAIN copy on the
  survivor at r + ``postfault_main_offset[survivor]``.
* After a permanent fault, an optional is skipped unless
  ``postfault_optionals``; it then runs on the survivor and the
  alternation toggle does not move.
* Otherwise an optional runs on ``optional_processor`` or, with
  ``alternate_optionals``, on processors alternating per task starting
  there (principle (iii)).

Per scheme (:class:`SchemeProfile`), ``optional_preemption`` (False: a
dispatched optional holds its processor until it finishes or becomes
infeasible) and ``recoveries`` (after a transient fault on a copy of an
undecided job, rerun that copy on its own processor at the fault tick,
at most this many times per job and only if it can still finish by the
deadline).  A profile holds no per-run state: the engine keeps the
alternation toggles and the recovery counts.

The constructors reject what the readers would read differently: a
processor other than 0 (primary) or 1 (spare), a negative offset, or a
negative recovery count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..model.patterns import Pattern
from .engine import PRIMARY, SPARE

CLASSIFICATIONS = ("fd", "pattern", "all")


@dataclass(frozen=True)
class TaskProfile:
    """One task's release rules (see the module docstring)."""

    classification: str
    pattern: Optional[Pattern] = None
    fd_max: Optional[int] = 0
    main_processor: int = PRIMARY
    backup_offset: Optional[int] = None
    optional_processor: int = PRIMARY
    alternate_optionals: bool = False
    postfault_main_offset: Tuple[int, int] = (0, 0)  # indexed by survivor
    postfault_optionals: bool = False

    def __post_init__(self) -> None:
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(
                f"classification must be one of {CLASSIFICATIONS}, "
                f"got {self.classification!r}"
            )
        if self.classification == "pattern" and self.pattern is None:
            raise ValueError("pattern classification needs a pattern")
        if self.classification != "fd" and self.fd_max != 0:
            raise ValueError(
                f"only fd classification runs optionals; "
                f"{self.classification!r} needs fd_max=0, got {self.fd_max!r}"
            )
        # The engine indexes its per-processor state with these, and the
        # batch kernel reads a negative backup offset as "no backup":
        # out-of-range values would make the two backends disagree.
        for name in ("main_processor", "optional_processor"):
            value = getattr(self, name)
            if value not in (PRIMARY, SPARE):
                raise ValueError(
                    f"{name} must be {PRIMARY} or {SPARE}, got {value!r}"
                )
        if self.backup_offset is not None and self.backup_offset < 0:
            raise ValueError(
                f"backup_offset must be >= 0 or None, got {self.backup_offset!r}"
            )
        if any(offset < 0 for offset in self.postfault_main_offset):
            raise ValueError(
                f"postfault_main_offset must be >= 0, "
                f"got {self.postfault_main_offset!r}"
            )


@dataclass(frozen=True)
class SchemeProfile:
    """One prepared policy's complete rule set.

    Attributes:
        scheme: the policy name (for issue messages).
        tasks: one :class:`TaskProfile` per task, in task order (any
            iterable; stored as a tuple).
        optional_preemption: when True a more urgent optional preempts a
            running optional; when False a dispatched optional runs to
            completion unless a *mandatory* job arrives (the paper's
            greedy trace in Figure 3: O12 is never started because O22
            holds the processor).  The batch kernel's sticky-optional
            rule is its negation, and the auditor skips
            optional-vs-optional priority checks when it is False.
        recoveries: recovery copies allowed per logical job after
            transient faults (see the module docstring); 0 leaves
            recovery to the sibling backup.
    """

    scheme: str
    tasks: Tuple[TaskProfile, ...]
    optional_preemption: bool = True
    recoveries: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if self.recoveries < 0:
            raise ValueError(f"recoveries must be >= 0, got {self.recoveries!r}")

    @property
    def max_copies(self) -> int:
        """WCETs one logical job may execute in total: its main, a
        backup when any task has one, and the recoveries."""
        backups = any(task.backup_offset is not None for task in self.tasks)
        return (2 if backups else 1) + self.recoveries

    @property
    def reads_flexibility_degree(self) -> List[bool]:
        """Per task, whether a rule reads its FD: only the FD rule does.

        A pattern or all-mandatory task skips every job its rule leaves
        optional whatever its FD, so a stats-only run computes FD only
        for the tasks answered True.
        """
        return [task.classification == "fd" for task in self.tasks]
