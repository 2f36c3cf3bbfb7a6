"""Each scheme's release rules, written once as data.

The paper gives every standby-sparing scheme as a few per-task rules
(Section IV, Algorithm 1): which jobs are mandatory, where their copies
run, how far each backup is postponed, and which optional jobs run on
which processor.  A :class:`SchemeProfile` states those rules as data,
and three readers consume the same object:

* :class:`ProfiledPolicy` executes it one release at a time for the
  scalar engine (:meth:`ProfiledPolicy.plan_release`);
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

Per scheme, ``optional_preemption`` (False: a dispatched optional holds
its processor until it finishes or becomes infeasible) and
``max_copies`` (the WCETs one logical job may execute in total).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..model.job import JobRole
from ..model.patterns import Pattern, is_window_periodic
from .engine import (
    PRIMARY,
    SPARE,
    CopySpec,
    PolicyContext,
    ReleasePlan,
    SchedulingPolicy,
)

CLASSIFICATIONS = ("fd", "pattern", "all")

MAIN = JobRole.MAIN
BACKUP = JobRole.BACKUP
OPTIONAL = JobRole.OPTIONAL
_SKIP = ReleasePlan.skip()


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


@dataclass(frozen=True)
class SchemeProfile:
    """One prepared policy's complete rule set.

    Attributes:
        scheme: the policy name (for issue messages).
        tasks: one :class:`TaskProfile` per task, in task order.
        optional_preemption: mirrors
            :attr:`~repro.sim.engine.SchedulingPolicy.optional_preemption`;
            the batch kernel's sticky-optional rule is its negation, and
            the auditor skips optional-vs-optional priority checks when
            it is False.
        max_copies: WCETs one logical job may execute in total (1 for
            single-copy policies, 2 for standby-sparing, 1 +
            max_recoveries for re-execution).
    """

    scheme: str
    tasks: Tuple[TaskProfile, ...]
    optional_preemption: bool = True
    max_copies: int = 2


class ProfiledPolicy(SchedulingPolicy):
    """A policy whose every release decision follows its profile.

    Subclasses run their offline analysis in :meth:`prepare` and end it
    with :meth:`adopt_rules`.  The class's own mutable state is only the
    per-task optional alternation toggle.
    """

    def adopt_rules(
        self, tasks: Iterable[TaskProfile], max_copies: int = 2
    ) -> None:
        """Install the per-task rules and reset the alternation toggles."""
        rules = tuple(tasks)
        self._profile = SchemeProfile(
            scheme=self.name,
            tasks=rules,
            optional_preemption=self.optional_preemption,
            max_copies=max_copies,
        )
        self._next_optional = [task.optional_processor for task in rules]
        # Compiled by the first plan_release, not here: the batch kernel
        # prepares policies too but reads only the profile.
        self._compiled = None

    def profile(self, ctx: PolicyContext) -> SchemeProfile:
        return self._profile

    def reads_flexibility_degree(self, ctx: PolicyContext) -> List[bool]:
        # FD decides the FD rule's mandatory jobs and, below a nonzero
        # fd_max, which optionals run; any other task skips every job
        # its pattern leaves optional, whatever its FD.
        return [
            rules.classification == "fd" or rules.fd_max != 0
            for rules in self._profile.tasks
        ]

    def _compile(self) -> list:
        """Each task's rules as a flat tuple :meth:`plan_release` unpacks.

        The first field says which jobs are mandatory: None for the FD
        rule, True for all of them, a window-periodic pattern's window
        (read by job phase), or any other pattern's ``is_mandatory``.
        ``fd_max`` None (no bound) becomes a bound no degree reaches.
        """
        compiled = []
        for rules in self._profile.tasks:
            classification = rules.classification
            if classification == "fd":
                static = None
            elif classification == "all":
                static = True
            elif is_window_periodic(rules.pattern):
                static = tuple(bit == 1 for bit in rules.pattern.window())
            else:
                static = rules.pattern.is_mandatory
            compiled.append(
                (
                    static,
                    sys.maxsize if rules.fd_max is None else rules.fd_max,
                    rules.main_processor,
                    rules.backup_offset,
                    rules.optional_processor,
                    rules.alternate_optionals,
                    rules.postfault_main_offset,
                    rules.postfault_optionals,
                )
            )
        self._compiled = compiled
        return compiled

    def plan_release(
        self,
        ctx: PolicyContext,
        task_index: int,
        job_index: int,
        release: int,
        deadline: int,
        fd: int,
    ) -> ReleasePlan:
        compiled = self._compiled
        if compiled is None:
            compiled = self._compile()
        (
            static, fd_max, main, backup_offset, optional_processor,
            alternate, postfault_offset, postfault_optionals,
        ) = compiled[task_index]  # fmt: skip
        if static is None:
            mandatory = fd == 0
        elif static is True:
            mandatory = True
        elif type(static) is tuple:
            mandatory = static[(job_index - 1) % len(static)]
        else:
            mandatory = static(job_index)
        fault_mode = ctx.dead_processor is not None
        if mandatory:
            if fault_mode:
                survivor = ctx.surviving_processor()
                return ReleasePlan(
                    (
                        CopySpec(
                            MAIN, survivor, release + postfault_offset[survivor]
                        ),
                    ),
                    "mandatory",
                )
            if backup_offset is None:
                return ReleasePlan((CopySpec(MAIN, main, release),), "mandatory")
            return ReleasePlan(
                (
                    CopySpec(MAIN, main, release),
                    CopySpec(
                        BACKUP,
                        SPARE if main == PRIMARY else PRIMARY,
                        release + backup_offset,
                    ),
                ),
                "mandatory",
            )
        if fd < 1 or fd > fd_max:
            return _SKIP
        if fault_mode:
            if not postfault_optionals:
                return _SKIP
            processor = ctx.surviving_processor()
        elif alternate:
            processor = self._next_optional[task_index]
            self._next_optional[task_index] = (
                SPARE if processor == PRIMARY else PRIMARY
            )
        else:
            processor = optional_processor
        return ReleasePlan((CopySpec(OPTIONAL, processor, release),), "optional")

