"""The dual-processor standby-sparing discrete-event engine.

One engine serves every scheme in the paper; what differs between
MKSS-ST, MKSS-DP, the greedy scheme, and MKSS-Selective is *policy*:
how a released job is classified (statically by pattern or dynamically by
flexibility degree), which processor each copy goes to, and how much each
backup release is postponed.  A policy states exactly that, once, as the
:class:`~repro.sim.profile.SchemeProfile` its
:meth:`SchedulingPolicy.prepare` returns; the engine compiles the profile
once per run into per-task, release-relative templates and owns
everything else:

* per-processor mandatory (MJQ) and optional (OJQ) ready queues, with the
  MJQ strictly above the OJQ (Algorithm 1, lines 2-9): plain heaps of
  ``(key, seq, copy)`` whose finished copies are dropped lazily, when
  they reach the head;
* preemptive fixed-priority dispatch inside each queue (optional jobs are
  ordered by (flexibility degree, task priority) -- the paper's
  "more flexible = less urgent" footnote);
* dropping optional jobs that can no longer finish by their deadline
  (Figure 2's O11);
* backup cancellation the instant the sibling copy completes successfully;
* transient-fault detection at completion, the profile's recovery copies,
  and permanent-fault takeover;
* the per-run rule state: each task's optional alternation toggle and
  each job's recovery count;
* outcome recording and (m,k)-history maintenance, so flexibility degrees
  evolve exactly as in the paper's traces.

Releases are driven by a shared :class:`~repro.sim.timeline.ReleaseTimeline`
(precomputed once per (task set, horizon) and reused across schemes)
instead of self-chaining heap events.  Two execution modes exist:

* **trace mode** (``collect_trace=True``, default): full
  :class:`~repro.sim.trace.ExecutionTrace` with segments, records, and
  events -- what plots, exports, and debugging need;
* **stats mode** (``collect_trace=False``): only the aggregate counters
  downstream sweeps consume (:class:`~repro.sim.stats.RunStats`),
  skipping all segment/record/log construction.

All times are integer ticks (see :mod:`repro.timebase`).
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from ..model.history import (
    normalize_initial_history,
    packed_flexibility_degree,
    packed_initial_window,
    popcount,
)
from ..model.job import FINISHED_STATUSES, Job, JobOutcome, JobRole, JobStatus
from ..model.patterns import is_window_periodic
from ..model.taskset import TaskSet
from ..timebase import TimeBase
from .stats import RunStats
from .timeline import ReleaseTimeline
from .trace import ExecutionTrace, LogicalJobRecord, TraceIndex

if TYPE_CHECKING:  # the profile module imports this one
    from .profile import SchemeProfile

#: Conventional processor indices.
PRIMARY = 0
SPARE = 1

# Event kinds double as the ordering at equal ticks: permanent faults
# strike first, then deadlines are judged, then new jobs arrive, then
# postponed copies enqueue.  Integer kinds keep event dispatch off the
# string-comparison path.
_EV_PERMFAULT = 0
_EV_DEADLINE = 1
_EV_RELEASE = 2
_EV_ENQUEUE = 3


@dataclass(frozen=True)
class PolicyContext:
    """What a policy's offline analysis may consult."""

    taskset: TaskSet
    timebase: TimeBase
    horizon_ticks: int


class SchedulingPolicy:
    """Base class for standby-sparing scheduling policies.

    A policy is its rules: :meth:`prepare` runs the scheme's offline
    analysis for one task set and returns them as a
    :class:`~repro.sim.profile.SchemeProfile`.  The engine compiles that
    profile and keeps every piece of per-run state itself, so one policy
    instance may run any number of task sets, in any order.
    """

    name = "abstract"

    def prepare(self, ctx: PolicyContext) -> "SchemeProfile":
        """Offline analysis for ``ctx``'s task set; returns its rules."""
        raise NotImplementedError


#: An optional's single copy on each processor, release-relative.
_OPTIONAL_COPIES = (
    ((JobRole.OPTIONAL, PRIMARY, 0),),
    ((JobRole.OPTIONAL, SPARE, 0),),
)


def _compile(profile: "SchemeProfile", task_count: int) -> list:
    """Each task's rules as one tuple of release-relative templates.

    The fields, in order:

    * the mandatory test: None for the FD rule, True for every job, a
      window-periodic pattern's window (read by job phase), or any other
      pattern's ``is_mandatory``;
    * the mandatory copies while both processors live, as ``(role,
      processor, offset)`` with the offset from the release;
    * the survivor's single main, indexed by the dead processor;
    * the optional rule: the FD bound (None, no bound, becomes one no
      degree reaches), the first processor, whether optionals
      alternate, and whether they run after a permanent fault.
    """
    if len(profile.tasks) != task_count:
        raise ConfigurationError(
            f"profile of {profile.scheme!r} covers {len(profile.tasks)} "
            f"tasks, task set has {task_count}"
        )
    compiled = []
    for rules in profile.tasks:
        classification = rules.classification
        if classification == "fd":
            static = None
        elif classification == "all":
            static = True
        elif is_window_periodic(rules.pattern):
            static = tuple(bit == 1 for bit in rules.pattern.window())
        else:
            static = rules.pattern.is_mandatory
        main = rules.main_processor
        copies = ((JobRole.MAIN, main, 0),)
        if rules.backup_offset is not None:
            copies += (
                (
                    JobRole.BACKUP,
                    SPARE if main == PRIMARY else PRIMARY,
                    rules.backup_offset,
                ),
            )
        offsets = rules.postfault_main_offset
        postfault = (
            ((JobRole.MAIN, SPARE, offsets[SPARE]),),  # primary dead
            ((JobRole.MAIN, PRIMARY, offsets[PRIMARY]),),  # spare dead
        )
        compiled.append(
            (
                static,
                copies,
                postfault,
                sys.maxsize if rules.fd_max is None else rules.fd_max,
                rules.optional_processor,
                rules.alternate_optionals,
                rules.postfault_optionals,
            )
        )
    return compiled


TransientFaultFn = Callable[[Job, int], bool]
"""Callable deciding whether a completing copy suffered a transient fault.

Receives the job copy and the completion tick; returns True on fault.
A ``never_faults`` attribute set to True marks the callable as a
statically-known no-op: the scalar engine never calls it and the batch
kernel skips fault bookkeeping.  The engine calls a
:class:`~repro.faults.types.TransientFaultModel` through its
``job_faulted`` method.
"""

ExecutionTimeFn = Callable[[int, int, int], int]
"""Callable giving a logical job's *actual* execution time in ticks.

Receives (task_index, job_index, wcet_ticks); must return a value in
[1, wcet_ticks].  Both copies of a mandatory job share the actual time
(same input, same computation).  None means "always WCET", the paper's
assumption.
"""


@dataclass
class SimulationResult:
    """Everything observable about one simulation run.

    ``trace`` is None for stats-only runs (``collect_trace=False``), in
    which case ``stats`` carries the aggregate counters instead; exactly
    one of the two is always present.  ``busy_by_processor`` is filled
    by the engine in both modes, making :meth:`busy_ticks` O(1).
    """

    taskset: TaskSet
    timebase: TimeBase
    horizon_ticks: int
    policy_name: str
    trace: Optional[ExecutionTrace]
    permanent_fault: Optional[Tuple[int, int]] = None  # (processor, tick)
    transient_fault_count: int = 0
    released_jobs: int = 0
    stats: Optional[RunStats] = None
    busy_by_processor: Optional[Tuple[int, ...]] = None
    #: The DVFS :class:`~repro.energy.dvfs.SpeedPlan` the run executed
    #: under, or None (every non-DVFS run).  Carried on the result so
    #: energy accounting and the conformance auditor can re-derive the
    #: speed-aware decomposition without re-running the planner.
    speed_plan: Optional[object] = None
    _mk_cache: Optional[List[bool]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def mk_satisfied(self) -> List[bool]:
        """Per-task verdict: did every k-window keep >= m successes?

        Computed once and cached (sweep aggregation used to recompute
        the full sliding-window scan on every access).
        """
        cached = self._mk_cache
        if cached is None:
            if self.trace is not None:
                index = TraceIndex(self.trace)
                cached = [
                    task.mk.is_satisfied_by(index.outcomes_for_task(i))
                    for i, task in enumerate(self.taskset)
                ]
            elif self.stats is not None:
                cached = [count == 0 for count in self.stats.violations]
            else:  # pragma: no cover - engine always fills one of the two
                raise SimulationError("result has neither trace nor stats")
            self._mk_cache = cached
        return list(cached)

    def all_mk_satisfied(self) -> bool:
        """True when no task violated its (m,k)-constraint."""
        return all(self.mk_satisfied())

    def busy_ticks(self, processor: Optional[int] = None) -> int:
        """Execution ticks inside [0, horizon); O(1) from counters."""
        counters = self.busy_by_processor
        if counters is not None:
            if processor is None:
                return sum(counters)
            if 0 <= processor < len(counters):
                return counters[processor]
            return 0
        if self.trace is None:
            raise SimulationError("result has neither trace nor counters")
        return self.trace.busy_ticks(processor, window=(0, self.horizon_ticks))


class _LogicalJob:
    """Engine-internal bookkeeping for one logical job.

    Each copy reaches it through :attr:`Job.entry`, and the job's
    deadline event carries it.  ``record`` is None in stats mode;
    ``task_index`` is kept directly so outcome accounting never needs it.

    ``copies`` and the copies' :attr:`Job.sibling` pairs are reference
    cycles while the job is live; the engine breaks them when it retires
    the deadline event (``copies`` becomes None), so every finished job
    is freed by reference counting, not by the cyclic collector.
    """

    __slots__ = ("record", "copies", "decided", "task_index")

    def __init__(self, record: Optional[LogicalJobRecord], task_index: int) -> None:
        self.record = record
        self.copies: Optional[List[Job]] = []
        self.decided = False
        self.task_index = task_index


class StandbySparingEngine:
    """Simulates one policy over one task set on two processors."""

    def __init__(
        self,
        taskset: TaskSet,
        policy: SchedulingPolicy,
        horizon_ticks: int,
        timebase: Optional[TimeBase] = None,
        transient_fault_fn: Optional[TransientFaultFn] = None,
        permanent_fault: Optional[Tuple[int, int]] = None,
        initial_history: str = "met",
        execution_time_fn: Optional[ExecutionTimeFn] = None,
        collect_trace: bool = True,
        release_timeline: Optional[ReleaseTimeline] = None,
        speed_plan: Optional[object] = None,
    ) -> None:
        """Configure a run.

        Args:
            taskset: tasks in priority order.
            policy: the scheduling policy under test.
            horizon_ticks: releases strictly before this tick are simulated;
                energy metrics are taken over [0, horizon).
            timebase: tick grid (defaults to the task set's own).
            transient_fault_fn: per-copy fault oracle, or None for no
                transient faults.
            permanent_fault: optional (processor, tick) permanent fault.
            initial_history: boundary condition for (m,k)-histories, a
                mode from :data:`repro.model.history.INITIAL_HISTORY_MODES`
                (``"met"``/``"miss"``/``"rpattern"``).
            execution_time_fn: actual execution time model (ACET < WCET);
                None charges every job its full WCET (the paper's model).
            collect_trace: when False, skip all trace construction and
                produce aggregate stats only (sweep mode).
            release_timeline: precomputed release sequence to reuse
                across runs; must match (task set periods, horizon).
            speed_plan: DVFS :class:`~repro.energy.dvfs.SpeedPlan`.
                Main copies released before a permanent fault execute
                their stretched WCETs at the plan's per-task speeds;
                backups, optionals, and post-fault releases run at full
                speed.  Incompatible with ``execution_time_fn`` (an ACET
                draw below the stretched budget would confound the two
                time scales).
        """
        if horizon_ticks <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon_ticks}")
        if speed_plan is not None and execution_time_fn is not None:
            raise ConfigurationError(
                "a DVFS speed plan cannot be combined with an "
                "execution-time model: stretched WCETs and ACET draws "
                "define conflicting tick budgets"
            )
        self.taskset = taskset
        self.policy = policy
        self.timebase = timebase or taskset.timebase()
        self.horizon = horizon_ticks
        self.transient_fault_fn = transient_fault_fn
        self.permanent_fault = permanent_fault
        if permanent_fault is not None:
            processor, tick = permanent_fault
            if processor not in (PRIMARY, SPARE):
                raise ConfigurationError(f"bad processor {processor} in fault spec")
            if tick < 0:
                raise ConfigurationError(f"fault tick must be >= 0, got {tick}")
        self._initial_history = normalize_initial_history(initial_history)
        self.execution_time_fn = execution_time_fn
        self.collect_trace = collect_trace
        self.release_timeline = release_timeline
        self.speed_plan = speed_plan

    # -- public API ---------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        base = self.timebase
        taskset = self.taskset
        task_count = len(taskset)
        profile = self.policy.prepare(
            PolicyContext(taskset=taskset, timebase=base, horizon_ticks=self.horizon)
        )
        compiled = _compile(profile, task_count)
        # The per-run rule state: each task's next optional processor
        # under alternation, and each job's recovery copies so far.
        next_optional = [rules.optional_processor for rules in profile.tasks]
        recoveries = profile.recoveries
        recovery_counts = {}

        # Hot-path locals: the closures below run for every event, so
        # instance attributes they need are bound once here.
        horizon = self.horizon
        execution_time_fn = self.execution_time_fn
        collect = self.collect_trace
        # The transient oracle, bound once: a fault model is called
        # through its ``job_faulted``, and one statically known never to
        # fault is not consulted at all.
        oracle = self.transient_fault_fn
        if oracle is None or getattr(oracle, "never_faults", False):
            job_faulted = None
        else:
            job_faulted = getattr(oracle, "job_faulted", oracle)

        periods = [base.to_ticks(task.period) for task in taskset]
        deadlines = [base.to_ticks(task.deadline) for task in taskset]
        wcets = [base.to_ticks(task.wcet) for task in taskset]

        speed_plan = self.speed_plan
        if speed_plan is not None:
            dvfs_speeds = speed_plan.speeds
            dvfs_wcets = speed_plan.stretched_wcets
            if len(dvfs_speeds) != task_count or len(dvfs_wcets) != task_count:
                raise ConfigurationError(
                    f"speed plan covers {len(dvfs_wcets)} tasks, "
                    f"task set has {task_count}"
                )
            for index, ticks in enumerate(dvfs_wcets):
                if ticks < wcets[index]:
                    raise ConfigurationError(
                        f"speed plan shrinks task {index}'s WCET "
                        f"({ticks} < {wcets[index]} ticks); stretched "
                        f"budgets must cover the full-speed WCET"
                    )
        else:
            dvfs_speeds = None
            dvfs_wcets = None

        timeline = self.release_timeline
        if timeline is None:
            timeline = ReleaseTimeline(taskset, horizon, base)
        elif (
            timeline.horizon_ticks != horizon
            or list(timeline.period_ticks) != periods
        ):
            raise ConfigurationError(
                "release timeline does not match this run's periods/horizon"
            )
        rel_ticks = timeline.ticks
        rel_tasks = timeline.tasks
        rel_jobs = timeline.jobs
        rel_count = len(rel_ticks)
        cursor = 0

        trace = ExecutionTrace(processor_count=2) if collect else None
        add_segment = trace.add_segment if collect else None
        records = trace.records if collect else None
        stats = None if collect else RunStats(task_count)
        violations = stats.violations if stats is not None else None
        alive = [True, True]
        # The ready queues, per processor: heaps of (key, seq, copy).  A
        # canceled, abandoned or lost copy stays in its heap until it
        # reaches the head, where ``pick`` and the displacement test drop
        # it; ``queue_seq`` breaks key ties in push order, so copies are
        # never compared.
        mjq: List[list] = [[], []]
        ojq: List[list] = [[], []]
        queue_seq = 0
        # Copies with a scheduled future enqueue, per processor, so a
        # permanent fault can mark exactly the live postponed copies LOST
        # without scanning every logical job ever released.
        pending: List[set] = [set(), set()]
        transient_faults = 0
        released_jobs = 0

        # Stats-mode idle accounting: each processor's closed idle gaps
        # inside its energy window [0, window_end), whose complement is
        # its busy time (derived once, at the end of the run).
        gap_counts = stats.gap_counts if stats is not None else None
        # Per-speed busy ledger (stats mode, DVFS runs only): trace runs
        # carry the speed on each segment instead.
        speed_busy = (
            stats.speed_busy
            if stats is not None and speed_plan is not None
            else None
        )
        gap_cursor = [0, 0]
        window_end = [horizon, horizon]

        # One packed (m,k) word per task: bit 0 = newest outcome, masked
        # to k bits, seeded with the boundary window.  Its low k-1 bits
        # give the next job's flexibility degree; once ``filled`` counts
        # k real outcomes the word is exactly the last k-window, whose
        # popcount the stats-mode violation count reads.  Reading the
        # word in decide order is exact because, with constrained
        # deadlines (D <= P, enforced by the Task model), a task's jobs
        # are decided in job order.
        mk_m = [task.mk.m for task in taskset]
        mk_k = [task.mk.k for task in taskset]
        mk_mask = [(1 << k) - 1 for k in mk_k]
        words = [
            packed_initial_window(task.mk, self._initial_history)
            for task in taskset
        ]
        filled = [0] * task_count
        # A trace records every release's FD; a stats-only run computes
        # it only where the profile's rules can read it.
        reads_fd = (
            [True] * task_count if collect else profile.reads_flexibility_degree
        )

        # Heap entries are (time, kind, seq, a, b); ``a``/``b`` are the
        # kind-specific arguments (a logical job, a copy, a processor).
        # Releases are NOT heap events: they stream from the timeline and
        # merge into the drain loop at kind rank _EV_RELEASE.
        heap: List[Tuple[int, int, int, object, object]] = []
        seq = 0

        def push_event(time: int, kind: int, a: object = None, b: object = None) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, kind, seq, a, b))
            seq += 1

        def defer_enqueue(job: Job) -> None:
            """Schedule a postponed copy's future enqueue and track it."""
            pending[job.processor].add(job)
            push_event(job.enqueue_time, _EV_ENQUEUE, job)

        if self.permanent_fault is not None:
            processor, tick = self.permanent_fault
            push_event(tick, _EV_PERMFAULT, processor)
        # The processor a permanent fault killed, and the other one.
        dead: Optional[int] = None
        survivor: Optional[int] = None

        # -- helpers bound to local state -----------------------------------

        def record_outcome(task_index: int, effective: bool) -> None:
            """Shift a decided outcome into its task's word (and count it
            in stats mode)."""
            word = ((words[task_index] << 1) | effective) & mk_mask[task_index]
            words[task_index] = word
            if not collect:
                if effective:
                    stats.effective += 1
                else:
                    stats.missed += 1
                count = filled[task_index]
                k = mk_k[task_index]
                if count < k:
                    count += 1
                    filled[task_index] = count
                if count == k and popcount(word) < mk_m[task_index]:
                    violations[task_index] += 1

        def decide(entry: _LogicalJob, effective: bool, now: int) -> None:
            """Finalize an undecided logical job's (m,k) outcome."""
            entry.decided = True
            if collect:
                record = entry.record
                record.outcome = EFFECTIVE if effective else MISSED
                record.decided_at = now
            record_outcome(entry.task_index, effective)

        def abandon_copy(job: Job, now: int, reason: str) -> None:
            job.status = JobStatus.ABANDONED
            if collect:
                trace.log(now, "abandon", f"{job.name}/{job.role.value}: {reason}")

        def enqueue_copy(job: Job) -> None:
            nonlocal queue_seq
            job.status = JobStatus.READY
            heappush(
                (ojq if job.role is OPTIONAL else mjq)[job.processor],
                (job.queue_key, queue_seq, job),
            )
            queue_seq += 1

        def handle_completion(job: Job, now: int) -> None:
            nonlocal transient_faults
            job.status = JobStatus.COMPLETED
            job.completion_time = now
            faulted = job_faulted is not None and job_faulted(job, now)
            job.faulted = faulted
            entry = job.entry
            if faulted:
                transient_faults += 1
                if collect:
                    trace.log(now, "transient-fault", f"{job.name}/{job.role.value}")
                if not entry.decided:
                    if recoveries:
                        key = (job.task_index, job.job_index)
                        used = recovery_counts.get(key, 0)
                        if used < recoveries and now + job.wcet <= job.deadline:
                            # Rerun the copy on its own processor, which
                            # is alive: the copy just completed there.
                            recovery_counts[key] = used + 1
                            recovery = Job(
                                job.task_index,
                                job.job_index,
                                job.role,
                                job.release,
                                job.deadline,
                                job.wcet,
                                job.processor,
                                now,
                                job.speed,
                                entry,
                            )
                            recovery.queue_key = job.queue_key
                            entry.copies.append(recovery)
                            if collect:
                                trace.log(
                                    now, "recovery", f"{job.name}/{job.role.value}"
                                )
                            enqueue_copy(recovery)
                            return
                    if job.role is OPTIONAL:
                        # No backup and no recovery: the optional job is
                        # simply not effective.  Decide immediately (the
                        # deadline handler would reach the same verdict).
                        decide(entry, False, now)
                return  # a faulted mandatory copy leaves its sibling running
            if now <= job.deadline and not entry.decided:
                decide(entry, True, now)
            sibling = job.sibling
            if sibling is not None and sibling.status not in finished_statuses:
                sibling.status = JobStatus.CANCELED
                if collect:
                    trace.log(now, "cancel", f"{sibling.name}/{sibling.role.value}")

        def handle_deadline(entry: _LogicalJob, now: int) -> bool:
            """Abandon the logical job's unfinished copies, decide it
            missed if undecided, and retire it (break its reference
            cycles); True when a copy was abandoned."""
            abandoned = False
            for job in entry.copies:
                status = job.status
                if status is RUNNING:
                    abandon_copy(job, now, "deadline passed while running")
                    abandoned = True
                elif status not in finished_statuses:
                    abandon_copy(job, now, "deadline passed")
                    abandoned = True
                job.sibling = None
            entry.copies = None
            if not entry.decided:
                decide(entry, False, now)
            return abandoned

        def handle_release(task_index: int, job_index: int, now: int) -> bool:
            """Plan one release; True when a copy entered a ready queue."""
            nonlocal released_jobs
            release = now  # timeline entries fire exactly at their tick
            deadline = release + deadlines[task_index]
            fd = (
                packed_flexibility_degree(
                    words[task_index], mk_m[task_index], mk_k[task_index]
                )
                if reads_fd[task_index]
                else 0
            )
            (
                static, copies, postfault, fd_max, optional_processor,
                alternate, postfault_optionals,
            ) = compiled[task_index]  # fmt: skip
            if static is None:
                mandatory = fd == 0
            elif static is True:
                mandatory = True
            elif type(static) is tuple:
                mandatory = static[(job_index - 1) % len(static)]
            else:
                mandatory = static(job_index)
            if mandatory:
                if dead is not None:
                    copies = postfault[dead]
                classified = "mandatory"
            elif 1 <= fd <= fd_max and (dead is None or postfault_optionals):
                if dead is not None:
                    processor = survivor
                elif alternate:
                    processor = next_optional[task_index]
                    next_optional[task_index] = (
                        SPARE if processor == PRIMARY else PRIMARY
                    )
                else:
                    processor = optional_processor
                copies = _OPTIONAL_COPIES[processor]
                classified = "optional"
            else:
                copies = None
                classified = "skipped"
            released_jobs += 1
            if collect:
                record = LogicalJobRecord(
                    task_index=task_index,
                    job_index=job_index,
                    release=release,
                    deadline=deadline,
                    classified_as=classified,
                    flexibility_degree=fd,
                )
                records[(task_index, job_index)] = record
            else:
                record = None
                if classified == "mandatory":
                    stats.mandatory += 1
                elif classified == "optional":
                    stats.optional_executed += 1
                elif classified == "skipped":
                    stats.skipped += 1
                stats.released += 1
            if not copies:
                # A skipped job has no copy to run, so its deadline can
                # only record a miss -- record it now, stamped with the
                # deadline.  The order is unchanged: with D <= P and
                # inter-arrival times >= P, the task's next release comes
                # at or after this deadline, deadlines precede releases
                # at equal ticks, and no policy reads another task's
                # history.
                if collect:
                    record.outcome = MISSED
                    record.decided_at = deadline
                record_outcome(task_index, False)
                return False
            entry = _LogicalJob(record, task_index)

            actual_wcet = wcets[task_index]
            if execution_time_fn is not None:
                actual_wcet = execution_time_fn(
                    task_index, job_index, wcets[task_index]
                )
                if not 1 <= actual_wcet <= wcets[task_index]:
                    raise SimulationError(
                        f"execution_time_fn returned {actual_wcet} outside "
                        f"[1, {wcets[task_index]}] for job "
                        f"({task_index},{job_index})"
                    )
            enqueued = False
            main_copy: Optional[Job] = None
            for role, processor, offset in copies:
                # DVFS: main copies released while both processors live
                # run their stretched budget at the plan's speed; backups,
                # optionals, and post-fault releases fall back to max
                # performance (the survivor has no slack to spend).
                if dvfs_wcets is not None and role is MAIN and dead is None:
                    copy_wcet = dvfs_wcets[task_index]
                    copy_speed = dvfs_speeds[task_index]
                else:
                    copy_wcet = actual_wcet
                    copy_speed = 1
                # Positional: a keyword call costs about twice as much.
                job = Job(
                    task_index,
                    job_index,
                    role,
                    release,
                    deadline,
                    copy_wcet,
                    processor,
                    release + offset,
                    copy_speed,
                    entry,
                )
                entry.copies.append(job)
                if role is MAIN:
                    main_copy = job
                elif role is BACKUP:
                    main_copy.sibling = job
                    job.sibling = main_copy
                else:
                    job.queue_key = (fd, task_index, job_index)
                if job.enqueue_time <= now:
                    enqueue_copy(job)
                    enqueued = True
                else:
                    defer_enqueue(job)
            push_event(deadline, _EV_DEADLINE, entry)
            return enqueued

        def handle_permfault(processor: int, now: int) -> None:
            nonlocal dead, survivor
            if not alive[processor]:
                return
            alive[processor] = False
            dead = processor
            survivor = SPARE if processor == PRIMARY else PRIMARY
            if collect:
                trace.log(now, "permanent-fault", f"processor {processor}")
            else:
                window_end[processor] = now if now < horizon else horizon
            for queue in (mjq[processor], ojq[processor]):
                for _, _, job in queue:
                    if job.status not in finished_statuses:
                        job.status = JobStatus.LOST
                queue.clear()
            # PENDING copies bound to the dead processor (postponed backups
            # not yet enqueued) are tracked per processor, so the fault
            # handler touches only live copies -- not every logical job
            # ever released.
            for job in pending[processor]:
                if not job.is_finished:
                    job.status = JobStatus.LOST
            pending[processor].clear()
            for slot in (current, sticky):
                job = slot[processor]
                if job is not None:
                    if not job.is_finished:
                        job.status = JobStatus.LOST
                    slot[processor] = None

        #: The copy occupying each processor since the last event boundary.
        current: List[Optional[Job]] = [None, None]
        #: A dispatched non-preemptible optional holds its processor (the
        #: paper's greedy trace): it resumes ahead of the OJQ until it
        #: finishes or becomes infeasible, even while mandatory work runs.
        sticky: List[Optional[Job]] = [None, None]

        def drop_infeasible_optional(job: Job, now: int) -> None:
            abandon_copy(job, now, "cannot finish by deadline")
            entry = job.entry
            if not entry.decided:
                decide(entry, False, now)

        def pick(processor: int, now: int) -> Optional[Job]:
            queue = mjq[processor]
            while queue:
                job = heappop(queue)[2]
                if job.status not in finished_statuses:
                    return job
            held = sticky[processor]
            if held is not None:
                if held.is_finished:
                    sticky[processor] = None
                elif held.can_finish_by_deadline(now):
                    return held
                else:
                    drop_infeasible_optional(held, now)
                    sticky[processor] = None
            queue = ojq[processor]
            while queue:
                job = heappop(queue)[2]
                if job.status in finished_statuses:
                    continue
                if now + job.remaining <= job.deadline:
                    if not optional_preemption:
                        sticky[processor] = job
                    return job
                drop_infeasible_optional(job, now)
            return None

        # -- main loop -------------------------------------------------------
        #
        # Fast path: each processor keeps its running job across event
        # boundaries; the job is displaced only when a strictly more
        # urgent arrival actually lands (mandatory over optional, or a
        # smaller priority key within the same queue).  This replaces the
        # seed engine's pop/re-push of every running job at every event
        # boundary with two O(1) head peeks per boundary.
        #
        # Dead boundaries cost nothing: the dispatch pass runs only when
        # the drained events or completions enqueued a copy or finished
        # one (completed, canceled, abandoned, lost); otherwise the
        # running copies, the queues and the next completion tick are
        # exactly as the last pass left them.  Heap heads that can change
        # nothing -- the deadline of a decided job whose copies are all
        # finished, the enqueue of a finished copy -- are popped before
        # the next event tick is taken, so they never make a boundary.

        optional_preemption = profile.optional_preemption
        OPTIONAL = JobRole.OPTIONAL
        MAIN = JobRole.MAIN
        BACKUP = JobRole.BACKUP
        RUNNING = JobStatus.RUNNING
        EFFECTIVE = JobOutcome.EFFECTIVE
        MISSED = JobOutcome.MISSED
        finished_statuses = FINISHED_STATUSES
        heappop = heapq.heappop
        heappush = heapq.heappush
        now = 0
        changed = True
        next_completion: Optional[int] = None
        guard = 0
        guard_limit = 10_000_000
        while True:
            guard += 1
            if guard > guard_limit:
                raise SimulationError("simulation did not terminate (guard hit)")
            # Drain due events, merging the heap with the release
            # timeline: at equal ticks, permanent faults and deadlines
            # (kinds 0/1) precede releases (rank 2), which precede
            # enqueues (kind 3) -- the same total order the heap alone
            # used to produce when releases were heap events.
            while True:
                if heap:
                    head = heap[0]
                    head_time = head[0]
                    if head_time <= now and (
                        cursor >= rel_count
                        or head_time < rel_ticks[cursor]
                        or (
                            head_time == rel_ticks[cursor]
                            and head[1] < _EV_RELEASE
                        )
                    ):
                        _, kind, _, a, _ = heappop(heap)
                        if kind == _EV_DEADLINE:
                            if handle_deadline(a, now):
                                changed = True
                        elif kind == _EV_ENQUEUE:
                            pending[a.processor].discard(a)
                            if a.status not in finished_statuses:
                                enqueue_copy(a)
                                changed = True
                        elif kind == _EV_PERMFAULT:
                            handle_permfault(a, now)
                            changed = True
                        else:  # pragma: no cover
                            raise SimulationError(f"unknown event kind {kind!r}")
                        continue
                if cursor < rel_count and rel_ticks[cursor] <= now:
                    if handle_release(rel_tasks[cursor], rel_jobs[cursor], now):
                        changed = True
                    cursor += 1
                    continue
                break

            if changed:
                changed = False
                next_completion = None
                for processor in (PRIMARY, SPARE):
                    if not alive[processor]:
                        continue
                    job = current[processor]
                    if job is not None and job.status in finished_statuses:
                        # Canceled / abandoned / lost by an event handler.
                        job = None
                    if job is not None:
                        # Drop finished copies at the head of each queue
                        # the test reads, then compare the heads' keys.
                        queue = mjq[processor]
                        while queue and queue[0][2].status in finished_statuses:
                            heappop(queue)
                        if job.role is OPTIONAL:
                            if queue:
                                displaced = True
                            elif optional_preemption:
                                queue = ojq[processor]
                                while (
                                    queue
                                    and queue[0][2].status in finished_statuses
                                ):
                                    heappop(queue)
                                displaced = (
                                    queue[0][0] < job.queue_key if queue else False
                                )
                            else:
                                displaced = False
                        else:
                            displaced = (
                                queue[0][0] < job.queue_key if queue else False
                            )
                        if displaced:
                            # A held (sticky) optional parks in its slot
                            # and resumes ahead of the OJQ; anything else
                            # rejoins its ready queue.
                            if job is not sticky[processor]:
                                enqueue_copy(job)
                            job = None
                    if job is None:
                        job = pick(processor, now)
                    if job is not None:
                        job.status = RUNNING
                        completion = now + job.remaining
                        if next_completion is None or completion < next_completion:
                            next_completion = completion
                    current[processor] = job

            while heap:
                head = heap[0]
                kind = head[1]
                if kind == _EV_DEADLINE:
                    entry = head[3]
                    if not entry.decided:
                        break
                    copies = entry.copies
                    for job in copies:
                        if job.status not in finished_statuses:
                            break
                    else:
                        heappop(heap)
                        # Retire the job as its handler would.
                        for job in copies:
                            job.sibling = None
                        entry.copies = None
                        continue
                elif kind == _EV_ENQUEUE:
                    job = head[3]
                    if job.status in finished_statuses:
                        heappop(heap)
                        pending[job.processor].discard(job)
                        continue
                break

            next_time = heap[0][0] if heap else None
            if cursor < rel_count:
                next_release_time = rel_ticks[cursor]
                if next_time is None or next_release_time < next_time:
                    next_time = next_release_time
            if next_completion is not None and (
                next_time is None or next_completion < next_time
            ):
                next_time = next_completion
            if next_time is None:
                break
            if next_time < now:  # pragma: no cover - heap is monotone
                raise SimulationError("time went backwards")

            if next_time > now:
                for processor in (PRIMARY, SPARE):
                    job = current[processor]
                    if job is None:
                        continue
                    ran = job.remaining
                    if next_time - now < ran:
                        ran = next_time - now
                    end = now + ran
                    if collect:
                        if job.started_at is None:
                            job.started_at = now
                        add_segment(processor, now, end, job)
                    else:
                        gap_start = gap_cursor[processor]
                        if now > gap_start:
                            gap_end = now
                            if gap_end > window_end[processor]:
                                gap_end = window_end[processor]
                            if gap_end > gap_start:
                                counts = gap_counts[processor]
                                length = gap_end - gap_start
                                counts[length] = counts.get(length, 0) + 1
                        gap_cursor[processor] = end
                        if (
                            speed_busy is not None
                            and job.speed != 1
                            and now < horizon
                        ):
                            counts = speed_busy[processor]
                            counts[job.speed] = counts.get(job.speed, 0) + (
                                (end if end <= horizon else horizon) - now
                            )
                    job.remaining -= ran
            now = next_time
            # Primary-processor completions are processed first so a main
            # copy's success cancels its just-finished backup's outcome
            # claim deterministically (both completed the same tick).
            for processor in (PRIMARY, SPARE):
                job = current[processor]
                if job is not None and job.remaining == 0:
                    current[processor] = None
                    if job is sticky[processor]:
                        sticky[processor] = None
                    handle_completion(job, now)
                    changed = True

        if collect:
            trace.validate()
            busy = [0, 0]
            for segment in trace.segments:
                if segment.start < horizon:
                    end = segment.end if segment.end <= horizon else horizon
                    busy[segment.processor] += end - segment.start
        else:
            # Close each processor's final idle gap against its energy
            # window (the horizon, or the fault tick for a dead one); the
            # window's busy ticks are what its idle gaps leave of it.
            busy = stats.busy
            for processor in (PRIMARY, SPARE):
                end = window_end[processor]
                start = gap_cursor[processor]
                counts = gap_counts[processor]
                if start < end:
                    counts[end - start] = counts.get(end - start, 0) + 1
                busy[processor] = end - sum(
                    length * count for length, count in counts.items()
                )
        return SimulationResult(
            taskset=taskset,
            timebase=base,
            horizon_ticks=self.horizon,
            policy_name=self.policy.name,
            trace=trace,
            permanent_fault=self.permanent_fault,
            transient_fault_count=transient_faults,
            released_jobs=released_jobs,
            stats=stats,
            busy_by_processor=tuple(busy),
            speed_plan=speed_plan,
        )
