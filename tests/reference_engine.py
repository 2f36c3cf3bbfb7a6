"""The seed (v0) standby-sparing engine, kept as a differential oracle.

This is the engine exactly as it shipped before the hot-path overhaul:
every event boundary pops the most urgent ready job per processor and
re-enqueues whatever was preempted, optional queue keys live in a side
table, and the permanent-fault handler scans every logical job.  It is
deliberately *not* optimized -- its value is that it shares none of the
fast path's dispatch bookkeeping (running-job slots, displacement tests,
pending-copy sets), so agreement between the two engines on traces,
outcomes, and energy is strong evidence the fast path preserved the
scheduling semantics.  It plans each release and recovery through the
per-release profile interpreter in ``tests/reference_profile.py``, not
through the engine's compiled templates.

It keeps its ready queues in its own :class:`ReadyQueue` (the engine
inlines plain heaps), so the engine's queue handling is checked against
code it does not share.

Used only by tests (see tests/property/test_prop_fastpath.py); never
import this from package code.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.model.history import MKHistory
from repro.model.job import FINISHED_STATUSES, Job, JobOutcome, JobRole, JobStatus
from repro.model.taskset import TaskSet
from repro.sim.engine import (
    PRIMARY,
    SPARE,
    ExecutionTimeFn,
    PolicyContext,
    SchedulingPolicy,
    SimulationResult,
    TransientFaultFn,
    _EV_DEADLINE,
    _EV_ENQUEUE,
    _EV_PERMFAULT,
    _EV_RELEASE,
)
from repro.sim.trace import ExecutionTrace, LogicalJobRecord
from repro.timebase import TimeBase
from tests.reference_profile import ReferencePlanner


class ReadyQueue:
    """A priority ready queue of job copies, with lazy removal.

    Keys are tuples; smaller = more urgent.  Finished copies (canceled,
    abandoned, lost) stay queued and are skipped on pop, so cancellation
    is O(1).  The queue never contains the same job twice (re-inserting
    a preempted job happens after a pop).
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[tuple, int, Job]] = []
        self._seq = 0

    def push(self, key: tuple, job: Job) -> None:
        """Insert a job with the given priority key."""
        heapq.heappush(self._heap, (key, self._seq, job))
        self._seq += 1

    def _drop_finished(self) -> None:
        heap = self._heap
        while heap and heap[0][2].status in FINISHED_STATUSES:
            heapq.heappop(heap)

    def peek(self) -> Optional[Tuple[tuple, Job]]:
        """Most urgent live job without removing it, or None."""
        self._drop_finished()
        if not self._heap:
            return None
        key, _, job = self._heap[0]
        return key, job

    def pop(self) -> Optional[Tuple[tuple, Job]]:
        """Remove and return the most urgent live job, or None."""
        self._drop_finished()
        if not self._heap:
            return None
        key, _, job = heapq.heappop(self._heap)
        return key, job

    def live_jobs(self) -> List[Job]:
        """Snapshot of not-yet-finished jobs currently queued."""
        return [job for _, _, job in self._heap if not job.is_finished]

    def __len__(self) -> int:
        return sum(1 for _, _, job in self._heap if not job.is_finished)

    def __bool__(self) -> bool:
        self._drop_finished()
        return bool(self._heap)


class _LogicalJob:
    """Engine-internal bookkeeping for one logical job."""

    __slots__ = ("record", "copies", "decided")

    def __init__(self, record: LogicalJobRecord) -> None:
        self.record = record
        self.copies: List[Job] = []
        self.decided = False


class ReferenceStandbySparingEngine:
    """The pre-overhaul engine: pop/re-push dispatch at every boundary."""

    def __init__(
        self,
        taskset: TaskSet,
        policy: SchedulingPolicy,
        horizon_ticks: int,
        timebase: Optional[TimeBase] = None,
        transient_fault_fn: Optional[TransientFaultFn] = None,
        permanent_fault: Optional[Tuple[int, int]] = None,
        initial_history_met: bool = True,
        execution_time_fn: Optional[ExecutionTimeFn] = None,
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
            initial_history_met: boundary condition for (m,k)-histories.
            execution_time_fn: actual execution time model (ACET < WCET);
                None charges every job its full WCET (the paper's model).
        """
        if horizon_ticks <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon_ticks}")
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
        self._initial_history_met = initial_history_met
        self.execution_time_fn = execution_time_fn

    # -- public API ---------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        base = self.timebase
        taskset = self.taskset
        histories = [
            MKHistory(task.mk, initial_met=self._initial_history_met)
            for task in taskset
        ]
        ctx = PolicyContext(
            taskset=taskset,
            timebase=base,
            horizon_ticks=self.horizon,
        )
        profile = self.policy.prepare(ctx)
        planner = ReferencePlanner(profile)
        dead_processor: Optional[int] = None

        trace = ExecutionTrace(processor_count=2)
        alive = [True, True]
        mjq = [ReadyQueue(), ReadyQueue()]
        ojq = [ReadyQueue(), ReadyQueue()]
        logical: Dict[Tuple[int, int], _LogicalJob] = {}
        ojq_keys: Dict[int, tuple] = {}  # id(job) -> OJQ key
        periods = [base.to_ticks(task.period) for task in taskset]
        deadlines = [base.to_ticks(task.deadline) for task in taskset]
        wcets = [base.to_ticks(task.wcet) for task in taskset]
        transient_faults = 0

        heap: List[Tuple[int, int, int, tuple]] = []
        seq = 0

        def push_event(time: int, order: int, payload: tuple) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, order, seq, payload))
            seq += 1

        for index in range(len(taskset)):
            push_event(0, _EV_RELEASE, ("release", index, 1))
        if self.permanent_fault is not None:
            processor, tick = self.permanent_fault
            push_event(tick, _EV_PERMFAULT, ("permfault", processor))

        # -- helpers bound to local state -----------------------------------

        def decide(entry: _LogicalJob, effective: bool, now: int) -> None:
            """Finalize a logical job's (m,k) outcome exactly once."""
            if entry.decided:
                return
            entry.decided = True
            entry.record.outcome = (
                JobOutcome.EFFECTIVE if effective else JobOutcome.MISSED
            )
            entry.record.decided_at = now
            histories[entry.record.task_index].record(effective)

        def abandon_copy(job: Job, now: int, reason: str) -> None:
            if job.is_finished:
                return
            job.status = JobStatus.ABANDONED
            trace.log(now, "abandon", f"{job.name}/{job.role.value}: {reason}")

        def cancel_copy(job: Job, now: int) -> None:
            if job.is_finished:
                return
            job.status = JobStatus.CANCELED
            trace.log(now, "cancel", f"{job.name}/{job.role.value}")

        def enqueue_copy(job: Job, now: int) -> None:
            if job.is_finished:
                return
            job.status = JobStatus.READY
            if job.role is JobRole.OPTIONAL:
                ojq[job.processor].push(ojq_keys[id(job)], job)
            else:
                mjq[job.processor].push((job.task_index, job.job_index), job)

        def handle_completion(job: Job, now: int) -> None:
            nonlocal transient_faults
            job.status = JobStatus.COMPLETED
            job.completion_time = now
            faulted = bool(
                self.transient_fault_fn and self.transient_fault_fn(job, now)
            )
            job.faulted = faulted
            if faulted:
                transient_faults += 1
                trace.log(now, "transient-fault", f"{job.name}/{job.role.value}")
            entry = logical[job.key()]
            if faulted:
                if not entry.decided:
                    spec = planner.plan_recovery(dead_processor, job, now)
                    if spec is not None:
                        if not alive[spec.processor]:
                            raise SimulationError(
                                f"policy {self.policy.name} planned a "
                                f"recovery onto dead processor {spec.processor}"
                            )
                        recovery = Job(
                            task_index=job.task_index,
                            job_index=job.job_index,
                            role=spec.role,
                            release=job.release,
                            deadline=job.deadline,
                            wcet=job.wcet,
                            processor=spec.processor,
                            enqueue_time=max(spec.enqueue_tick, now),
                        )
                        entry.copies.append(recovery)
                        if spec.role is JobRole.OPTIONAL:
                            ojq_keys[id(recovery)] = (
                                entry.record.flexibility_degree or 0,
                                job.task_index,
                                job.job_index,
                            )
                        trace.log(
                            now, "recovery", f"{job.name}/{job.role.value}"
                        )
                        if recovery.enqueue_time <= now:
                            enqueue_copy(recovery, now)
                        else:
                            push_event(
                                recovery.enqueue_time,
                                _EV_ENQUEUE,
                                ("enqueue", recovery),
                            )
                    elif job.role is JobRole.OPTIONAL:
                        # No backup and no recovery: the optional job is
                        # simply not effective.  Decide immediately (the
                        # deadline handler would reach the same verdict).
                        decide(entry, effective=False, now=now)
                return  # a faulted mandatory copy leaves its sibling running
            if now <= job.deadline and not entry.decided:
                decide(entry, effective=True, now=now)
            if job.sibling is not None and not job.sibling.is_finished:
                cancel_copy(job.sibling, now)

        def handle_deadline(task_index: int, job_index: int, now: int) -> None:
            entry = logical.get((task_index, job_index))
            if entry is None:
                raise SimulationError(
                    f"deadline for unknown job ({task_index},{job_index})"
                )
            for job in entry.copies:
                if not job.is_finished and job.status is not JobStatus.RUNNING:
                    abandon_copy(job, now, "deadline passed")
                elif job.status is JobStatus.RUNNING:
                    abandon_copy(job, now, "deadline passed while running")
            if not entry.decided:
                decide(entry, effective=False, now=now)

        def handle_release(task_index: int, job_index: int, now: int) -> None:
            release = (job_index - 1) * periods[task_index]
            if release >= self.horizon:
                return
            deadline = release + deadlines[task_index]
            fd = histories[task_index].flexibility_degree()
            plan = planner.plan_release(
                dead_processor, task_index, job_index, release, fd
            )
            record = LogicalJobRecord(
                task_index=task_index,
                job_index=job_index,
                release=release,
                deadline=deadline,
                classified_as=plan.classified_as,
                flexibility_degree=fd,
            )
            trace.records[(task_index, job_index)] = record
            entry = _LogicalJob(record)
            logical[(task_index, job_index)] = entry

            actual_wcet = wcets[task_index]
            if self.execution_time_fn is not None and plan.copies:
                actual_wcet = self.execution_time_fn(
                    task_index, job_index, wcets[task_index]
                )
                if not 1 <= actual_wcet <= wcets[task_index]:
                    raise SimulationError(
                        f"execution_time_fn returned {actual_wcet} outside "
                        f"[1, {wcets[task_index]}] for job "
                        f"({task_index},{job_index})"
                    )
            main_copy: Optional[Job] = None
            for spec in plan.copies:
                if not alive[spec.processor]:
                    # Planning onto a dead processor is a policy bug.
                    raise SimulationError(
                        f"policy {self.policy.name} planned a copy onto dead "
                        f"processor {spec.processor}"
                    )
                job = Job(
                    task_index=task_index,
                    job_index=job_index,
                    role=spec.role,
                    release=release,
                    deadline=deadline,
                    wcet=actual_wcet,
                    processor=spec.processor,
                    enqueue_time=max(spec.enqueue_tick, release),
                )
                entry.copies.append(job)
                if spec.role is JobRole.MAIN:
                    main_copy = job
                elif spec.role is JobRole.BACKUP:
                    if main_copy is None:
                        raise SimulationError(
                            "a BACKUP copy requires a preceding MAIN copy"
                        )
                    main_copy.sibling = job
                    job.sibling = main_copy
                else:
                    ojq_keys[id(job)] = (fd, task_index, job_index)
                if job.enqueue_time <= now:
                    enqueue_copy(job, now)
                else:
                    push_event(
                        job.enqueue_time, _EV_ENQUEUE, ("enqueue", job)
                    )
            push_event(deadline, _EV_DEADLINE, ("deadline", task_index, job_index))
            next_release = job_index * periods[task_index]
            if next_release < self.horizon:
                push_event(
                    next_release, _EV_RELEASE, ("release", task_index, job_index + 1)
                )

        def handle_permfault(processor: int, now: int) -> None:
            nonlocal dead_processor
            if not alive[processor]:
                return
            alive[processor] = False
            dead_processor = processor
            trace.log(now, "permanent-fault", f"processor {processor}")
            for queue in (mjq[processor], ojq[processor]):
                for job in queue.live_jobs():
                    job.status = JobStatus.LOST
            # PENDING copies bound to the dead processor (postponed backups
            # not yet enqueued) are lost as well.
            for entry in logical.values():
                for job in entry.copies:
                    if job.processor == processor and not job.is_finished:
                        job.status = JobStatus.LOST

        sticky: List[Optional[Job]] = [None, None]

        def drop_infeasible_optional(job: Job, now: int) -> None:
            abandon_copy(job, now, "cannot finish by deadline")
            entry = logical[job.key()]
            if not entry.decided:
                decide(entry, effective=False, now=now)

        def pick(processor: int, now: int) -> Optional[Job]:
            top = mjq[processor].pop()
            if top is not None:
                return top[1]
            held = sticky[processor]
            if held is not None:
                if held.is_finished:
                    sticky[processor] = None
                elif held.can_finish_by_deadline(now):
                    return held
                else:
                    drop_infeasible_optional(held, now)
                    sticky[processor] = None
            while True:
                candidate = ojq[processor].pop()
                if candidate is None:
                    return None
                _, job = candidate
                if job.can_finish_by_deadline(now):
                    if not profile.optional_preemption:
                        sticky[processor] = job
                    return job
                drop_infeasible_optional(job, now)

        # -- main loop -------------------------------------------------------

        now = 0
        guard = 0
        guard_limit = 10_000_000
        while True:
            guard += 1
            if guard > guard_limit:
                raise SimulationError("simulation did not terminate (guard hit)")
            while heap and heap[0][0] <= now:
                _, _, _, payload = heapq.heappop(heap)
                kind = payload[0]
                if kind == "release":
                    handle_release(payload[1], payload[2], now)
                elif kind == "deadline":
                    handle_deadline(payload[1], payload[2], now)
                elif kind == "enqueue":
                    enqueue_copy(payload[1], now)
                elif kind == "permfault":
                    handle_permfault(payload[1], now)
                else:  # pragma: no cover
                    raise SimulationError(f"unknown event kind {kind!r}")

            running: List[Job] = []
            for processor in (PRIMARY, SPARE):
                if not alive[processor]:
                    continue
                job = pick(processor, now)
                if job is not None:
                    job.status = JobStatus.RUNNING
                    running.append(job)

            next_heap_time = heap[0][0] if heap else None
            next_completion = (
                min(now + job.remaining for job in running) if running else None
            )
            if next_heap_time is None and next_completion is None:
                break
            candidates = [
                t for t in (next_heap_time, next_completion) if t is not None
            ]
            next_time = min(candidates)
            if next_time < now:  # pragma: no cover - heap is monotone
                raise SimulationError("time went backwards")

            if next_time > now:
                for job in running:
                    ran = min(job.remaining, next_time - now)
                    if job.started_at is None:
                        job.started_at = now
                    trace.add_segment(job.processor, now, now + ran, job)
                    job.remaining -= ran
            completed = [job for job in running if job.remaining == 0]
            for job in running:
                if job.remaining > 0 and job is not sticky[job.processor]:
                    enqueue_copy(job, next_time)
            for job in completed:
                if job is sticky[job.processor]:
                    sticky[job.processor] = None
            now = next_time
            # Primary-processor completions are processed first so a main
            # copy's success cancels its just-finished backup's outcome
            # claim deterministically (both completed the same tick).
            for job in sorted(completed, key=lambda j: j.processor):
                handle_completion(job, now)

        trace.validate()
        return SimulationResult(
            taskset=taskset,
            timebase=base,
            horizon_ticks=self.horizon,
            policy_name=self.policy.name,
            trace=trace,
            permanent_fault=self.permanent_fault,
            transient_fault_count=transient_faults,
        )
