"""Independent post-run validation and scheme-aware conformance auditing.

A second pair of eyes on the engine: given only a
:class:`~repro.sim.engine.SimulationResult` and the task model, these
checks re-derive what *must* hold of any correct standby-sparing schedule
and report every violation.  The property-based engine tests run the
validator on every random schedule, so engine bugs have to get past an
implementation that shares no code with the engine's bookkeeping.

Two layers:

* :func:`validate_result` -- **model-level** invariants that hold for any
  policy: no overlapping segments, no execution before release or past
  the deadline, bounded total execution, effective jobs really executed,
  skipped jobs never ran, no execution after an effective decision
  (backup cancellation), contiguous job records.  On a DVFS run (the
  result carries a :class:`~repro.energy.dvfs.SpeedPlan`) this layer
  also enforces per-segment frequency conformance: pre-fault main
  copies run at exactly the plan's speed, every other copy at full
  speed, and no mandatory segment may execute below the
  feasibility-checked speed (``dvfs-underspeed``).

* :func:`audit_result` -- adds **scheme-level** invariants: it replays
  the trace against the policy's
  :class:`~repro.sim.profile.SchemeProfile` (what
  :meth:`~repro.sim.engine.SchedulingPolicy.prepare` returns), the same
  rules the engine and the batch kernel execute.  It checks the paper's
  classification rules (mandatory iff FD = 0 replayed from the outcome
  history, or iff the static pattern says so -- Definition 1 /
  Equation 1), the optional-selection rule (optionals only within the
  scheme's FD window -- Algorithm 1 line 6), optional placement (the
  per-task alternation of principle (iii), and no optionals after a
  permanent fault unless the scheme keeps them, then on the survivor),
  mandatory-copy placement (mains on the task's main processor, backups
  on the other, post-fault mains on the survivor), backup postponement
  (no backup segment before r̃ = r + θ_i -- Definitions 2-5), post-fault
  release offsets, and fixed-priority queue conformance (no copy runs
  while a strictly higher-priority ready copy of the same queue class
  waits on that processor, and never while a mandatory copy waits).

Separate entry points cover the remaining surfaces:

* :func:`audit_energy` -- DPD legality: an
  :class:`~repro.energy.accounting.EnergyReport` must decompose each
  processor's window exactly as the
  :func:`~repro.energy.dpd.shutdown_decision` rule dictates over the
  run's counters, deciding each distinct gap length once.  On a DVFS
  run it additionally re-derives the per-speed busy decomposition from
  the counters and recomputes the active energy from it, bit-exactly.
* :func:`result_ledger` / :func:`compare_ledgers` -- a canonical,
  mode-independent summary of a run's counters, used by the cross-mode
  differential check: a trace run's counters, derived from its trace
  (:func:`~repro.sim.stats.trace_stats`), must equal bit-for-bit the
  ones a stats-only run of the same descriptor keeps online.

:func:`validate_result` and :func:`audit_result` read the trace itself
and take an optional :class:`~repro.sim.trace.TraceIndex` of it: an
audit builds one when it starts, hands it to both, and drops it when it
ends, so the checks share the grouped segments and records.  A call
given no index builds its own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

from ..energy.accounting import active_energy_of
from ..energy.dpd import shutdown_decision
from ..model.history import make_initial_history, normalize_initial_history
from ..model.job import JobOutcome, JobRole
from ..sim.engine import PRIMARY, SPARE, SimulationResult
from ..sim.profile import SchemeProfile, TaskProfile
from ..sim.trace import TraceIndex

_MAIN = JobRole.MAIN.value
_BACKUP = JobRole.BACKUP.value
_OPTIONAL = JobRole.OPTIONAL.value


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant."""

    kind: str
    detail: str


def validate_result(
    result: SimulationResult,
    max_copies: int = 2,
    index: Optional[TraceIndex] = None,
) -> List[ValidationIssue]:
    """Run all model-level checks; returns the (ideally empty) issue list.

    Args:
        result: a finished trace-mode simulation.
        max_copies: executions of one logical job may total at most this
            many WCETs (2 for plain standby-sparing; higher when a policy
            schedules recovery copies).
        index: the audit's :class:`~repro.sim.trace.TraceIndex` of the
            trace; None builds one.
    """
    if result.trace is None:
        raise ValueError(
            "validate_result needs a trace run (collect_trace=True); audit "
            "trace-less runs through the cross-mode differential check"
        )
    if index is None:
        index = TraceIndex(result.trace)
    issues: List[ValidationIssue] = []
    base = result.timebase
    taskset = result.taskset
    plan = result.speed_plan
    wcets = [base.to_ticks(task.wcet) for task in taskset]
    periods = [base.to_ticks(task.period) for task in taskset]
    deadlines = [base.to_ticks(task.deadline) for task in taskset]

    # -- per-processor segment sanity ------------------------------------
    # Sorted by start with a running *max* end: remembering only the
    # previous segment's end would let a segment nested inside an
    # earlier, longer one reset the watermark and hide a later overlap.
    for processor in range(result.trace.processor_count):
        max_end: Optional[int] = None
        for segment in index.segments_on(processor):
            if max_end is not None and segment.start < max_end:
                issues.append(
                    ValidationIssue(
                        "overlap",
                        f"processor {processor} segments overlap at "
                        f"{segment.start}",
                    )
                )
            if max_end is None or segment.end > max_end:
                max_end = segment.end

    # -- per-logical-job execution accounting -----------------------------
    executed: Dict[Tuple[int, int], int] = defaultdict(int)
    first_start: Dict[Tuple[int, int], int] = {}
    last_end: Dict[Tuple[int, int], int] = {}
    for segment in result.trace.segments:
        key = (segment.task_index, segment.job_index)
        executed[key] += segment.length
        first_start[key] = min(
            first_start.get(key, segment.start), segment.start
        )
        last_end[key] = max(last_end.get(key, segment.end), segment.end)

    for key, ticks in executed.items():
        task_index, job_index = key
        record = result.trace.records.get(key)
        # The record carries the actual release tick; non-periodic
        # release models place job j later than (j - 1) * P.
        release = (
            record.release
            if record is not None
            else (job_index - 1) * periods[task_index]
        )
        deadline = release + deadlines[task_index]
        wcet = wcets[task_index]
        if first_start[key] < release:
            issues.append(
                ValidationIssue(
                    "early-start",
                    f"J{task_index + 1},{job_index} started at "
                    f"{first_start[key]} before release {release}",
                )
            )
        if last_end[key] > deadline:
            issues.append(
                ValidationIssue(
                    "late-execution",
                    f"J{task_index + 1},{job_index} executed past its "
                    f"deadline {deadline} (until {last_end[key]})",
                )
            )
        # A DVFS plan stretches the main copy's budget; every other copy
        # of the job runs at full speed, so the legal total swaps exactly
        # one WCET for the stretched one.
        cap = max_copies * wcet
        if plan is not None:
            cap = (max_copies - 1) * wcet + plan.stretched_wcets[task_index]
        if ticks > cap:
            issues.append(
                ValidationIssue(
                    "over-execution",
                    f"J{task_index + 1},{job_index} executed {ticks} ticks "
                    f"> the {max_copies}-copy budget of {cap}",
                )
            )

    # -- per-segment DVFS frequency conformance ---------------------------
    # Without a plan no segment may carry a scaled speed; with one, the
    # speed of every segment is fully determined: a main copy released
    # while both processors were alive runs at exactly the plan's speed
    # for its task (max-performance fallback reverts post-fault releases
    # to full speed), and every other copy runs at 1.  Independently,
    # no mandatory segment may ever run below the feasibility-checked
    # speed the plan's R-pattern critical-scaling test admitted.
    fault = result.permanent_fault
    fault_tick = fault[1] if fault is not None else None
    for segment in result.trace.segments:
        label = (
            f"J{segment.task_index + 1},{segment.job_index}/{segment.role}"
        )
        if plan is None:
            if segment.speed != 1:
                issues.append(
                    ValidationIssue(
                        "dvfs-speed",
                        f"{label} ran at speed {segment.speed} but the run "
                        f"has no speed plan",
                    )
                )
            continue
        record = result.trace.records.get(
            (segment.task_index, segment.job_index)
        )
        release = (
            record.release
            if record is not None
            else (segment.job_index - 1) * periods[segment.task_index]
        )
        prefault = fault_tick is None or release < fault_tick
        want = plan.speeds[segment.task_index] if (
            segment.role == _MAIN and prefault
        ) else 1
        if segment.speed != want:
            issues.append(
                ValidationIssue(
                    "dvfs-speed",
                    f"{label} ran at speed {segment.speed}, the plan "
                    f"dictates {want}",
                )
            )
        if (
            segment.role != _OPTIONAL
            and segment.speed != 1
            and segment.speed < plan.checked_speed
        ):
            issues.append(
                ValidationIssue(
                    "dvfs-underspeed",
                    f"mandatory segment of {label} ran at speed "
                    f"{segment.speed}, below the feasibility-checked "
                    f"speed {plan.checked_speed}",
                )
            )

    # -- outcome bookkeeping ----------------------------------------------
    records = result.trace.records
    task_keys = index.task_keys()
    tasks = sorted(task_keys)
    # Every record, in (task, job) order.
    for key in [key for task_index in tasks for key in task_keys[task_index]]:
        task_index, job_index = key
        record = records[key]
        if record.outcome is None:
            issues.append(
                ValidationIssue(
                    "undecided",
                    f"J{task_index + 1},{job_index} has no outcome",
                )
            )
        elif record.outcome is JobOutcome.EFFECTIVE:
            if executed.get(key, 0) < wcets[task_index]:
                issues.append(
                    ValidationIssue(
                        "phantom-success",
                        f"J{task_index + 1},{job_index} effective with only "
                        f"{executed.get(key, 0)} ticks executed",
                    )
                )
            # Backup cancellation: once a copy completes fault-free the
            # logical job is decided and every sibling is canceled on
            # the spot, so no segment of the job may extend past the
            # decision instant (segments ending exactly at it are the
            # deciding copy and concurrent copies cut by the event).
            end = last_end.get(key)
            if (
                record.decided_at is not None
                and end is not None
                and end > record.decided_at
            ):
                issues.append(
                    ValidationIssue(
                        "run-after-success",
                        f"J{task_index + 1},{job_index} executed until "
                        f"{end}, past its effective decision at "
                        f"{record.decided_at}",
                    )
                )
        if record.classified_as == "skipped" and executed.get(key, 0) > 0:
            issues.append(
                ValidationIssue(
                    "skipped-but-ran",
                    f"J{task_index + 1},{job_index} was skipped yet executed",
                )
            )

    for task_index in tasks:
        job_indices = [job_index for _, job_index in task_keys[task_index]]
        expected = list(range(1, max(job_indices) + 1))
        if job_indices != expected:
            issues.append(
                ValidationIssue(
                    "gap",
                    f"task {task_index + 1} job records are not contiguous: "
                    f"{job_indices}",
                )
            )
    return issues


def audit_result(
    result: SimulationResult,
    spec: Optional[SchemeProfile] = None,
    initial_history: str = "met",
    index: Optional[TraceIndex] = None,
) -> List[ValidationIssue]:
    """Model-level checks plus the scheme checks of the profile ``spec``.

    Args:
        result: a finished trace-mode simulation.
        spec: the policy's rules (what
            :meth:`~repro.sim.engine.SchedulingPolicy.prepare` returns),
            whose ``max_copies`` caps each job's execution; None runs only
            the model-level checks, at a cap of 2 WCETs.
        initial_history: the (m,k)-history boundary condition the
            audited run used (must match for the FD replay to be exact).
        index: the audit's :class:`~repro.sim.trace.TraceIndex` of the
            trace; None builds one for this call.
    """
    if index is None:
        index = TraceIndex(result.trace)
    if spec is None:
        return validate_result(result, index=index)
    issues = validate_result(result, max_copies=spec.max_copies, index=index)
    if len(spec.tasks) != len(result.taskset):
        raise ValueError(
            f"spec for {spec.scheme!r} covers {len(spec.tasks)} tasks, "
            f"result has {len(result.taskset)}"
        )
    issues.extend(_audit_classification(result, spec, initial_history, index))
    issues.extend(_audit_placement(result, spec))
    issues.extend(_audit_offsets(result, spec))
    running, waiting = _priority_intervals(result, spec)
    issues.extend(_priority_scan(running, waiting, spec.optional_preemption))
    return issues


def _audit_classification(
    result: SimulationResult,
    spec: SchemeProfile,
    initial_history: str,
    index: TraceIndex,
) -> List[ValidationIssue]:
    """Replay each task's (m,k)-history and optional alternation.

    Checks every classification, and where each legitimate optional ran.
    With constrained deadlines (D <= P, enforced by the task model) and
    the engine's deadline-before-release event order, job j's outcome is
    always decided before job j+1's release, so the flexibility degree
    at each release is exactly the replayed one.

    Principle (iii): an optional released before a permanent fault runs
    on the task's alternation toggle, which it then flips (or on
    ``optional_processor`` when the task's optionals are pinned).  One
    released at or after the fault tick (the fault is handled before
    same-tick releases) breaks the rules unless the profile keeps
    ``postfault_optionals``; it then runs on the survivor and leaves the
    toggle alone.  An optional that never ran still flips the toggle but
    has no segment to check.
    """
    issues: List[ValidationIssue] = []
    trace = result.trace
    fault_tick, survivor = _fault_view(result)
    task_keys = index.task_keys()
    ran_on: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
    for segment in trace.segments:
        if segment.role == _OPTIONAL:
            ran_on[(segment.task_index, segment.job_index)].add(
                segment.processor
            )
    for task_index, task in enumerate(result.taskset):
        tc = spec.tasks[task_index]
        toggle = tc.optional_processor
        history = make_initial_history(
            task.mk, normalize_initial_history(initial_history)
        )
        for key in task_keys.get(task_index, ()):
            record = trace.records[key]
            job_index = key[1]
            label = f"J{task_index + 1},{job_index}"
            fd = history.flexibility_degree()
            if (
                record.flexibility_degree is not None
                and record.flexibility_degree != fd
            ):
                issues.append(
                    ValidationIssue(
                        "fd-mismatch",
                        f"{label} recorded FD {record.flexibility_degree}, "
                        f"outcome replay gives {fd}",
                    )
                )
            if tc.classification == "all":
                mandatory_required = True
                rule = "every job is mandatory"
            elif tc.classification == "pattern":
                mandatory_required = tc.pattern.is_mandatory(job_index)
                rule = f"pattern bit for job {job_index}"
            else:
                mandatory_required = fd == 0
                rule = f"replayed FD {fd}"
            classified = record.classified_as
            if mandatory_required and classified != "mandatory":
                issues.append(
                    ValidationIssue(
                        "mandatory-rule",
                        f"{label} classified {classified!r} but must be "
                        f"mandatory ({rule})",
                    )
                )
            elif not mandatory_required and classified == "mandatory":
                issues.append(
                    ValidationIssue(
                        "mandatory-rule",
                        f"{label} classified mandatory but must not be "
                        f"({rule})",
                    )
                )
            if classified == "optional":
                limit = tc.fd_max
                allowed = (
                    fd >= 1
                    and limit != 0
                    and (limit is None or fd <= limit)
                )
                after_fault = (
                    fault_tick is not None and record.release >= fault_tick
                )
                if not allowed:
                    issues.append(
                        ValidationIssue(
                            "optional-fd",
                            f"{label} executed as optional at FD {fd}; "
                            f"{spec.scheme} only runs optionals with FD in "
                            f"[1, {'inf' if limit is None else limit}]",
                        )
                    )
                elif after_fault and not tc.postfault_optionals:
                    issues.append(
                        ValidationIssue(
                            "postfault-optional",
                            f"{label} released at {record.release} ran as "
                            f"an optional after the permanent fault at "
                            f"{fault_tick}; {spec.scheme} runs no "
                            f"optionals after a fault",
                        )
                    )
                elif not mandatory_required:
                    if after_fault:
                        expected = survivor
                    elif tc.alternate_optionals:
                        expected = toggle
                        toggle = SPARE if toggle == PRIMARY else PRIMARY
                    else:
                        expected = tc.optional_processor
                    wrong = sorted(ran_on.get(key, set()) - {expected})
                    if wrong:
                        issues.append(
                            ValidationIssue(
                                "optional-processor",
                                f"{label} optional ran on processor(s) "
                                f"{wrong}; {spec.scheme} places it on "
                                f"processor {expected}",
                            )
                        )
            history.record(record.outcome is JobOutcome.EFFECTIVE)
    return issues


def _fault_view(
    result: SimulationResult,
) -> Tuple[Optional[int], Optional[int]]:
    """(fault tick, surviving processor), or (None, None) without a fault."""
    if result.permanent_fault is None:
        return None, None
    dead, tick = result.permanent_fault
    return tick, SPARE if dead == PRIMARY else PRIMARY


def _audit_placement(
    result: SimulationResult, spec: SchemeProfile
) -> List[ValidationIssue]:
    """Mandatory-copy placement (the profile's ``main_processor``).

    Before the permanent-fault tick, a MAIN segment runs on its task's
    ``main_processor`` and a BACKUP segment on the other processor; a
    MAIN released at or after the fault runs on the survivor.  A main
    released before the fault is left alone after it: a re-execution
    policy legitimately recovers it on the survivor.  One issue per
    misplaced copy.
    """
    issues: List[ValidationIssue] = []
    trace = result.trace
    fault_tick, survivor = _fault_view(result)
    flagged: Set[Tuple[int, int, str]] = set()
    for segment in trace.segments:
        role = segment.role
        if role == _OPTIONAL:
            continue  # checked with the classification replay
        key = (segment.task_index, segment.job_index, role)
        record = trace.records.get(key[:2])
        if record is None or key in flagged:
            continue
        if fault_tick is not None and record.release >= fault_tick:
            if role != _MAIN:
                continue
            expected = survivor
        elif fault_tick is None or segment.start < fault_tick:
            main = spec.tasks[segment.task_index].main_processor
            expected = main if role == _MAIN else (
                SPARE if main == PRIMARY else PRIMARY
            )
        else:
            continue
        if segment.processor != expected:
            flagged.add(key)
            issues.append(
                ValidationIssue(
                    "main-processor",
                    f"J{key[0] + 1},{key[1]}/{role} ran on processor "
                    f"{segment.processor} at {segment.start}; "
                    f"{spec.scheme} places it on processor {expected}",
                )
            )
    return issues


def _expected_enqueue(
    record, role: str, tc: TaskProfile,
    fault_tick: Optional[int], survivor: Optional[int],
) -> int:
    """The earliest tick a copy of this role may become ready."""
    enqueue = record.release
    if role == _BACKUP:
        enqueue += tc.backup_offset or 0
    elif (
        role == _MAIN
        and fault_tick is not None
        and record.release >= fault_tick
        and survivor is not None
    ):
        enqueue += tc.postfault_main_offset[survivor]
    return enqueue


def _audit_offsets(
    result: SimulationResult, spec: SchemeProfile
) -> List[ValidationIssue]:
    """Postponed-release conformance (Definitions 2-5 / Equation 2).

    No backup segment may start before r̃ = r + θ_i, no post-fault
    mandatory segment before its survivor offset, and schemes without
    backups must not have backup segments at all.
    """
    issues: List[ValidationIssue] = []
    trace = result.trace
    fault_tick, survivor = _fault_view(result)
    starts: Dict[Tuple[int, int, str], int] = {}
    for segment in trace.segments:
        key = (segment.task_index, segment.job_index, segment.role)
        if key not in starts or segment.start < starts[key]:
            starts[key] = segment.start
    for (task_index, job_index, role), start in sorted(starts.items()):
        record = trace.records.get((task_index, job_index))
        if record is None:
            continue  # flagged as "gap" by validate_result
        tc = spec.tasks[task_index]
        label = f"J{task_index + 1},{job_index}"
        if role == _BACKUP and tc.backup_offset is None:
            issues.append(
                ValidationIssue(
                    "unexpected-backup",
                    f"{label} has backup segments but {spec.scheme} "
                    f"schedules no backups",
                )
            )
            continue
        earliest = _expected_enqueue(record, role, tc, fault_tick, survivor)
        if start < earliest:
            issues.append(
                ValidationIssue(
                    "postponement",
                    f"{label}/{role} started at {start}, before its "
                    f"postponed release {earliest} "
                    f"(r = {record.release} + offset {earliest - record.release})",
                )
            )
    return issues


#: processor -> [(start, end, is_optional, queue_key, label)]
_Intervals = Dict[int, List[Tuple[int, int, bool, tuple, str]]]


def _priority_intervals(
    result: SimulationResult, spec: SchemeProfile
) -> Tuple[_Intervals, _Intervals]:
    """Per processor, when each copy ran and when it demonstrably waited.

    The input of the fixed-priority queue check (Algorithm 1, lines
    2-9; see :func:`_priority_scan`): a copy *ran* during its segments
    and was *ready but not running* from its expected enqueue tick to
    its first segment, and between consecutive segments of the same
    copy.

    Conservative by construction: copies that never ran contribute no
    waiting intervals, and pre-first-segment intervals are dropped when
    transient faults occurred (recovery copies enqueue at
    fault-detection times the trace does not record).
    """
    trace = result.trace
    records = trace.records
    have_transients = result.transient_fault_count > 0
    fault_tick, survivor = _fault_view(result)

    groups: Dict[Tuple[int, int, int, str], List] = defaultdict(list)
    for segment in trace.segments:
        groups[
            (segment.processor, segment.task_index,
             segment.job_index, segment.role)
        ].append(segment)

    running: _Intervals = defaultdict(list)
    waiting: _Intervals = defaultdict(list)
    for (processor, task_index, job_index, role), segs in groups.items():
        record = records.get((task_index, job_index))
        if record is None:
            continue  # flagged as "gap" by validate_result
        tc = spec.tasks[task_index]
        is_optional = role == _OPTIONAL
        if is_optional:
            fd = record.flexibility_degree
            key: tuple = (0 if fd is None else fd, task_index, job_index)
        else:
            key = (task_index, job_index)
        label = f"J{task_index + 1},{job_index}/{role}"
        segs.sort(key=lambda s: s.start)
        for seg in segs:
            running[processor].append(
                (seg.start, seg.end, is_optional, key, label)
            )
        enqueue = _expected_enqueue(record, role, tc, fault_tick, survivor)
        if not have_transients and segs[0].start > enqueue:
            waiting[processor].append(
                (enqueue, segs[0].start, is_optional, key, label)
            )
        for prev, nxt in zip(segs, segs[1:]):
            if nxt.start > prev.end:
                waiting[processor].append(
                    (prev.end, nxt.start, is_optional, key, label)
                )
    return running, waiting


def _priority_scan(
    running: _Intervals, waiting: _Intervals, optional_preemption: bool
) -> List[ValidationIssue]:
    """Fixed-priority queue conformance over :func:`_priority_intervals`.

    A violation is a running segment overlapping a waiting interval of
    (a) a mandatory-queue copy while an optional runs, or (b) a strictly
    higher-priority copy of the same queue class.  Optional-vs-optional
    checks are skipped when ``optional_preemption`` is False (a
    dispatched optional legitimately holds its processor there).
    """
    issues: List[ValidationIssue] = []
    for processor, waits in waiting.items():
        runs = running[processor]
        # Runs in start order, with the running maximum of their ends:
        # the runs overlapping a wait all lie between the first whose
        # reach passes the wait's start and the first starting at or
        # after its end.  (On one processor the runs are disjoint, so the
        # slice is exactly the overlapping runs; the running maximum
        # keeps it complete on a trace whose runs overlap.)  Each slice
        # is visited in insertion order, as an all-pairs scan would.
        order = sorted(range(len(runs)), key=lambda index: runs[index][0])
        starts = [runs[index][0] for index in order]
        reach = list(accumulate((runs[index][1] for index in order), max))
        for wstart, wend, w_opt, w_key, w_label in waits:
            lo = bisect_right(reach, wstart)
            hi = bisect_left(starts, wend)
            for index in sorted(order[lo:hi]):
                rstart, rend, r_opt, r_key, r_label = runs[index]
                if rend <= wstart:
                    continue
                if w_key == r_key and w_opt == r_opt:
                    continue  # the same copy identity (recovery re-runs)
                overlap = (max(wstart, rstart), min(wend, rend))
                if not w_opt and r_opt:
                    issues.append(
                        ValidationIssue(
                            "priority",
                            f"optional {r_label} ran on processor "
                            f"{processor} during {overlap} while mandatory "
                            f"{w_label} was ready",
                        )
                    )
                elif w_opt == r_opt:
                    if w_opt and not optional_preemption:
                        continue
                    if w_key < r_key:
                        issues.append(
                            ValidationIssue(
                                "priority",
                                f"{r_label} (key {r_key}) ran on processor "
                                f"{processor} during {overlap} while "
                                f"higher-priority {w_label} (key {w_key}) "
                                f"was ready",
                            )
                        )
    return issues


def assert_valid(result: SimulationResult, max_copies: int = 2) -> None:
    """Raise AssertionError with every issue when validation fails."""
    issues = validate_result(result, max_copies=max_copies)
    assert not issues, "\n".join(f"{i.kind}: {i.detail}" for i in issues)


# -- DPD legality ---------------------------------------------------------


def _expected_decomposition(
    result: SimulationResult, model, decisions: Dict[int, bool]
) -> Dict[int, Tuple[Fraction, Fraction, Fraction, int]]:
    """Per-processor (busy, idle, sleep, transitions) the DPD rule demands.

    Recomputed from the run's counters -- each processor's busy ticks and
    idle-gap lengths inside its accounting window ([0, horizon),
    truncated at a dead processor's fault instant) -- applying
    :func:`~repro.energy.dpd.shutdown_decision` to every gap length.
    """
    base = result.timebase
    stats = result.stats
    return {
        processor: (base.from_ticks(stats.busy[processor]),)
        + _split_gaps(counts, base, model, decisions)
        for processor, counts in enumerate(stats.gap_counts)
    }


def _split_gaps(
    counts: Dict[int, int], base, model, decisions: Dict[int, bool]
) -> Tuple[Fraction, Fraction, int]:
    """(idle, sleep, transitions) of a gap-length multiset under the DPD
    rule, deciding each distinct length once (``decisions`` memoizes the
    verdicts, length -> sleeps, for one power model and tick grid) and
    converting the idle and sleep tick totals to units once each."""
    idle = sleep = transitions = 0
    for length, count in counts.items():
        sleeps = decisions.get(length)
        if sleeps is None:
            sleeps = decisions[length] = shutdown_decision(
                base.from_ticks(length), model
            )
        if sleeps:
            sleep += length * count
            transitions += count
        else:
            idle += length * count
    return base.from_ticks(idle), base.from_ticks(sleep), transitions


def _expected_speed_units(
    result: SimulationResult,
) -> Dict[int, Tuple[Tuple[object, Fraction], ...]]:
    """Per-processor sorted (speed, units) of DVFS-scaled execution,
    re-derived from the run's :attr:`RunStats.speed_busy` ledger
    independently of the accounting code under audit."""
    base = result.timebase
    return {
        processor: tuple(
            (speed, base.from_ticks(by_speed[speed]))
            for speed in sorted(by_speed)
        )
        for processor, by_speed in enumerate(result.stats.speed_busy)
    }


def audit_energy(
    result: SimulationResult,
    report,
    decisions: Optional[Dict[int, bool]] = None,
) -> List[ValidationIssue]:
    """DPD legality: the energy report must match the shutdown rule.

    Every gap the report counts as slept must satisfy
    :func:`~repro.energy.dpd.shutdown_decision` and vice versa, so the
    per-processor (busy, idle, sleep, transition) decomposition recomputed
    from the run must equal the report's exactly.

    On a DVFS run the audit goes further: the report must carry the
    plan's DVS model, its per-speed busy decomposition must equal the
    one re-derived from the run, and the active energy must equal the
    speed-aware charge over that re-derived decomposition bit-for-bit
    (the charging formula fixes its summation order so an independent
    recomputation reproduces the float exactly).

    ``decisions`` memoizes the DPD verdict per gap length (length ->
    sleeps) across the energy audits of one audit, whose runs share the
    report's power model and tick grid; None decides afresh for this
    call.
    """
    issues: List[ValidationIssue] = []
    if decisions is None:
        decisions = {}
    expected = _expected_decomposition(result, report.model, decisions)
    plan = result.speed_plan
    dvs = getattr(report, "dvs", None)
    if (plan is None) != (dvs is None):
        issues.append(
            ValidationIssue(
                "dvfs-report",
                f"run {'has' if plan is not None else 'has no'} speed plan "
                f"but the report {'carries no' if dvs is None else 'carries a'}"
                f" DVS model",
            )
        )
    elif plan is not None and dvs != plan.model:
        issues.append(
            ValidationIssue(
                "dvfs-report",
                f"report charges under {dvs} but the run's plan uses "
                f"{plan.model}",
            )
        )
    speed_expected = _expected_speed_units(result) if plan is not None else {}
    for processor in sorted(
        set(expected) | set(report.per_processor)
    ):
        want = expected.get(processor)
        got = report.per_processor.get(processor)
        got_tuple = (
            None
            if got is None
            else (
                got.busy_units,
                got.idle_units,
                got.sleep_units,
                got.transition_count,
            )
        )
        if want != got_tuple:
            issues.append(
                ValidationIssue(
                    "dpd",
                    f"processor {processor}: reported "
                    f"(busy, idle, sleep, transitions) = {got_tuple} but "
                    f"the DPD rule over the run's gaps gives {want}",
                )
            )
        if want is None or got is None:
            continue
        want_speed = speed_expected.get(processor, ())
        if tuple(getattr(got, "speed_units", ())) != want_speed:
            issues.append(
                ValidationIssue(
                    "dvfs-energy",
                    f"processor {processor}: reported speed decomposition "
                    f"{got.speed_units} but the run gives {want_speed}",
                )
            )
            continue
        want_active = active_energy_of(
            want[0], want_speed, report.model, dvs
        )
        if got.active_energy != want_active:
            issues.append(
                ValidationIssue(
                    "dvfs-energy",
                    f"processor {processor}: reported active energy "
                    f"{got.active_energy!r}, the speed-aware charge over "
                    f"the run's decomposition is {want_active!r}",
                )
            )
    return issues


# -- cross-mode differential ----------------------------------------------


def result_ledger(result: SimulationResult) -> Dict[str, object]:
    """Canonical mode-independent summary of a run's counters.

    A trace run's counters are derived from its trace and a stats-only
    run's are kept online by the engine or the kernel, so two runs of
    the same descriptor must produce equal ledgers in every mode.
    """
    stats = result.stats
    return {
        "released": stats.released,
        "effective": stats.effective,
        "missed": stats.missed,
        "mandatory": stats.mandatory,
        "optional_executed": stats.optional_executed,
        "skipped": stats.skipped,
        "violations": tuple(stats.violations),
        "busy": tuple(stats.busy),
        "gaps": tuple(
            tuple(sorted(counts.items())) for counts in stats.gap_counts
        ),
        "speed_busy": tuple(
            tuple(sorted(counts.items())) for counts in stats.speed_busy
        ),
        "transient_faults": result.transient_fault_count,
    }


def compare_ledgers(
    reference: Dict[str, object],
    candidate: Dict[str, object],
    label: str = "candidate",
) -> List[ValidationIssue]:
    """Field-by-field comparison of two :func:`result_ledger` outputs."""
    issues: List[ValidationIssue] = []
    for key in sorted(set(reference) | set(candidate)):
        want = reference.get(key)
        got = candidate.get(key)
        if want != got:
            issues.append(
                ValidationIssue(
                    "mode-divergence",
                    f"{label}: ledger field {key!r} diverges from the "
                    f"trace reference ({got!r} != {want!r})",
                )
            )
    return issues
