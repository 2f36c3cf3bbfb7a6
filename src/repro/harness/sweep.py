"""Utilization sweeps: the engine behind every Figure 6 panel.

The paper sweeps the total (m,k)-utilization in 0.1-wide bins, generates
at least 20 schedulable task sets per bin, runs the three approaches on
each, and plots energy normalized to MKSS_ST.  :func:`utilization_sweep`
does exactly that for an arbitrary scheme list and fault scenario; the
same task sets and the same per-set fault draws are reused across schemes
so comparisons are paired.

Parallel execution (``workers > 1``) uses one persistent process pool for
the whole sweep -- not one pool per bin -- so worker startup is paid once
and every worker's analysis cache stays warm across the bins.  Every job
is one ``(taskset, scheme, scenario, run)`` descriptor, whether the task
sets were supplied, generated or loaded from a generation store: the
parent holds the corpus and ships each job its task set.  The
``workers=1`` path runs the same jobs inline and is exactly the
sequential protocol.

Sweeps never consume execution traces -- each job reduces to (energy,
violations) -- so every job runs stats-only.  That is exact: payloads,
journals, and aggregates are bitwise identical to trace-mode runs of the
same jobs.

Resilience (this module's execution layer, :func:`execute_jobs`):

* jobs are submitted **per future**, not via an all-or-nothing
  ``pool.map``, so one worker crash or hang cannot discard completed
  results;
* each job carries a configurable wall-clock timeout and a bounded retry
  budget with backoff; a ``BrokenProcessPool`` respawns the pool and
  resubmits the unfinished jobs;
* a job that exhausts its retries is **dropped as a pair**: the whole
  (task set, every scheme) group leaves the aggregation -- preserving the
  paper's paired-comparison protocol -- and is surfaced in
  :attr:`SweepResult.dropped` instead of aborting the sweep;
* an optional :class:`~repro.harness.journal.RunJournal` checkpoints each
  finished job, so an interrupted sweep resumes from completed work with
  bitwise-identical results;
* a :class:`~repro.harness.events.EventLog` records job lifecycle, pool
  respawns, wall times, and progress under one run id.

Resume assumes the same ``scenario_factory`` is supplied again: fault
draws are built in the parent, deterministically by global set index, and
are not captured in the journal fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, UnknownSchemeError
from ..faults.scenario import FaultScenario
from ..model.taskset import TaskSet
from ..sim.validation import ValidationIssue
from ..workload.fastgen import GenerationStats
from ..workload.generator import GeneratorConfig, generate_binned_tasksets
from .events import (
    BATCH_PROGRESS,
    GENERATION,
    JOB_DROP,
    JOB_FINISH,
    JOB_RETRY,
    JOB_SKIP,
    JOB_START,
    POOL_RESPAWN,
    RUN_FINISH,
    RUN_START,
    VALIDATE,
    VALIDATION_ISSUE,
    EventLog,
)
from .genstore import (
    GenerationStore,
    generation_digest,
)
from .journal import RunJournal
from .runner import PAPER_SCHEMES, SCHEME_FACTORIES, RunSpec, run_scheme
from .stats import confidence_interval95, mean
from .validate import AUDIT_MODES, audit_scheme

ScenarioFactory = Callable[[int], FaultScenario]
"""Builds the fault scenario for the task set with the given global index
(so every scheme sees the identical fault draw on the same set)."""

#: Job outcome tags returned by :func:`execute_jobs`.
OK = "ok"
DROPPED = "dropped"

#: The execution backends of :func:`utilization_sweep`.  ``pool`` is the
#: classic per-job path (inline at ``workers=1``, process pool above);
#: ``batch`` advances every batchable job in lockstep on the vectorized
#: kernel (:mod:`repro.sim.batch`) and falls back to the scalar engine
#: per job for the rest.
SWEEP_BACKENDS = ("pool", "batch")


def check_sweep_arguments(
    bins: Sequence[Tuple[float, float]],
    schemes: Sequence[str],
    reference_scheme: str,
    backend: str,
    validate: int,
) -> None:
    """Reject a sweep that cannot run as asked, before any work.

    Every bin must satisfy lo < hi and every scheme be registered; no
    bin and no scheme may repeat, since a repeat would run the same jobs
    twice under one key; the reference scheme must be among the
    schemes, the backend one of :data:`SWEEP_BACKENDS`, and ``validate``
    at least 0.  Raises :class:`ConfigurationError` (unknown schemes as
    :class:`UnknownSchemeError`).
    """
    unknown = sorted(set(schemes) - set(SCHEME_FACTORIES))
    if unknown:
        raise UnknownSchemeError(
            f"unknown scheme(s) {unknown}; known: {sorted(SCHEME_FACTORIES)}"
        )
    if len(set(schemes)) != len(schemes):
        raise ConfigurationError(f"schemes repeat: {list(schemes)}")
    if reference_scheme not in schemes:
        raise ConfigurationError(
            f"reference scheme {reference_scheme!r} must be in {list(schemes)}"
        )
    for lo, hi in bins:
        if not lo < hi:
            raise ConfigurationError(f"bad bin [{lo}, {hi}): need lo < hi")
    if len({tuple(bin_range) for bin_range in bins}) != len(bins):
        raise ConfigurationError(f"bins repeat: {[list(b) for b in bins]}")
    if backend not in SWEEP_BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {sorted(SWEEP_BACKENDS)}"
        )
    if validate < 0:
        raise ConfigurationError(f"validate must be >= 0, got {validate}")


def _freeze(value):
    """Recursively convert containers to hashable tuples for hash keys.

    Dicts become sorted ``(key, value)`` tuples and sets become sorted
    tuples, so a dict- or set-valued :class:`GeneratorConfig` field still
    yields a hashable, canonical :func:`_config_key` (the sweep
    fingerprint and :func:`~repro.harness.genstore.generation_digest`
    render it).
    """
    if isinstance(value, dict):
        return tuple(
            (key, _freeze(item)) for key, item in sorted(value.items())
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(item) for item in value))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _config_key(config: Optional[GeneratorConfig]) -> Optional[tuple]:
    """Hashable identity of a generator config (None = defaults)."""
    if config is None:
        return None
    return tuple(
        (f.name, _freeze(getattr(config, f.name)))
        for f in dataclasses.fields(config)
    )


def _taskset_digest(taskset: TaskSet) -> str:
    """Short stable digest of a task set's analysis-relevant identity."""
    blob = repr(taskset.fingerprint()).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()[:16]


#: Test-only fault injection: when this environment variable names an
#: existing file, the first worker to claim it (by unlinking it) dies
#: with ``os._exit``, simulating a SIGKILL/OOM mid-sweep.  Used by the
#: resilience tests and the CI worker-kill job; inert in normal runs.
_CRASH_FILE_ENV = "REPRO_SWEEP_CRASH_FILE"


def _maybe_crash_for_tests() -> None:
    path = os.environ.get(_CRASH_FILE_ENV)
    if not path:
        return
    try:
        os.unlink(path)
    except OSError:
        return
    os._exit(17)


def _run_one(job: tuple) -> Tuple[float, int]:
    """Module-level worker so ProcessPoolExecutor can pickle it.

    ``job`` is the descriptor ``(taskset, scheme, scenario, run)``, where
    ``run`` is the sweep's :class:`~repro.harness.runner.RunSpec`.  Every
    job runs stats-only: the payload needs no trace.

    Returns ``(total energy, mk violations)``.
    """
    _maybe_crash_for_tests()
    taskset, scheme, scenario, run = job
    outcome = run_scheme(taskset, scheme, scenario, run, collect_trace=False)
    return outcome.total_energy, outcome.metrics.mk_violations


def _run_batch_chunk(items: list) -> list:
    """Module-level batch worker so ProcessPoolExecutor can pickle it.

    ``items`` is a list of :class:`repro.sim.batch.BatchItem`; the whole
    chunk advances in lockstep on one vectorized kernel.  Returns one
    ``(energy, violations)`` payload per item, aligned with ``items``
    -- exactly what :func:`_run_one` returns for the same job on the
    scalar engine.
    """
    _maybe_crash_for_tests()
    from ..sim.batch import run_batch_payloads

    return run_batch_payloads(items)


def _execute_batch_jobs(
    jobs: Sequence[tuple],
    key_list: Sequence[str],
    *,
    workers: int,
    policy: ExecutionPolicy,
    journal: Optional[RunJournal],
    completed: Dict[str, Any],
    events: EventLog,
) -> List[Tuple[str, Any]]:
    """The ``backend="batch"`` execution path of the sweep.

    Resolves every pending job into a :class:`~repro.sim.batch.BatchItem`
    where possible and advances all of them in lockstep -- inline at
    ``workers=1``, or split into one chunk per worker over the process
    pool.  Jobs the kernel cannot take (a re-execution policy under
    transient faults, no batch profile, window too deep) fall back to
    the scalar engine via :func:`execute_jobs`, as does every batched
    job whose chunk failed.
    Journal rows carry the same keys and byte-identical payloads as the
    pool backend, so journals resume across backends in both directions.
    The items share one :class:`~repro.sim.batch.BatchFront`, which
    lives for this call only.

    Returns ``(tag, payload)`` per job, aligned with ``jobs`` -- the
    :func:`execute_jobs` contract.
    """
    from ..sim.batch import BatchFront, build_batch_item

    log = events
    total = len(jobs)
    results: List[Optional[Tuple[str, Any]]] = [None] * total
    done = 0
    if completed:
        for index, key in enumerate(key_list):
            if key in completed:
                results[index] = (OK, completed[key])
                done += 1
                log.emit(JOB_SKIP, job=key, progress=f"{done}/{total}")
    pending = [index for index in range(total) if results[index] is None]

    items: Dict[int, Any] = {}
    scalar: List[int] = []
    front = BatchFront()
    for index in pending:
        item = build_batch_item(*jobs[index], front=front)
        if item is None:
            scalar.append(index)
        else:
            items[index] = item

    def finish(index: int, payload: Any, wall_s: float) -> None:
        nonlocal done
        results[index] = (OK, payload)
        done += 1
        if journal is not None:
            journal.record(
                key_list[index],
                payload,
                wall_s=round(wall_s, 6),
                attempt=1,
            )
        log.emit(
            JOB_FINISH,
            job=key_list[index],
            attempt=1,
            wall_s=round(wall_s, 6),
            progress=f"{done}/{total}",
        )

    batch_order = sorted(items)
    if batch_order:
        started = time.monotonic()
        if workers == 1:
            last_emit = [started]

            def progress(
                done_sims: int, total_sims: int, iterations: int
            ) -> None:
                stamp = time.monotonic()
                final = done_sims == total_sims
                if not final and stamp - last_emit[0] < 1.0:
                    return
                last_emit[0] = stamp
                elapsed = stamp - started
                # The final event carries the kernel's own counters.
                extras = (
                    dict(fallback=len(scalar), iterations=iterations)
                    if final
                    else {}
                )
                log.emit(
                    BATCH_PROGRESS,
                    done=done_sims,
                    total=total_sims,
                    sims_per_s=(
                        round(done_sims / elapsed, 1) if elapsed > 0 else None
                    ),
                    **extras,
                )

            try:
                payloads = _run_batch_chunk_with_progress(
                    [items[index] for index in batch_order], progress
                )
            except Exception as exc:
                reason = f"batch kernel failed: {_describe_error(exc)}"
                for index in batch_order:
                    log.emit(
                        JOB_RETRY, job=key_list[index], attempt=1, reason=reason
                    )
                scalar.extend(batch_order)
            else:
                per_job = (time.monotonic() - started) / len(batch_order)
                for index, value in zip(batch_order, payloads):
                    finish(index, value, per_job)
        else:
            # One lockstep chunk per worker; a chunk is the retry/timeout
            # unit (execute_jobs charges and respawns per chunk), and a
            # chunk that still fails degrades to per-job scalar fallback.
            chunk_count = min(workers, len(batch_order))
            chunk_ix = [
                batch_order[offset::chunk_count]
                for offset in range(chunk_count)
            ]
            outcomes = execute_jobs(
                [[items[index] for index in chunk] for chunk in chunk_ix],
                worker=_run_batch_chunk,
                keys=[f"batch-chunk{offset}" for offset in range(chunk_count)],
                workers=workers,
                policy=policy,
                events=EventLog(),  # chunk lifecycle stays off the run stream
            )
            elapsed = time.monotonic() - started
            per_job = elapsed / len(batch_order)
            for chunk, (tag, value) in zip(chunk_ix, outcomes):
                if tag != OK:
                    for index in chunk:
                        log.emit(
                            JOB_RETRY,
                            job=key_list[index],
                            attempt=1,
                            reason=f"batch chunk failed: {value}",
                        )
                    scalar.extend(chunk)
                else:
                    for index, payload in zip(chunk, value):
                        finish(index, payload, per_job)
            finished = sum(
                len(chunk)
                for chunk, (tag, _) in zip(chunk_ix, outcomes)
                if tag == OK
            )
            log.emit(
                BATCH_PROGRESS,
                done=finished,
                total=len(batch_order),
                sims_per_s=(
                    round(finished / elapsed, 1) if elapsed > 0 else None
                ),
                fallback=len(scalar),
            )

    if scalar:
        scalar.sort()
        outcomes = execute_jobs(
            [jobs[index] for index in scalar],
            keys=[key_list[index] for index in scalar],
            workers=workers,
            policy=policy,
            journal=journal,
            events=log,
        )
        for index, outcome in zip(scalar, outcomes):
            results[index] = outcome
    return [
        outcome if outcome is not None else (DROPPED, "not executed")
        for outcome in results
    ]


def _run_batch_chunk_with_progress(items: list, progress) -> list:
    """Inline variant of :func:`_run_batch_chunk` that streams progress."""
    from ..sim.batch import run_batch_payloads

    return run_batch_payloads(items, progress)


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-isolation knobs for :func:`execute_jobs`.

    Attributes:
        job_timeout: per-job wall-clock budget in seconds, measured from
            submission; ``None`` waits forever.  A timeout tears the pool
            down (a stuck worker cannot be cancelled any other way),
            charges the timed-out job one attempt, and resubmits the rest
            uncharged.  Ignored on the inline ``workers=1`` path.
        max_retries: failed attempts a job may accumulate beyond its
            first try before it is dropped.
        retry_backoff: seconds slept before retrying a job that raised,
            scaled by its attempt count (0 = retry immediately).
    """

    job_timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.job_timeout is not None and not self.job_timeout > 0:
            raise ConfigurationError(
                f"job_timeout must be positive or None, got {self.job_timeout}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )


def _describe_error(exc: BaseException) -> str:
    text = str(exc)
    name = type(exc).__name__
    return f"{name}: {text}" if text else name


def _kill_pool(pool) -> None:
    """Forcefully tear down an executor whose workers may be stuck.

    ``shutdown`` alone joins the workers, which never returns if one is
    hung; killing the processes first (private attribute, guarded) makes
    teardown prompt and lets a fresh pool take over.
    """
    processes = getattr(pool, "_processes", None)
    for process in list((processes or {}).values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def execute_jobs(
    jobs: Sequence[Any],
    *,
    worker: Optional[Callable[[Any], Any]] = None,
    keys: Optional[Sequence[str]] = None,
    workers: int = 1,
    policy: Optional[ExecutionPolicy] = None,
    journal: Optional[RunJournal] = None,
    completed: Optional[Dict[str, Any]] = None,
    events: Optional[EventLog] = None,
) -> List[Tuple[str, Any]]:
    """Run independent jobs with fault isolation, retries, checkpointing.

    The resilient core of the sweep harness, usable with any picklable
    ``worker``.  Returns one ``(tag, payload)`` per job, aligned with
    ``jobs``: ``("ok", value)`` for a finished job, ``("dropped",
    reason)`` for a job that exhausted its retry budget.  The call never
    raises for worker-side failures -- crashes, hangs, and exceptions all
    degrade to drops after bounded retries.

    Args:
        jobs: picklable job descriptors.
        worker: callable mapping one descriptor to a result (default:
            the sweep worker :func:`_run_one`).
        keys: deterministic per-job identities for journaling; generated
            positionally when omitted.
        workers: process count; 1 runs inline (same retry/drop policy,
            no timeout enforcement).
        policy: timeout/retry knobs (default :class:`ExecutionPolicy`).
        journal: started journal to append finished jobs to.
        completed: ``{key: value}`` of jobs already done (from a journal
            resume); matching jobs are skipped and reported as ok.
        events: event log to emit into (a throwaway one when omitted).

    Failure semantics in the pool path: an exception raised *by the job*
    charges that job an attempt and retries after backoff; a pool break
    charges every submitted-but-unfinished job (the culprit is unknowable
    once the pool dies) and respawns, and jobs not yet submitted when it
    broke go to the new pool uncharged; a timeout charges only the
    timed-out job, then tears down and respawns the pool because a
    running future cannot be cancelled.
    """
    worker = worker or _run_one
    policy = policy or ExecutionPolicy()
    log = events if events is not None else EventLog()
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    total = len(jobs)
    if keys is None:
        key_list = [f"job{index}" for index in range(total)]
    else:
        key_list = [str(key) for key in keys]
        if len(key_list) != total:
            raise ConfigurationError(
                f"{len(key_list)} keys for {total} jobs"
            )
        if len(set(key_list)) != total:
            raise ConfigurationError("job keys must be unique")

    results: List[Optional[Tuple[str, Any]]] = [None] * total
    attempts = [0] * total
    done = 0

    def finish(index: int, value: Any, wall_s: float) -> None:
        nonlocal done
        results[index] = (OK, value)
        done += 1
        if journal is not None:
            journal.record(
                key_list[index],
                value,
                wall_s=round(wall_s, 6),
                attempt=attempts[index] + 1,
            )
        log.emit(
            JOB_FINISH,
            job=key_list[index],
            attempt=attempts[index] + 1,
            wall_s=round(wall_s, 6),
            progress=f"{done}/{total}",
        )

    def drop(index: int, reason: str) -> None:
        nonlocal done
        results[index] = (DROPPED, reason)
        done += 1
        log.emit(
            JOB_DROP,
            job=key_list[index],
            attempt=attempts[index],
            reason=reason,
            progress=f"{done}/{total}",
        )

    def fail(index: int, reason: str, survivors: List[int], backoff: bool) -> None:
        """Charge one attempt; retry (into ``survivors``) or drop."""
        attempts[index] += 1
        if attempts[index] > policy.max_retries:
            drop(index, reason)
            return
        log.emit(
            JOB_RETRY,
            job=key_list[index],
            attempt=attempts[index],
            reason=reason,
        )
        if backoff and policy.retry_backoff:
            time.sleep(policy.retry_backoff * attempts[index])
        survivors.append(index)

    if completed:
        for index, key in enumerate(key_list):
            if key in completed:
                results[index] = (OK, completed[key])
                done += 1
                log.emit(JOB_SKIP, job=key, progress=f"{done}/{total}")
    pending = [index for index in range(total) if results[index] is None]

    if workers == 1:
        while pending:
            survivors: List[int] = []
            for index in pending:
                log.emit(
                    JOB_START,
                    job=key_list[index],
                    attempt=attempts[index] + 1,
                    queue_depth=total - done,
                )
                started = time.monotonic()
                try:
                    value = worker(jobs[index])
                except Exception as exc:
                    fail(index, _describe_error(exc), survivors, backoff=True)
                else:
                    finish(index, value, time.monotonic() - started)
            pending = survivors
        return [
            outcome if outcome is not None else (DROPPED, "not executed")
            for outcome in results
        ]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    pool = None
    try:
        while pending:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            futures = {}
            submitted_at = {}
            for index in pending:
                try:
                    futures[index] = pool.submit(worker, jobs[index])
                except BrokenProcessPool:
                    # A worker died before every job was queued: harvest
                    # the queued ones, and the rest wait, uncharged, for
                    # the next pool.
                    break
                submitted_at[index] = time.monotonic()
                log.emit(
                    JOB_START,
                    job=key_list[index],
                    attempt=attempts[index] + 1,
                    queue_depth=total - done,
                )
            unqueued = pending[len(futures):]
            survivors = []
            pool_dead = False
            for index, future in futures.items():
                if pool_dead:
                    # The pool is being torn down: harvest whatever
                    # already finished, resubmit the rest uncharged
                    # (broken futures are charged -- see below).
                    if not future.done():
                        future.cancel()
                        survivors.append(index)
                        continue
                    try:
                        value = future.result(timeout=0)
                    except BrokenProcessPool:
                        fail(
                            index,
                            "worker process died (pool broken)",
                            survivors,
                            backoff=False,
                        )
                    except Exception as exc:
                        fail(index, _describe_error(exc), survivors, backoff=False)
                    else:
                        finish(
                            index, value, time.monotonic() - submitted_at[index]
                        )
                    continue
                try:
                    value = future.result(timeout=policy.job_timeout)
                except FutureTimeoutError:
                    pool_dead = True
                    fail(
                        index,
                        f"timed out after {policy.job_timeout:g}s",
                        survivors,
                        backoff=False,
                    )
                except BrokenProcessPool:
                    pool_dead = True
                    fail(
                        index,
                        "worker process died (pool broken)",
                        survivors,
                        backoff=False,
                    )
                except Exception as exc:
                    fail(index, _describe_error(exc), survivors, backoff=True)
                else:
                    finish(index, value, time.monotonic() - submitted_at[index])
            survivors += unqueued
            if pool_dead or unqueued:
                _kill_pool(pool)
                pool = None
                log.emit(POOL_RESPAWN, pending=len(survivors))
            pending = survivors
    finally:
        if pool is not None:
            pool.shutdown()
    return [
        outcome if outcome is not None else (DROPPED, "not executed")
        for outcome in results
    ]


@dataclass
class BinResult:
    """Aggregated results for one (m,k)-utilization bin."""

    bin_range: Tuple[float, float]
    taskset_count: int
    mean_energy: Dict[str, float]
    normalized_energy: Dict[str, float]
    mk_violation_count: Dict[str, int]
    energy_ci95: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"[{self.bin_range[0]:g},{self.bin_range[1]:g})"


@dataclass(frozen=True)
class DroppedSet:
    """One (task set, all schemes) pair excluded from aggregation.

    Dropping the whole pair -- not just the failing scheme's run --
    preserves the paired-comparison protocol: every aggregated task set
    contributes one result to *every* scheme.
    """

    bin_range: Tuple[float, float]
    index: int
    schemes: Tuple[str, ...]
    reason: str

    @property
    def label(self) -> str:
        return f"[{self.bin_range[0]:g},{self.bin_range[1]:g}) set {self.index}"


@dataclass(frozen=True)
class SweepValidation:
    """One conformance issue found by the sweep's ``validate`` sampling."""

    job: str
    scheme: str
    mode: str
    issue: ValidationIssue


@dataclass
class SweepResult:
    """Results of a full utilization sweep."""

    schemes: Sequence[str]
    reference_scheme: str
    bins: List[BinResult] = field(default_factory=list)
    dropped: List[DroppedSet] = field(default_factory=list)
    run_id: Optional[str] = None
    validation_issues: List[SweepValidation] = field(default_factory=list)
    #: Per-job payloads of every aggregated run, keyed by the sweep's
    #: deterministic job key (the journal's key): ``(energy, violations)``.
    #: Jobs of dropped pairs are excluded, mirroring the aggregates.
    #: Enables paired per-set analyses (alternative normalizations,
    #: outlier triage) without re-running or re-parsing the journal.
    job_payloads: Dict[str, Tuple[float, int]] = field(default_factory=dict)

    def series(self, scheme: str) -> List[Tuple[str, float]]:
        """(bin label, normalized energy) pairs for one scheme."""
        return [(b.label, b.normalized_energy[scheme]) for b in self.bins]

    def max_reduction(self, scheme: str, versus: str) -> float:
        """Largest *signed* relative energy reduction of ``scheme`` vs
        ``versus`` across bins.

        Paper-style headline: 0.28 means 'up to 28% lower energy'.  A
        negative value means the scheme never beat the baseline in any
        bin -- a regression this method deliberately does not clamp to
        zero, so it stays visible.  Returns 0.0 only when no bin has a
        positive baseline to compare against.
        """
        best: Optional[float] = None
        for bucket in self.bins:
            baseline = bucket.mean_energy[versus]
            if baseline <= 0:
                continue
            reduction = 1.0 - bucket.mean_energy[scheme] / baseline
            if best is None or reduction > best:
                best = reduction
        return 0.0 if best is None else best


def _sweep_fingerprint(
    bins: Sequence[Tuple[float, float]],
    schemes: Sequence[str],
    sets_per_bin: int,
    reference_scheme: str,
    generator_config: Optional[GeneratorConfig],
    seed: Optional[int],
    supplied_tasksets: Optional[Dict[Tuple[float, float], List[TaskSet]]],
    run: RunSpec,
) -> Dict[str, Any]:
    """JSON-able identity of a sweep, for journal header validation.

    Execution-mode knobs (``workers``, ``backend``, timeouts) are
    deliberately absent: the engine guarantees identical metrics in
    every mode, so a journal written on the batch backend resumes a
    plain pool sweep -- and vice versa -- with bitwise-equal payloads.
    Every non-default knob of ``run`` *is* part of the identity (it
    changes every payload); defaults are omitted
    (:meth:`RunSpec.key`), so journals recorded before a knob existed
    still resume.
    """
    if supplied_tasksets is None:
        workload: Any = "generated"
    else:
        workload = {
            f"{key[0]:g}-{key[1]:g}": [
                _taskset_digest(taskset) for taskset in tasksets
            ]
            for key, tasksets in sorted(supplied_tasksets.items())
        }
    fingerprint = {
        "kind": "utilization_sweep",
        "bins": [[float(lo), float(hi)] for lo, hi in bins],
        "schemes": list(schemes),
        "reference_scheme": reference_scheme,
        "sets_per_bin": int(sets_per_bin),
        "seed": seed,
        "horizon_cap_units": int(run.horizon_cap_units),
        "generator_config": repr(_config_key(generator_config)),
        "workload": workload,
    }
    if run.power_model is not None:
        fingerprint["power_model"] = repr(run.power_model)
    fingerprint.update(run.key())
    return fingerprint


def utilization_sweep(
    bins: Sequence[Tuple[float, float]],
    schemes: Sequence[str] = PAPER_SCHEMES,
    scenario_factory: Optional[ScenarioFactory] = None,
    sets_per_bin: int = 20,
    reference_scheme: str = "MKSS_ST",
    generator_config: Optional[GeneratorConfig] = None,
    seed: Optional[int] = 20200309,
    run: RunSpec = RunSpec(),
    tasksets_by_bin: Optional[Dict[Tuple[float, float], List[TaskSet]]] = None,
    workers: int = 1,
    backend: str = "pool",
    journal_path: Optional[str] = None,
    resume: bool = False,
    force_new: bool = False,
    job_timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.0,
    events: Optional[EventLog] = None,
    validate: int = 0,
    generation_store: "Optional[GenerationStore | str]" = None,
) -> SweepResult:
    """Run the paper's sweep protocol.

    Args:
        bins: distinct (lo, hi) utilization intervals.
        schemes: distinct scheme names to compare (must include the
            reference).  :func:`check_sweep_arguments` rejects a sweep
            that repeats a bin or a scheme before any work.
        scenario_factory: per-task-set fault scenario builder; fault-free
            when omitted.  Always invoked in the parent process, in global
            set order, regardless of ``workers``.
        sets_per_bin: schedulable sets per bin (the paper's >= 20).
        reference_scheme: normalization reference (the paper's MKSS_ST).
        generator_config: workload generator knobs.
        seed: workload RNG seed (fixed default for reproducibility).
        run: the run knobs every job shares
            (:class:`~repro.harness.runner.RunSpec`: horizon cap, power,
            release and DVFS models, initial history).  Its non-default
            knobs enter the journal fingerprint, so a journal recorded
            under one setting cannot be silently resumed under another.
            A non-periodic release model, or a DVFS config naming a
            scheme, sends those jobs to the scalar engine on the batch
            backend.
        tasksets_by_bin: pre-generated task sets (skips generation).
        workers: > 1 fans the (task set, scheme) runs out over a single
            persistent process pool spanning every bin; results are
            identical to the sequential run (each run is deterministic
            given its scenario).
        backend: execution backend, one of :data:`SWEEP_BACKENDS`.
            ``"pool"`` (default) runs one scalar engine per job --
            inline at ``workers=1``, over the process pool above.
            ``"batch"`` advances every batchable job in lockstep on the
            vectorized numpy kernel (one batch per worker) and falls
            back to the scalar engine per job for the rest; payloads,
            journal rows, and aggregates are byte-identical to the pool
            backend, so journals resume across backends.  Requires
            numpy (``pip install repro[batch]``), otherwise raises
            :class:`~repro.errors.ConfigurationError`.
        journal_path: JSONL checkpoint file; every finished job is
            appended so a crashed or interrupted sweep can resume.
        resume: load completed jobs from ``journal_path`` (validated
            against this sweep's fingerprint) and run only the rest.
        force_new: with ``resume=True``, overwrite a journal that cannot
            be resumed (corrupt/truncated header, fingerprint mismatch)
            instead of raising; a healthy matching journal still resumes.
        job_timeout: per-job wall-clock budget in seconds (parallel runs
            only); a job over budget is retried, then dropped as a pair.
        max_retries: retry budget per job before its pair is dropped.
        retry_backoff: base backoff in seconds between retries of a job
            that raised.
        events: :class:`EventLog` receiving the run's structured events
            (job lifecycle, respawns, progress); omitted = internal log.
        validate: sample up to this many aggregated task sets (evenly
            across the sweep) and run the conformance auditor
            (:func:`~repro.harness.validate.audit_scheme`) on every
            scheme for each, in trace and stats modes.  Findings land in
            :attr:`SweepResult.validation_issues` and are emitted as
            VALIDATE / VALIDATION_ISSUE events.  0 (default) disables
            sampling.
        generation_store: a :class:`GenerationStore` (or its root path)
            memoizing generated corpora across processes and restarts.
            The parent loads a spec seen before instead of regenerating
            it; pool workers never read the store, because every job
            carries its task set.  Purely an execution knob: results,
            journal rows, and the sweep fingerprint are identical with or
            without it.
    """
    check_sweep_arguments(bins, schemes, reference_scheme, backend, validate)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if backend == "batch":
        from ..sim.batch import require_numpy

        require_numpy()
    if resume and not journal_path:
        raise ConfigurationError("resume=True requires journal_path")
    policy = ExecutionPolicy(
        job_timeout=job_timeout,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
    )

    log = events if events is not None else EventLog()
    supplied = tasksets_by_bin is not None
    fingerprint = _sweep_fingerprint(
        bins,
        schemes,
        sets_per_bin,
        reference_scheme,
        generator_config,
        seed,
        tasksets_by_bin,
        run,
    )
    gen_store: Optional[GenerationStore] = (
        GenerationStore(generation_store)
        if isinstance(generation_store, str)
        else generation_store
    )
    if tasksets_by_bin is None:
        gen_digest = generation_digest(
            bins, sets_per_bin, generator_config, seed
        )
        gen_started = time.monotonic()
        cached = gen_store.get(gen_digest) if gen_store is not None else None
        if cached is not None:
            tasksets_by_bin = cached
            gen_source = "cache"
            gen_counters: Dict[str, Any] = {}
        else:
            gen_stats = GenerationStats()
            tasksets_by_bin = generate_binned_tasksets(
                bins, sets_per_bin, generator_config, seed, stats=gen_stats
            )
            gen_source = "generated"
            gen_counters = {
                key: value
                for key, value in gen_stats.to_dict().items()
                if key != "seconds"
            }
            if gen_store is not None:
                gen_store.put(
                    gen_digest,
                    tasksets_by_bin,
                    spec={
                        "bins": [list(map(float, b)) for b in bins],
                        "sets_per_bin": sets_per_bin,
                        "seed": seed,
                    },
                )
        if gen_store is not None:
            gen_counters.update(
                {f"cache_{k}": v for k, v in gen_store.stats().items()}
            )
        # Emitted right after RUN_START: run_start/run_finish bracket the
        # whole event stream (the service e2e contract).
        gen_event: Optional[Dict[str, Any]] = dict(
            source=gen_source,
            digest=gen_digest,
            seconds=round(time.monotonic() - gen_started, 3),
            sets=sum(len(v) for v in tasksets_by_bin.values()),
            **gen_counters,
        )
    else:
        gen_event = None

    jobs: List[tuple] = []
    # meta rows: (bin key, scheme, global set counter, index within bin).
    meta: List[Tuple[Tuple[float, float], str, int, int]] = []
    job_keys: List[str] = []
    populated: List[Tuple[Tuple[float, float], int]] = []
    set_counter = 0
    for bin_range in bins:
        key = tuple(bin_range)
        tasksets = tasksets_by_bin.get(key, [])
        if not tasksets:
            continue
        populated.append((key, len(tasksets)))
        for index, taskset in enumerate(tasksets):
            scenario = (
                scenario_factory(set_counter) if scenario_factory else None
            )
            counter = set_counter
            set_counter += 1
            for scheme in schemes:
                meta.append((key, scheme, counter, index))
                # Journal keys are worker-count independent (a sweep
                # journaled sequentially resumes in parallel and vice
                # versa): position for generated workloads, digest for
                # supplied ones.
                if supplied:
                    job_keys.append(
                        f"set{counter}|{_taskset_digest(taskset)}|{scheme}"
                    )
                else:
                    job_keys.append(
                        f"u{key[0]:g}-{key[1]:g}|set{index}|{scheme}"
                    )
                jobs.append((taskset, scheme, scenario, run))

    log.emit(
        RUN_START,
        jobs=len(jobs),
        workers=workers,
        backend=backend,
        resume=bool(resume),
        journal=journal_path or None,
    )
    if gen_event is not None:
        log.emit(GENERATION, **gen_event)
    journal: Optional[RunJournal] = None
    completed: Dict[str, Any] = {}
    if journal_path:
        journal = RunJournal(journal_path)
        completed = journal.start(
            fingerprint, log.run_id, resume=resume, force_new=force_new
        )
    execution = dict(
        workers=workers,
        policy=policy,
        journal=journal,
        completed=completed,
        events=log,
    )
    try:
        if backend == "batch":
            results = _execute_batch_jobs(jobs, job_keys, **execution)
        else:
            results = execute_jobs(jobs, keys=job_keys, **execution)
    finally:
        if journal is not None:
            journal.close()

    # A dropped job voids its whole (task set, schemes) pair so every
    # aggregated set still contributes to every scheme.
    failures: Dict[int, List[Tuple[str, str]]] = {}
    set_info: Dict[int, Tuple[Tuple[float, float], int]] = {}
    for (key, scheme, counter, index), outcome in zip(meta, results):
        set_info.setdefault(counter, (key, index))
        if outcome[0] != OK:
            failures.setdefault(counter, []).append((scheme, outcome[1]))

    totals: Dict[Tuple[float, float], Dict[str, List[float]]] = {
        key: {scheme: [] for scheme in schemes} for key, _ in populated
    }
    violations: Dict[Tuple[float, float], Dict[str, int]] = {
        key: {scheme: 0 for scheme in schemes} for key, _ in populated
    }
    payloads: Dict[str, Tuple[float, int]] = {}
    for job_key, (key, scheme, counter, index), outcome in zip(
        job_keys, meta, results
    ):
        if counter in failures or outcome[0] != OK:
            continue
        energy, job_violations = outcome[1]
        totals[key][scheme].append(energy)
        violations[key][scheme] += job_violations
        payloads[job_key] = (energy, job_violations)

    sweep = SweepResult(
        schemes=tuple(schemes),
        reference_scheme=reference_scheme,
        run_id=log.run_id,
        job_payloads=payloads,
    )
    for counter in sorted(failures):
        key, index = set_info[counter]
        failed = failures[counter]
        sweep.dropped.append(
            DroppedSet(
                bin_range=key,
                index=index,
                schemes=tuple(scheme for scheme, _ in failed),
                reason="; ".join(sorted({reason for _, reason in failed})),
            )
        )
    for key, _count in populated:
        aggregated = len(totals[key][reference_scheme])
        if aggregated == 0:
            continue  # every set in the bin was dropped
        mean_energy = {
            scheme: mean(values) for scheme, values in totals[key].items()
        }
        reference = mean_energy[reference_scheme]
        normalized = {
            scheme: (value / reference if reference else 0.0)
            for scheme, value in mean_energy.items()
        }
        intervals = {
            scheme: confidence_interval95(values)
            for scheme, values in totals[key].items()
        }
        sweep.bins.append(
            BinResult(
                bin_range=key,
                taskset_count=aggregated,
                mean_energy=mean_energy,
                normalized_energy=normalized,
                mk_violation_count=violations[key],
                energy_ci95=intervals,
            )
        )
    if validate:
        # Conformance spot-checks on a deterministic, evenly spaced
        # sample of the aggregated sets.  Runs inline in the parent (the
        # auditor needs traces and performs its own differential
        # re-runs); dropped pairs are excluded -- their runs never
        # entered the aggregates.
        candidates: List[Tuple[Tuple[float, float], int, int, TaskSet]] = []
        audit_counter = 0
        for bin_range in bins:
            key = tuple(bin_range)
            for index, taskset in enumerate(tasksets_by_bin.get(key, [])):
                if audit_counter not in failures:
                    candidates.append((key, index, audit_counter, taskset))
                audit_counter += 1
        step = max(1, len(candidates) // validate)
        for key, index, counter, taskset in candidates[::step][:validate]:
            scenario = (
                scenario_factory(counter) if scenario_factory else None
            )
            label = f"u{key[0]:g}-{key[1]:g}|set{index}"
            for scheme in schemes:
                report = audit_scheme(taskset, scheme, scenario, run)
                log.emit(
                    VALIDATE,
                    job=label,
                    scheme=scheme,
                    modes=list(AUDIT_MODES),
                    issues=len(report.issues),
                )
                for audit in report.modes:
                    for issue in audit.issues:
                        sweep.validation_issues.append(
                            SweepValidation(
                                job=label,
                                scheme=scheme,
                                mode=audit.mode,
                                issue=issue,
                            )
                        )
                        log.emit(
                            VALIDATION_ISSUE,
                            job=label,
                            scheme=scheme,
                            mode=audit.mode,
                            issue_kind=issue.kind,
                            detail=issue.detail,
                        )

    log.emit(
        RUN_FINISH,
        completed=sum(1 for outcome in results if outcome[0] == OK),
        dropped=len(sweep.dropped),
    )
    return sweep
