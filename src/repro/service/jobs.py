"""The service's job layer: bounded queue, workers, durable resume.

A *job* is one submitted :class:`~repro.service.spec.SweepSpec`,
identified by its digest -- which makes submission idempotent by
construction: re-submitting a spec whose result is stored is a cache
hit (no jobs execute), re-submitting one that is queued or running
simply attaches to the existing job.

Durability comes from reusing the harness's own seams rather than a
separate queue store:

* the **job record** (``jobs/<digest>.json``) is the small metadata
  envelope (spec, tenant, submission time) that survives restarts.  It
  is written once, at submission, and rewritten only to record a
  failure's error; it stores no state;
* the **journal** (``journals/<digest>.jsonl``) is the real work queue:
  every finished (task set, scheme) simulation checkpoints there, so a
  killed server resumes a sweep at the granularity of individual jobs
  and the final document is byte-identical to an uninterrupted run;
* the **result** (``results/<digest>.json``) is the canonical terminal
  artifact; its existence is what "done" means;
* the **event history** (``events/<digest>.jsonl``) replays the run's
  :mod:`repro.harness.events` stream to late-attaching subscribers.

A job's state is derived from these, never stored: a stored result is
``done``, a recorded error is ``failed``, anything else is ``queued``
(``running`` lives only in memory, while a worker executes the sweep).
So finishing a job writes only its result, and a restart writes
nothing.  Not rewriting the record is also what keeps the finish cheap:
replacing a file whose blocks the filesystem has allocated frees them,
which can stall the event loop for tens of milliseconds.

Backpressure is admission control, not queue blocking: when the global
or per-tenant bound is hit, :meth:`JobManager.submit` raises
:class:`QueueFull` and the HTTP layer answers ``429`` with
``Retry-After`` -- clients never hang on a full queue.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..harness.events import GENERATION, JOB_FINISH, EventLog
from ..harness.genstore import GenerationStore
from .config import ServiceConfig
from .spec import SweepSpec
from .store import ResultStore

#: Job lifecycle states, in order.  ``queued`` and ``running`` count
#: against the admission bounds; ``done`` / ``failed`` are terminal.
#: None is stored: a record loads as ``done`` when its result is stored,
#: ``failed`` when it carries an error, and ``queued`` otherwise.
JOB_STATES = ("queued", "running", "done", "failed")

#: Sentinel pushed to subscriber queues when a job reaches a terminal
#: state: the event stream is complete, close the connection.
STREAM_END = None

#: Spec keys of removed execution knobs.  None ever entered a spec
#: digest, so a stored record that still carries one is read without it.
REMOVED_SPEC_KEYS = ("collect_trace", "fold")


class QueueFull(Exception):
    """Admission refused: the global or per-tenant bound is reached."""

    def __init__(self, message: str, retry_after_s: int) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """In-memory state of one submitted sweep."""

    digest: str
    spec: SweepSpec
    tenant: str
    state: str = "queued"
    error: Optional[str] = None
    cached: bool = False
    submitted_at: float = field(default_factory=time.time)
    #: Payload of the sweep's GENERATION event: where the task sets came
    #: from ("cache"/"generated"), generation seconds, and the shared
    #: generation-cache counters (hits / entries / bytes).
    generation: Optional[Dict[str, Any]] = None

    def status(self) -> Dict[str, Any]:
        """The JSON document ``GET /v1/sweeps/<id>`` serves."""
        return {
            "job_id": self.digest,
            "state": self.state,
            "tenant": self.tenant,
            "cached": self.cached,
            "error": self.error,
            "generation": self.generation,
            "spec": self.spec.to_dict(),
            "links": {
                "status": f"/v1/sweeps/{self.digest}",
                "result": f"/v1/sweeps/{self.digest}/result",
                "events": f"/v1/sweeps/{self.digest}/events",
            },
        }


class JobManager:
    """Bounded multi-tenant job queue + worker loop + durable state.

    All public methods except the worker internals run on the event
    loop; the sweep itself runs in a thread via ``run_in_executor`` and
    forwards events back with ``call_soon_threadsafe``, so loop-side
    state (job dict, subscriber lists, event history files) has a single
    writer thread and needs no locks.
    """

    def __init__(
        self, config: ServiceConfig, loop: asyncio.AbstractEventLoop
    ) -> None:
        self.config = config
        self.loop = loop
        self.store = ResultStore(config.path("results"))
        self.genstore = GenerationStore(config.path("tasksets"))
        for sub in ("jobs", "journals", "events"):
            os.makedirs(config.path(sub), exist_ok=True)
        self.jobs: Dict[str, Job] = {}
        self._queue: "asyncio.Queue[str]" = asyncio.Queue()
        self._subscribers: Dict[str, List["asyncio.Queue[Any]"]] = {}
        self._workers: List[asyncio.Task] = []
        self.recovered: List[str] = []
        #: ``"<record file>: <reason>"`` per job record recovery skipped.
        self.skipped: List[str] = []
        self._recover()

    # -- durable job records ------------------------------------------

    def _record_path(self, digest: str) -> str:
        return self.config.path("jobs", f"{digest}.json")

    def _journal_path(self, digest: str) -> str:
        return self.config.path("journals", f"{digest}.jsonl")

    def _events_path(self, digest: str) -> str:
        return self.config.path("events", f"{digest}.jsonl")

    def _persist(self, job: Job) -> None:
        """Write the job's record: at submission, and once on failure."""
        record = {
            "digest": job.digest,
            "spec": job.spec.to_dict(),
            "tenant": job.tenant,
            "error": job.error,
            "submitted_at": job.submitted_at,
        }
        path = self._record_path(job.digest)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp, path)

    def _recover(self) -> None:
        """Reload job records; requeue work interrupted by a shutdown.

        Each record's state is derived, and nothing is written back.  A
        record whose result document exists is ``done`` (the result
        write is the commit point); one that carries an error is
        ``failed`` and stays so until its spec is resubmitted.  Any
        other record is exactly the crash case the journal exists for:
        it goes back on the queue and its sweep resumes from the
        journal.  The ``state`` and ``finished_at`` keys that older
        servers stored are ignored.

        A record written before an execution knob was removed is read
        without that knob (:data:`REMOVED_SPEC_KEYS`).  A record that
        still cannot be read -- broken JSON, a spec this version
        rejects, or one that no longer digests to the record's digest --
        is left on disk, listed in :attr:`skipped`, and otherwise
        ignored: one bad file must not keep the server from starting.
        Its stored result is still served by digest, and resubmitting
        its spec attaches to that result or resumes its journal.
        """
        jobs_dir = self.config.path("jobs")
        for name in sorted(os.listdir(jobs_dir)):
            if not name.endswith(".json"):
                continue
            try:
                job = self._load_record(os.path.join(jobs_dir, name))
            except (OSError, ValueError, KeyError, TypeError,
                    ConfigurationError) as exc:
                self.skipped.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            if job.digest in self.store:
                job.state = "done"
            elif job.error is not None:
                job.state = "failed"
            else:
                self._queue.put_nowait(job.digest)
                self.recovered.append(job.digest)
            self.jobs[job.digest] = job

    @staticmethod
    def _load_record(path: str) -> Job:
        """One job record as a ``queued`` job; raises if unreadable."""
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if not isinstance(record, dict):
            raise TypeError(f"job record is a {type(record).__name__}")
        payload = record["spec"]
        if isinstance(payload, dict):
            payload = {
                key: value
                for key, value in payload.items()
                if key not in REMOVED_SPEC_KEYS
            }
        spec = SweepSpec.from_dict(payload)
        if spec.digest() != record["digest"]:
            raise ValueError(
                f"spec digests to {spec.digest()}, not the record's "
                f"{record['digest']}"
            )
        return Job(
            digest=record["digest"],
            spec=spec,
            tenant=record.get("tenant", "anonymous"),
            error=record.get("error"),
            submitted_at=record.get("submitted_at", 0.0),
        )

    # -- admission -----------------------------------------------------

    def _active_counts(self) -> Tuple[int, Dict[str, int]]:
        total = 0
        by_tenant: Dict[str, int] = {}
        for job in self.jobs.values():
            if job.state in ("queued", "running"):
                total += 1
                by_tenant[job.tenant] = by_tenant.get(job.tenant, 0) + 1
        return total, by_tenant

    def submit(self, spec: SweepSpec, tenant: str = "anonymous") -> Tuple[Job, bool]:
        """Admit a spec; returns ``(job, created)``.

        ``created=False`` covers both flavors of idempotent re-submission:
        a stored result (cache hit -- the job is ``done`` and zero
        simulations run) and attachment to an already queued/running
        job.  Only genuinely new work counts against the bounds.
        """
        digest = spec.digest()
        existing = self.jobs.get(digest)
        if digest in self.store:
            if existing is None:
                existing = Job(digest=digest, spec=spec, tenant=tenant)
                self.jobs[digest] = existing
                if not os.path.exists(self._record_path(digest)):
                    self._persist(existing)
            existing.state = "done"
            existing.error = None
            existing.cached = True
            return existing, False
        if existing is not None and existing.state in ("queued", "running"):
            return existing, False
        total, by_tenant = self._active_counts()
        if total >= self.config.queue_capacity:
            raise QueueFull(
                f"queue full ({total}/{self.config.queue_capacity} jobs "
                "queued or running)",
                self.config.retry_after_s,
            )
        if by_tenant.get(tenant, 0) >= self.config.per_tenant:
            raise QueueFull(
                f"tenant {tenant!r} is at its limit "
                f"({self.config.per_tenant} jobs queued or running)",
                self.config.retry_after_s,
            )
        job = Job(digest=digest, spec=spec, tenant=tenant)
        self.jobs[digest] = job
        self._persist(job)
        self._queue.put_nowait(digest)
        return job, True

    # -- event pub/sub -------------------------------------------------

    def subscribe(self, digest: str) -> Tuple[List[Dict[str, Any]], Optional["asyncio.Queue[Any]"]]:
        """Attach to a job's event stream.

        Returns ``(history, live_queue)``: every event published so far,
        plus a queue of events still to come (``None`` when the job is
        already terminal -- history is the whole story).  Reading the
        history file and registering the queue happen in one loop step
        with no await in between, and the publisher also runs on the
        loop, so no event can fall in the gap or be duplicated.
        """
        history: List[Dict[str, Any]] = []
        try:
            with open(self._events_path(digest), encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        history.append(json.loads(line))
        except FileNotFoundError:
            pass
        job = self.jobs.get(digest)
        if job is None or job.state in ("done", "failed"):
            return history, None
        queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._subscribers.setdefault(digest, []).append(queue)
        return history, queue

    def unsubscribe(self, digest: str, queue: "asyncio.Queue[Any]") -> None:
        queues = self._subscribers.get(digest, [])
        if queue in queues:
            queues.remove(queue)
        if not queues:
            self._subscribers.pop(digest, None)

    def _publish(self, digest: str, event: Dict[str, Any]) -> None:
        """Loop-side event fan-out: append to history, feed subscribers."""
        if event.get("kind") == GENERATION:
            job = self.jobs.get(digest)
            if job is not None:
                job.generation = dict(event.get("data") or {})
        with open(self._events_path(digest), "a", encoding="utf-8") as handle:
            json.dump(event, handle, sort_keys=True)
            handle.write("\n")
        for queue in self._subscribers.get(digest, []):
            queue.put_nowait(event)

    def _finish_stream(self, digest: str) -> None:
        for queue in self._subscribers.pop(digest, []):
            queue.put_nowait(STREAM_END)

    # -- the worker loop ----------------------------------------------

    def start_workers(self) -> None:
        for index in range(self.config.executors):
            self._workers.append(
                self.loop.create_task(
                    self._worker(), name=f"sweep-worker-{index}"
                )
            )

    async def close(self) -> None:
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()

    async def _worker(self) -> None:
        while True:
            digest = await self._queue.get()
            job = self.jobs.get(digest)
            if job is None or job.state not in ("queued",):
                continue
            job.state = "running"
            try:
                sweep = await self.loop.run_in_executor(
                    None, self._run_sweep, job
                )
                self.store.put(digest, sweep)
                job.state = "done"
            except Exception:
                job.state = "failed"
                job.error = traceback.format_exc(limit=8)
                self._persist(job)
            self._finish_stream(digest)

    def _run_sweep(self, job: Job):
        """Execute one job's sweep (runs in a worker thread).

        Events are forwarded to the loop for fan-out; the optional
        ``throttle_s`` sleep paces the sweep *in this thread* after each
        finished simulation so tests can deterministically observe and
        interrupt mid-run states.
        """
        throttle = self.config.throttle_s

        def sink(event) -> None:
            self.loop.call_soon_threadsafe(
                self._publish, job.digest, event.to_dict()
            )
            if throttle and event.kind == JOB_FINISH:
                time.sleep(throttle)

        log = EventLog(sink=sink)
        return job.spec.run(
            workers=self.config.sweep_workers,
            journal_path=self._journal_path(job.digest),
            resume=True,
            force_new=self.config.force_new,
            events=log,
            generation_store=self.genstore,
        )
