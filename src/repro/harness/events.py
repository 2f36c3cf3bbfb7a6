"""Structured observability for sweep runs.

Every resilient sweep stamps a ``run_id`` on a stream of typed events --
job lifecycle (start / finish / retry / drop / skip), pool respawns, and
run boundaries -- collected by an :class:`EventLog`.  The log is pure
in-memory data: the harness emits into it, :func:`repro.harness.report.
format_event_summary` renders it, and :meth:`EventLog.write_jsonl`
persists it for offline analysis.  Event payloads are plain JSON-able
dicts so the stream can be replayed or grepped without this package.

Event kinds and their payload conventions:

========================  ====================================================
kind                      payload keys
========================  ====================================================
:data:`RUN_START`         ``jobs``, ``workers``, ``resume``, ``journal``
:data:`GENERATION`        ``source`` (``"cache"``/``"generated"``),
                          ``digest``, ``seconds``, ``sets``, generator
                          counters, cache ``hits``/``entries``/``bytes``
:data:`JOB_START`         ``job``, ``attempt``, ``queue_depth``
:data:`JOB_FINISH`        ``job``, ``attempt``, ``wall_s``, ``progress``
:data:`JOB_RETRY`         ``job``, ``attempt`` (failures so far), ``reason``
:data:`JOB_DROP`          ``job``, ``attempt``, ``reason``, ``progress``
:data:`JOB_SKIP`          ``job``, ``progress`` (already in the journal)
:data:`POOL_RESPAWN`      ``pending`` (jobs resubmitted to the new pool)
:data:`BATCH_PROGRESS`    ``done``, ``total``, ``sims_per_s``; the final
                          one adds ``fallback`` (jobs sent to the scalar
                          engine) and, on the inline ``workers=1`` path,
                          ``iterations`` (lockstep kernel iterations)
:data:`BACKEND_FALLBACK`  ``requested``, ``used``, ``reason``
:data:`VALIDATE`          ``job``, ``scheme``, ``modes``, ``issues``
:data:`VALIDATION_ISSUE`  ``job``, ``scheme``, ``mode``, ``issue_kind``,
                          ``detail``
:data:`RUN_FINISH`        ``completed``, ``dropped``
========================  ====================================================

``queue_depth`` counts jobs not yet finished (including the one the
event is about); ``progress`` is a human-readable ``"<done>/<total>"``.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

RUN_START = "run_start"
GENERATION = "generation"
JOB_START = "job_start"
JOB_FINISH = "job_finish"
JOB_RETRY = "job_retry"
JOB_DROP = "job_drop"
JOB_SKIP = "job_skip"
POOL_RESPAWN = "pool_respawn"
BATCH_PROGRESS = "batch_progress"
BACKEND_FALLBACK = "backend_fallback"
VALIDATE = "validate"
VALIDATION_ISSUE = "validation_issue"
RUN_FINISH = "run_finish"

#: Every kind the harness emits, in rough lifecycle order.
EVENT_KINDS = (
    RUN_START,
    GENERATION,
    JOB_START,
    JOB_FINISH,
    JOB_RETRY,
    JOB_DROP,
    JOB_SKIP,
    POOL_RESPAWN,
    BATCH_PROGRESS,
    BACKEND_FALLBACK,
    VALIDATE,
    VALIDATION_ISSUE,
    RUN_FINISH,
)


@dataclass(frozen=True)
class SweepEvent:
    """One timestamped, run-ID-stamped observation.

    ``timestamp`` is wall-clock time (``time.time``) for humans and log
    correlation; ``elapsed_s`` is the monotonic offset from the log's
    creation.  Durations must be computed from ``elapsed_s`` --
    wall-clock differences go negative or jump under NTP adjustment.
    """

    run_id: str
    seq: int
    kind: str
    timestamp: float
    data: Dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable representation (one journal/JSONL line)."""
        return {
            "run_id": self.run_id,
            "seq": self.seq,
            "kind": self.kind,
            "timestamp": self.timestamp,
            "elapsed_s": self.elapsed_s,
            "data": dict(self.data),
        }


class EventLog:
    """Collects :class:`SweepEvent` objects for one run.

    Args:
        run_id: stable identifier stamped on every event (random when
            omitted).
        sink: optional callable invoked with each event as it is
            emitted -- e.g. ``print`` for live progress, or a queue
            feeding a dashboard.  Sink errors are deliberately not
            swallowed: observability must not silently degrade.
        clock: wall-clock timestamp source (injectable for deterministic
            tests).  Used only for the human-facing ``timestamp`` field,
            never for duration math.
        monotonic: steady clock used for ``elapsed_s`` and every
            duration derived from the stream (:meth:`run_seconds`,
            :meth:`seconds_between`).  ``time.time`` here would make
            durations negative/garbage under NTP adjustment -- the
            default is :func:`time.monotonic` and tests inject jumping
            wall clocks to prove durations do not care.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        sink: Optional[Callable[[SweepEvent], None]] = None,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.events: List[SweepEvent] = []
        self._sink = sink
        self._clock = clock
        self._monotonic = monotonic
        self._epoch = monotonic()

    def emit(self, kind: str, **data: Any) -> SweepEvent:
        """Record one event and forward it to the sink, if any."""
        event = SweepEvent(
            run_id=self.run_id,
            seq=len(self.events),
            kind=kind,
            timestamp=self._clock(),
            data=data,
            elapsed_s=self._monotonic() - self._epoch,
        )
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        return event

    def of_kind(self, kind: str) -> List[SweepEvent]:
        """All events of one kind, in emission order."""
        return [event for event in self.events if event.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Events per kind (kinds never emitted are absent)."""
        tally: Dict[str, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally

    def seconds_between(self, first: SweepEvent, second: SweepEvent) -> float:
        """Steady-clock seconds elapsed from ``first`` to ``second``.

        Uses the events' monotonic ``elapsed_s`` offsets, so the answer
        is immune to wall-clock steps between the two emissions.
        """
        return second.elapsed_s - first.elapsed_s

    def run_seconds(self) -> Optional[float]:
        """Monotonic duration of the run, or None before RUN_FINISH.

        Measured from the first :data:`RUN_START` to the last
        :data:`RUN_FINISH` on the steady clock -- never from wall
        timestamps, which can step backwards under NTP adjustment.
        """
        starts = self.of_kind(RUN_START)
        finishes = self.of_kind(RUN_FINISH)
        if not starts or not finishes:
            return None
        return self.seconds_between(starts[0], finishes[-1])

    def job_wall_seconds(self) -> List[float]:
        """Per-job wall times of every finished job, in finish order."""
        return [
            float(event.data["wall_s"])
            for event in self.of_kind(JOB_FINISH)
            if event.data.get("wall_s") is not None
        ]

    def write_jsonl(self, path: str) -> None:
        """Persist the event stream, one JSON document per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                json.dump(event.to_dict(), handle, sort_keys=True)
                handle.write("\n")
