"""Ready queues with priority ordering and lazy removal.

The engine keeps two queues per processor (MJQ and OJQ, the paper's
Algorithm 1).  Jobs are ordered by a key supplied at insertion; removal
(cancellation, abandonment, processor death) is lazy: finished jobs are
skipped on pop, so cancellation is O(1).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..model.job import FINISHED_STATUSES, Job


class ReadyQueue:
    """A priority ready queue of job copies.

    Keys are tuples; smaller = more urgent.  The queue never contains the
    same job twice (re-inserting a preempted job is the caller's job and
    happens after a pop, so the invariant holds naturally).
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

    def head_key(self) -> Optional[tuple]:
        """Priority key of the most urgent live job, or None when empty.

        The engine's dispatcher calls this at every event boundary to
        decide whether the running job must be displaced, so it avoids
        the tuple allocation of :meth:`peek`.
        """
        self._drop_finished()
        if not self._heap:
            return None
        return self._heap[0][0]

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
