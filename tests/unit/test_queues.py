"""Unit tests for the reference engine's ready queue."""

from __future__ import annotations

from repro.model.job import Job, JobRole, JobStatus
from tests.reference_engine import ReadyQueue


def make_job(task=0, index=1):
    return Job(task, index, JobRole.MAIN, 0, 100, 5, processor=0)


class TestOrdering:
    def test_lower_key_pops_first(self):
        queue = ReadyQueue()
        low = make_job(task=2)
        high = make_job(task=0)
        queue.push((2, 1), low)
        queue.push((0, 1), high)
        assert queue.pop()[1] is high
        assert queue.pop()[1] is low

    def test_fifo_on_equal_keys(self):
        queue = ReadyQueue()
        first = make_job()
        second = make_job()
        queue.push((1, 1), first)
        queue.push((1, 1), second)
        assert queue.pop()[1] is first
        assert queue.pop()[1] is second

    def test_peek_does_not_remove(self):
        queue = ReadyQueue()
        job = make_job()
        queue.push((0, 0), job)
        assert queue.peek()[1] is job
        assert len(queue) == 1


class TestLazyRemoval:
    def test_finished_jobs_skipped(self):
        queue = ReadyQueue()
        dead = make_job(task=0)
        alive = make_job(task=1)
        queue.push((0, 1), dead)
        queue.push((1, 1), alive)
        dead.status = JobStatus.CANCELED
        assert queue.pop()[1] is alive

    def test_len_counts_live_only(self):
        queue = ReadyQueue()
        jobs = [make_job(task=i) for i in range(4)]
        for i, job in enumerate(jobs):
            queue.push((i,), job)
        jobs[0].status = JobStatus.LOST
        jobs[2].status = JobStatus.ABANDONED
        assert len(queue) == 2
        assert {j.task_index for j in queue.live_jobs()} == {1, 3}

    def test_empty_behaviour(self):
        queue = ReadyQueue()
        assert queue.pop() is None
        assert queue.peek() is None
        assert not queue

    def test_bool_after_all_finished(self):
        queue = ReadyQueue()
        job = make_job()
        queue.push((0,), job)
        job.status = JobStatus.COMPLETED
        assert not queue
