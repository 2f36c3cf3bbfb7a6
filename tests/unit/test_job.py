"""Unit tests for repro.model.job."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.model.job import Job, JobRole, JobStatus


def make_job(role=JobRole.MAIN, release=0, deadline=10, wcet=3, processor=0):
    return Job(
        task_index=0,
        job_index=1,
        role=role,
        release=release,
        deadline=deadline,
        wcet=wcet,
        processor=processor,
    )


class TestConstruction:
    def test_defaults(self):
        job = make_job()
        assert job.status is JobStatus.PENDING
        assert job.remaining == 3
        assert job.enqueue_time == 0
        assert job.name == "J1,1"

    def test_postponed_enqueue(self):
        job = Job(0, 1, JobRole.BACKUP, 0, 10, 3, processor=1, enqueue_time=4)
        assert job.enqueue_time == 4

    def test_zero_wcet_rejected(self):
        with pytest.raises(ModelError):
            make_job(wcet=0)

    def test_deadline_before_release_rejected(self):
        with pytest.raises(ModelError):
            make_job(release=5, deadline=4)


class TestLifecycle:
    def test_executed_tracks_remaining(self):
        job = make_job()
        job.remaining = 1
        assert job.executed == 2

    def test_is_finished_states(self):
        job = make_job()
        for status, finished in [
            (JobStatus.PENDING, False),
            (JobStatus.READY, False),
            (JobStatus.RUNNING, False),
            (JobStatus.COMPLETED, True),
            (JobStatus.CANCELED, True),
            (JobStatus.ABANDONED, True),
            (JobStatus.LOST, True),
        ]:
            job.status = status
            assert job.is_finished is finished

    def test_can_finish_by_deadline(self):
        job = make_job(deadline=10, wcet=3)
        assert job.can_finish_by_deadline(7)
        assert not job.can_finish_by_deadline(8)
        job.remaining = 1
        assert job.can_finish_by_deadline(9)


class TestSiblingLink:
    def test_key_identifies_logical_job(self):
        assert make_job().key() == (0, 1)

    def test_repr_is_informative(self):
        text = repr(make_job())
        assert "J1,1" in text and "main" in text
