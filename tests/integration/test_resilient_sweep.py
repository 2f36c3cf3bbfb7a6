"""Integration tests for the resilient sweep execution layer.

Exercises the failure modes a Figure-6-scale campaign actually meets:
a worker killed mid-sweep (SIGKILL / OOM), a hung job exceeding its
timeout, and an interrupted run resumed from its journal.  The toy
workers live at module level so ProcessPoolExecutor can pickle them.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.harness.events import (
    JOB_DROP,
    JOB_RETRY,
    JOB_SKIP,
    POOL_RESPAWN,
    EventLog,
)
from repro.harness.runner import RunSpec
from repro.harness.sweep import (
    DROPPED,
    OK,
    _CRASH_FILE_ENV,
    ExecutionPolicy,
    execute_jobs,
    utilization_sweep,
)
from repro.harness.store import save_sweep, sweep_to_dict

SWEEP_KWARGS = dict(
    bins=[(0.3, 0.4)],
    sets_per_bin=2,
    seed=13,
    run=RunSpec(horizon_cap_units=300),
)


def _sleep_worker(job):
    """Sleeps for the requested duration, then returns it."""
    time.sleep(job)
    return job


def _exit_if_flagged(job):
    """Dies hard (os._exit) while the flag file exists, else echoes."""
    flag, payload = job
    if os.path.exists(flag):
        try:
            os.unlink(flag)
        except OSError:
            pass
        else:
            os._exit(23)
    return payload


class TestWorkerKillIsolation:
    def test_pool_respawns_and_finishes_after_worker_death(self, tmp_path):
        flag = str(tmp_path / "die.flag")
        open(flag, "w").close()
        jobs = [(flag, index) for index in range(6)]
        log = EventLog()
        results = execute_jobs(
            jobs,
            worker=_exit_if_flagged,
            workers=2,
            policy=ExecutionPolicy(max_retries=2),
            events=log,
        )
        # one hard kill, zero lost jobs: everything completes on retry
        assert results == [(OK, index) for index in range(6)]
        assert log.counts()[POOL_RESPAWN] >= 1
        assert log.counts().get(JOB_DROP, 0) == 0

    def test_worker_death_while_queueing_is_retried(
        self, tmp_path, monkeypatch
    ):
        # Hold each submission until its job has run, so the first job
        # kills its worker before the second is queued and submit()
        # itself meets the broken pool.
        from concurrent.futures import ProcessPoolExecutor, wait

        submit = ProcessPoolExecutor.submit

        def submit_and_wait(self, fn, *args, **kwargs):
            future = submit(self, fn, *args, **kwargs)
            wait([future], timeout=30)
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_and_wait)
        flag = str(tmp_path / "die.flag")
        open(flag, "w").close()
        jobs = [(flag, index) for index in range(3)]
        log = EventLog()
        results = execute_jobs(
            jobs, worker=_exit_if_flagged, workers=2, events=log
        )
        assert results == [(OK, index) for index in range(3)]
        assert log.counts()[POOL_RESPAWN] == 1
        assert log.counts()[JOB_RETRY] == 1  # only the job that died
        assert log.counts().get(JOB_DROP, 0) == 0

    def test_repeatedly_dying_jobs_dropped_not_raised(self, tmp_path):
        missing = str(tmp_path / "never-created.flag")
        always = str(tmp_path / "always.flag")

        def rearm(event):
            # re-arm the crash flag after each respawn so the poisoned
            # job can never succeed and must exhaust its retries
            if event.kind == POOL_RESPAWN:
                open(always, "w").close()

        open(always, "w").close()
        jobs = [(always, 0)]
        log = EventLog(sink=rearm)
        results = execute_jobs(
            jobs,
            worker=_exit_if_flagged,
            workers=2,
            policy=ExecutionPolicy(max_retries=1),
            events=log,
        )
        assert results[0][0] == DROPPED
        assert "pool broken" in results[0][1]
        # sanity: a healthy job with no flag file sails through
        assert execute_jobs(
            [(missing, 9)], worker=_exit_if_flagged, workers=2
        ) == [(OK, 9)]


class TestTimeoutIsolation:
    def test_hung_job_retried_then_dropped_others_survive(self):
        jobs = [0.01, 30.0, 0.01]
        log = EventLog()
        results = execute_jobs(
            jobs,
            worker=_sleep_worker,
            workers=2,
            policy=ExecutionPolicy(job_timeout=1.0, max_retries=1),
            events=log,
        )
        assert results[0] == (OK, 0.01)
        assert results[2] == (OK, 0.01)
        tag, reason = results[1]
        assert tag == DROPPED and "timed out" in reason
        assert log.counts()[JOB_RETRY] == 1  # retried once, then dropped
        assert log.counts()[POOL_RESPAWN] == 2
        assert log.counts()[JOB_DROP] == 1


class TestEndToEndSweepResilience:
    def test_sweep_survives_worker_kill_with_identical_result(
        self, tmp_path, monkeypatch
    ):
        reference = utilization_sweep(**SWEEP_KWARGS)
        flag = str(tmp_path / "kill.flag")
        open(flag, "w").close()
        monkeypatch.setenv(_CRASH_FILE_ENV, flag)
        log = EventLog()
        survived = utilization_sweep(workers=2, events=log, **SWEEP_KWARGS)
        assert not os.path.exists(flag)  # a worker really died
        assert log.counts()[POOL_RESPAWN] >= 1
        assert sweep_to_dict(survived) == sweep_to_dict(reference)

    def test_interrupted_parallel_sweep_resumes_identically(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        uninterrupted = utilization_sweep(journal_path=journal, **SWEEP_KWARGS)
        with open(journal) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1 + 6  # header + 2 sets x 3 schemes
        # keep the header and one completed job: a crash after >= 1 job
        with open(journal, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
        log = EventLog()
        resumed = utilization_sweep(
            journal_path=journal,
            resume=True,
            workers=2,
            events=log,
            **SWEEP_KWARGS,
        )
        assert log.counts()[JOB_SKIP] == 1
        assert sweep_to_dict(resumed) == sweep_to_dict(uninterrupted)
        # and the stored artifacts are byte-identical
        full_path = tmp_path / "full.json"
        resumed_path = tmp_path / "resumed.json"
        save_sweep(uninterrupted, str(full_path))
        save_sweep(resumed, str(resumed_path))
        assert full_path.read_bytes() == resumed_path.read_bytes()

    def test_journal_written_during_parallel_run_is_resumable(self, tmp_path):
        journal = str(tmp_path / "parallel.jsonl")
        parallel = utilization_sweep(
            journal_path=journal, workers=2, **SWEEP_KWARGS
        )
        # a parallel journal resumes into a sequential run (keys are
        # worker-count independent) with zero jobs re-run
        log = EventLog()
        resumed = utilization_sweep(
            journal_path=journal, resume=True, events=log, **SWEEP_KWARGS
        )
        assert log.counts()[JOB_SKIP] == 6
        assert log.counts().get("job_start", 0) == 0
        assert sweep_to_dict(resumed) == sweep_to_dict(parallel)


def _always_raises(job):
    """A worker that fails deterministically with a plain exception."""
    raise RuntimeError(f"poisoned job {job}")


@pytest.mark.parametrize("workers", [1, 2])
def test_drop_degrades_never_aborts(workers):
    """Acceptance: exhausted retries drop the job, never raise."""
    log = EventLog()
    results = execute_jobs(
        [1],
        worker=_always_raises,
        workers=workers,
        policy=ExecutionPolicy(max_retries=1),
        events=log,
    )
    assert results[0][0] == DROPPED
    assert "poisoned job 1" in results[0][1]
    assert log.counts()[JOB_DROP] == 1
    assert log.counts()[JOB_RETRY] == 1
