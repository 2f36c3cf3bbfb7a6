"""Unit tests for the service's job layer: the job record's lifecycle
and recovery on restart."""

import asyncio
import json
import os

import pytest

from repro.service import ResultStore, ServiceConfig, SweepSpec
from repro.service.jobs import STREAM_END, JobManager

SMALL = {
    "faults": "none",
    "bins": [[0.2, 0.3]],
    "sets_per_bin": 1,
    "horizon_cap_units": 50,
}


def _record(spec_doc, digest, state):
    return {
        "digest": digest,
        "spec": spec_doc,
        "tenant": "anonymous",
        "state": state,
        "error": None,
        "submitted_at": 1.0,
        "finished_at": None,
    }


def _manager(config):
    loop = asyncio.new_event_loop()
    try:
        return JobManager(config, loop)
    finally:
        loop.close()


def _run_to_end(config, spec):
    """Submit ``spec`` to a fresh manager on a real loop and run it until
    its event stream ends.  Returns ``(manager, job, record)``, where
    ``record`` is the record's :func:`_snapshot` right after submission."""

    async def main():
        manager = JobManager(config, asyncio.get_running_loop())
        job, created = manager.submit(spec)
        assert created
        record = _snapshot(config.path("jobs", f"{job.digest}.json"))
        _, live = manager.subscribe(job.digest)
        manager.start_workers()
        try:
            while await asyncio.wait_for(live.get(), 120) is not STREAM_END:
                pass
        finally:
            await manager.close()
        return manager, job, record

    return asyncio.run(main())


def _snapshot(path):
    """A file's bytes and the stat fields any rewrite would change."""
    with open(path, "rb") as handle:
        data = handle.read()
    stat = os.stat(path)
    return data, stat.st_ino, stat.st_mtime_ns, stat.st_ctime_ns


def _snapshots(directory):
    return {
        name: _snapshot(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
    }


class TestRecordLifecycle:
    def test_a_finished_job_keeps_its_submission_record(self, tmp_path):
        config = ServiceConfig(data_dir=str(tmp_path))
        spec = SweepSpec.from_dict(SMALL)
        manager, job, submitted = _run_to_end(config, spec)
        assert job.state == "done"
        assert manager.store.get_bytes(job.digest) is not None
        # The result is the commit point: finishing wrote no record.
        assert _snapshot(config.path("jobs", f"{job.digest}.json")) == submitted
        record = json.loads(submitted[0])
        assert record == {
            "digest": job.digest,
            "error": None,
            "spec": spec.to_dict(),
            "submitted_at": job.submitted_at,
            "tenant": "anonymous",
        }
        # A restart derives `done` from the stored result and writes
        # nothing under jobs/.
        jobs_dir = config.path("jobs")
        before = _snapshots(jobs_dir)
        restarted = _manager(config)
        assert _snapshots(jobs_dir) == before
        assert restarted.jobs[job.digest].state == "done"
        assert restarted.recovered == []

    def test_a_failure_is_the_only_rewrite_and_survives_restart(
        self, tmp_path, monkeypatch
    ):
        def broken_run(self, **kwargs):
            raise RuntimeError("sweep exploded")

        config = ServiceConfig(data_dir=str(tmp_path))
        spec = SweepSpec.from_dict(SMALL)
        with monkeypatch.context() as patch:
            patch.setattr(SweepSpec, "run", broken_run)
            manager, job, submitted = _run_to_end(config, spec)
        assert job.state == "failed"
        assert "sweep exploded" in job.error
        assert spec.digest() not in manager.store
        # The failure rewrote the record, adding only the error.
        path = config.path("jobs", f"{job.digest}.json")
        with open(path, encoding="utf-8") as handle:
            failed_record = json.load(handle)
        assert failed_record == dict(json.loads(submitted[0]), error=job.error)

        # After a restart the job is still failed and is not requeued.
        jobs_dir = config.path("jobs")
        before = _snapshots(jobs_dir)
        restarted = _manager(config)
        assert _snapshots(jobs_dir) == before
        assert restarted.recovered == []
        reloaded = restarted.jobs[job.digest]
        assert (reloaded.state, reloaded.error) == ("failed", job.error)

        # Resubmitting queues it again, and a later restart resumes it.
        again, created = restarted.submit(spec)
        assert (created, again.state, again.error) == (True, "queued", None)
        assert _manager(config).recovered == [job.digest]

    def test_a_cache_hit_writes_a_record_only_where_none_exists(self, tmp_path):
        config = ServiceConfig(data_dir=str(tmp_path))
        spec = SweepSpec.from_dict(SMALL)
        other = SweepSpec.from_dict({**SMALL, "seed": 5})
        store = ResultStore(config.path("results"))
        for stored in (spec, other):
            store.put(stored.digest(), stored.run())
        jobs_dir = config.path("jobs")
        os.makedirs(jobs_dir)
        unreadable = os.path.join(jobs_dir, f"{other.digest()}.json")
        with open(unreadable, "w", encoding="utf-8") as handle:
            handle.write("{")
        manager = _manager(config)
        before = _snapshot(unreadable)
        for hit in (spec, other):
            job, created = manager.submit(hit)
            assert (created, job.cached, job.state) == (False, True, "done")
        # The unreadable record stays as it was; the missing one is new.
        assert _snapshot(unreadable) == before
        restarted = _manager(config)
        assert restarted.jobs[spec.digest()].state == "done"
        assert restarted.skipped[0].startswith(f"{other.digest()}.json:")


class TestRecovery:
    @pytest.mark.parametrize("fold", [True, False], ids=["fold-on", "fold-off"])
    def test_unreadable_records_are_skipped_not_fatal(self, tmp_path, fold):
        config = ServiceConfig(data_dir=str(tmp_path))
        jobs_dir = config.path("jobs")
        os.makedirs(jobs_dir)
        good = SweepSpec.from_dict(SMALL)
        # A record written before the `collect_trace` and `fold` knobs
        # were removed, whose sweep had finished: its result is in the
        # store.  No digest ever included either knob, so the record's
        # digest is the one a server with both knobs computed.
        old = SweepSpec.from_dict({**SMALL, "seed": 5})
        assert old.digest() == "214d2082864279848d659922"
        old_doc = dict(old.to_dict(), collect_trace=False, fold=fold)
        # A record whose spec no longer digests to its recorded digest.
        moved = SweepSpec.from_dict({**SMALL, "seed": 6})
        files = {
            f"{good.digest()}.json": json.dumps(
                _record(good.to_dict(), good.digest(), "running")
            ),
            f"{old.digest()}.json": json.dumps(
                _record(old_doc, old.digest(), "done")
            ),
            "moved.json": json.dumps(
                _record(moved.to_dict(), "0" * 24, "done")
            ),
            "broken.json": '{"digest": "abc", "spec": {',
        }
        for name, text in files.items():
            with open(os.path.join(jobs_dir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        ResultStore(config.path("results")).put(old.digest(), old.run())

        manager = _manager(config)

        # The good record recovers, the pre-removal record is read
        # without its removed knob, and the two unreadable ones are
        # reported.
        assert sorted(manager.jobs) == sorted([good.digest(), old.digest()])
        assert manager.recovered == [good.digest()]
        assert manager.jobs[good.digest()].state == "queued"
        assert manager.jobs[old.digest()].state == "done"
        assert manager.jobs[old.digest()].spec == old
        assert sorted(entry.split(":")[0] for entry in manager.skipped) == [
            "broken.json",
            "moved.json",
        ]
        # Records are read, not rewritten: every file stays untouched,
        # the `running` record of the requeued job included.
        for name in files:
            with open(os.path.join(jobs_dir, name), encoding="utf-8") as handle:
                assert handle.read() == files[name]
        # The old job answers by id (status and events) and serves its
        # stored result; resubmitting its spec is a cache hit.
        assert manager.jobs[old.digest()].status()["job_id"] == old.digest()
        history, live = manager.subscribe(old.digest())
        assert live is None
        assert manager.store.get_bytes(old.digest()) is not None
        job, created = manager.submit(old)
        assert (created, job.cached, job.state) == (False, True, "done")
        assert set(_manager(config).jobs) == {good.digest(), old.digest()}
