"""Unit tests for the service's job layer: recovery on restart."""

import asyncio
import json
import os

import pytest

from repro.service import ResultStore, ServiceConfig, SweepSpec
from repro.service.jobs import JobManager

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
        # Records are read, not rewritten: every file stays untouched.
        for name in ("broken.json", "moved.json", f"{old.digest()}.json"):
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
