"""Unit tests for the service's job layer: recovery on restart."""

import asyncio
import json
import os

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
    def test_unreadable_records_are_skipped_not_fatal(self, tmp_path):
        config = ServiceConfig(data_dir=str(tmp_path))
        jobs_dir = config.path("jobs")
        os.makedirs(jobs_dir)
        good = SweepSpec.from_dict(SMALL)
        # A record written before the `collect_trace` knob was removed,
        # whose sweep had finished: its result is in the store.
        old = SweepSpec.from_dict({**SMALL, "seed": 5})
        old_doc = dict(old.to_dict(), collect_trace=False)
        files = {
            f"{good.digest()}.json": json.dumps(
                _record(good.to_dict(), good.digest(), "running")
            ),
            f"{old.digest()}.json": json.dumps(
                _record(old_doc, old.digest(), "done")
            ),
            "broken.json": '{"digest": "abc", "spec": {',
        }
        for name, text in files.items():
            with open(os.path.join(jobs_dir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        ResultStore(config.path("results")).put(old.digest(), old.run())

        manager = _manager(config)

        # The good record recovers; the two unreadable ones are reported.
        assert list(manager.jobs) == [good.digest()]
        assert manager.recovered == [good.digest()]
        assert manager.jobs[good.digest()].state == "queued"
        assert sorted(entry.split(":")[0] for entry in manager.skipped) == sorted(
            ["broken.json", f"{old.digest()}.json"]
        )
        # Skipped records stay on disk untouched.
        for name in ("broken.json", f"{old.digest()}.json"):
            with open(os.path.join(jobs_dir, name), encoding="utf-8") as handle:
                assert handle.read() == files[name]
        # The old job's result is still served by digest, and resubmitting
        # its spec (without the removed knob) is a cache hit that rewrites
        # the record in the current format.
        assert manager.store.get_bytes(old.digest()) is not None
        job, created = manager.submit(old)
        assert (created, job.cached, job.state) == (False, True, "done")
        assert set(_manager(config).jobs) == {good.digest(), old.digest()}
