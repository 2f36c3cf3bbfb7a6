"""End-to-end tests of the sweep-as-a-service server.

These boot the real server as a subprocess (the exact ``repro-mk
serve`` entry point) and drive it over real HTTP, because the
guarantees under test are operational ones:

* a second identical submission is a **cache hit** -- zero simulations
  execute, the stored document is served;
* the queue applies **backpressure** -- a full queue answers ``429``
  with ``Retry-After`` instead of hanging or ballooning;
* a server **killed mid-sweep** (SIGKILL, no cleanup) and restarted on
  the same data directory resumes the sweep from its journal and the
  fetched result is **byte-identical** to a direct, uninterrupted
  :meth:`SweepSpec.run` of the same spec.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.service import SweepSpec, canonical_result_bytes

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Small enough to finish in seconds, big enough (12 simulations) that a
#: throttled run can be killed with work both done and remaining.
SPEC = {
    "faults": "none",
    "bins": [[0.2, 0.3], [0.3, 0.4]],
    "sets_per_bin": 2,
    "horizon_cap_units": 100,
}


def test_spec_stays_on_the_pool():
    # Too narrow for the batch default, so the kill/resume test below
    # still journals the sweep one simulation at a time.
    assert SweepSpec.from_dict(SPEC).backend == "pool"


class Server:
    """One ``repro-mk serve`` subprocess on an ephemeral port."""

    def __init__(self, data_dir, extra_args=()):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--data-dir",
                str(data_dir),
                "--port",
                "0",
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.banner = []
        deadline = time.time() + 30
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(
                    f"server exited early: {''.join(self.banner)}"
                )
            self.banner.append(line)
            if "listening on" in line:
                self.base = line.split("http://")[1].split(" ")[0].strip()
                return
        raise AssertionError("server never printed its listen address")

    def request(self, method, path, body=None, headers=None, timeout=60):
        request = urllib.request.Request(
            f"http://{self.base}{path}",
            method=method,
            data=(
                json.dumps(body).encode("utf-8") if body is not None else None
            ),
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def wait_done(self, job_id, timeout=120):
        deadline = time.time() + timeout
        while time.time() < deadline:
            _, _, body = self.request("GET", f"/v1/sweeps/{job_id}")
            state = json.loads(body)["state"]
            if state in ("done", "failed"):
                return state
            time.sleep(0.1)
        raise AssertionError(f"job {job_id} still not terminal")

    def kill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10)
        self.proc.stdout.close()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


def _count_kind(path, kind, key="kind"):
    """Count records of one kind, tolerating a mid-write partial line."""
    count = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get(key) == kind:
            count += 1
    return count


@pytest.fixture
def data_dir(tmp_path):
    return tmp_path / "service-data"


class TestServiceEndToEnd:
    def test_submit_fetch_and_cache_hit(self, data_dir):
        server = Server(data_dir)
        try:
            status, _, body = server.request("GET", "/healthz")
            assert status == 200

            status, _, body = server.request("POST", "/v1/sweeps", SPEC)
            assert status == 201
            first = json.loads(body)
            assert first["created"] is True
            job_id = first["job_id"]

            assert server.wait_done(job_id) == "done"
            status, _, served = server.request(
                "GET", f"/v1/sweeps/{job_id}/result"
            )
            assert status == 200

            # The served document is byte-identical to a direct run of
            # the same spec -- the service adds caching and transport,
            # never a different answer.
            direct = canonical_result_bytes(
                SweepSpec.from_dict(SPEC).run()
            )
            assert served == direct

            # Event history exists and brackets the run.
            status, headers, stream = server.request(
                "GET", f"/v1/sweeps/{job_id}/events"
            )
            assert status == 200
            assert headers["Content-Type"] == "application/x-ndjson"
            events = [
                json.loads(line)
                for line in stream.decode().splitlines()
                if line.strip()
            ]
            kinds = [event["kind"] for event in events]
            assert kinds[0] == "run_start"
            assert kinds[-1] == "run_finish"
            run_starts_before = kinds.count("run_start")

            # Second identical submission: cache hit, nothing executes.
            status, _, body = server.request("POST", "/v1/sweeps", SPEC)
            assert status == 200
            again = json.loads(body)
            assert again["created"] is False
            assert again["cached"] is True
            assert again["job_id"] == job_id

            status, _, cached = server.request(
                "GET", f"/v1/sweeps/{job_id}/result"
            )
            assert cached == served

            # No new run was started: the event history is unchanged.
            _, _, stream = server.request(
                "GET", f"/v1/sweeps/{job_id}/events"
            )
            kinds = [
                json.loads(line)["kind"]
                for line in stream.decode().splitlines()
                if line.strip()
            ]
            assert kinds.count("run_start") == run_starts_before == 1

            # SSE content negotiation.
            status, headers, stream = server.request(
                "GET",
                f"/v1/sweeps/{job_id}/events",
                headers={"Accept": "text/event-stream"},
            )
            assert headers["Content-Type"] == "text/event-stream"
            assert stream.decode().startswith("event: run_start\n")
        finally:
            server.stop()

    def test_validation_and_missing_job_errors(self, data_dir):
        server = Server(data_dir)
        try:
            status, _, body = server.request(
                "POST", "/v1/sweeps", {**SPEC, "faults": "cosmic"}
            )
            assert status == 400
            assert "faults regime" in json.loads(body)["error"]

            status, _, _ = server.request("GET", "/v1/sweeps/deadbeef")
            assert status == 404

            status, _, _ = server.request(
                "GET", "/v1/sweeps/deadbeef/result"
            )
            assert status == 404
        finally:
            server.stop()

    def test_backpressure_is_429_with_retry_after(self, data_dir):
        # Capacity 1 and a throttled sweep: the first job occupies the
        # queue, the second distinct spec must be refused -- with the
        # retry hint -- not buffered without bound.
        server = Server(
            data_dir,
            extra_args=[
                "--queue-capacity",
                "1",
                "--throttle-s",
                "0.5",
                "--retry-after",
                "7",
            ],
        )
        try:
            status, _, body = server.request("POST", "/v1/sweeps", SPEC)
            assert status == 201
            job_id = json.loads(body)["job_id"]

            other = {**SPEC, "seed": 99}
            status, headers, body = server.request(
                "POST", "/v1/sweeps", other
            )
            assert status == 429
            assert headers["Retry-After"] == "7"
            assert "queue full" in json.loads(body)["error"]

            # Re-submitting the *running* spec is not new work and must
            # still be accepted (idempotent attach), even at capacity.
            status, _, body = server.request("POST", "/v1/sweeps", SPEC)
            assert status == 200
            assert json.loads(body)["created"] is False

            server.wait_done(job_id)
        finally:
            server.stop()

    def test_kill_mid_run_restart_resumes_byte_identical(self, data_dir):
        # Throttle the sweep so each finished simulation takes >=0.4s,
        # kill the server (SIGKILL: no atexit, no cleanup) once some but
        # not all of the 12 simulations are journaled, restart on the
        # same data dir, and require (a) the journal actually resumed
        # (job_skip events; not a silent redo-from-scratch) and (b) the
        # final fetched bytes equal a direct uninterrupted run's.
        server = Server(data_dir, extra_args=["--throttle-s", "0.4"])
        job_id = None
        try:
            status, _, body = server.request("POST", "/v1/sweeps", SPEC)
            assert status == 201
            job_id = json.loads(body)["job_id"]

            events_path = data_dir / "events" / f"{job_id}.jsonl"
            deadline = time.time() + 60
            finished = 0
            while time.time() < deadline:
                if events_path.exists():
                    finished = _count_kind(events_path, "job_finish")
                    if finished >= 2:
                        break
                time.sleep(0.05)
            assert 2 <= finished < 12, (
                f"wanted a mid-run kill, saw {finished} finished jobs"
            )
        finally:
            server.kill()

        journal_path = data_dir / "journals" / f"{job_id}.jsonl"
        journaled = _count_kind(journal_path, "job")
        assert 1 <= journaled < 12

        restarted = Server(data_dir)
        try:
            assert any("recovered 1" in line for line in restarted.banner)
            assert restarted.wait_done(job_id) == "done"

            status, _, served = restarted.request(
                "GET", f"/v1/sweeps/{job_id}/result"
            )
            assert status == 200
            direct = canonical_result_bytes(SweepSpec.from_dict(SPEC).run())
            assert served == direct

            # The second run's events prove a resume: journaled work was
            # skipped, not recomputed.
            _, _, stream = restarted.request(
                "GET", f"/v1/sweeps/{job_id}/events"
            )
            events = [
                json.loads(line)
                for line in stream.decode().splitlines()
                if line.strip()
            ]
            skips = [e for e in events if e["kind"] == "job_skip"]
            assert len(skips) >= journaled
            run_starts = [e for e in events if e["kind"] == "run_start"]
            assert len(run_starts) == 2
            assert run_starts[-1]["data"]["resume"] is True
        finally:
            restarted.stop()
