"""The ``serve`` workload: ``repro-mk serve`` on a fresh data dir, driven
over HTTP by one closed-loop client with one connection at a time.

Every HTTP request is one attempted operation; a non-2xx answer (a 429
included) is one failed operation and is never retried.  Every cold
result's simulations are attempted operations too, and a result document
that fails its checks -- or a cache hit whose bytes differ from the cold
result -- is one failed operation.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import hostclock
from checks import check_document, count_sims
from common import (
    HERE,
    MAX_SERVE_SEEDS,
    REFERENCE_SEED,
    SERVE_FAULTS,
    Tally,
    derived_seed,
    load_expected,
    median,
    serve_spec,
)
from tracer import attributed_seconds, layer_metrics

#: Start-up-only server launches after each seed, for a steady setup_s.
PROBES_PER_SEED = 2
#: Cache-hit re-submissions after each cold job.
HITS_PER_COLD = 80
#: The traced run's fixed plan, so its counts repeat exactly on a seed
#: (6 cold jobs and 1002 hits: enough for a p99 with 10 samples beyond).
TRACE_SEEDS = 2
TRACE_HITS_PER_COLD = 167
REQUEST_TIMEOUT_S = 120


class Server:
    """One ``serve`` process with one executor and ``sweep_workers=1``.

    Untraced, it runs under the host clock (clocked_server.py), whose
    samples :meth:`samples` reads once the server has stopped; traced,
    under the span wrappers (traced_server.py).
    """

    def __init__(self, data_dir: str, env: Dict[str, str], spans_path: Optional[str] = None,
                 extra: Tuple[str, ...] = ()) -> None:
        args = ["serve", "--data-dir", data_dir, "--port", "0",
                "--executors", "1", "--sweep-workers", "1", *extra]
        self.clock_path = data_dir + ".clock.json"
        if spans_path is None:
            command = [sys.executable, os.path.join(HERE, "clocked_server.py"),
                       self.clock_path, *args]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_server.py"), spans_path, *args]
        self._stderr = open(data_dir + ".stderr", "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        self.port = 0
        for line in self.proc.stdout:
            if line.startswith("listening on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                break
        self.listening_at = time.monotonic()
        if not self.port:
            self.stop()
            raise RuntimeError(f"server did not start: {command}")

    def samples(self) -> List[Tuple[float, float]]:
        with open(self.clock_path, encoding="utf-8") as handle:
            return [tuple(sample) for sample in json.load(handle)]

    def setup_s(self, samples) -> float:
        """Spawn to the ``listening on`` banner, in reference seconds."""
        return hostclock.reference_seconds(samples, self.spawned, self.listening_at)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self._stderr.close()


class Client:
    """One connection at a time; every request counted in the tally."""

    def __init__(self, port: int, tally: Tally) -> None:
        self.port = port
        self.tally = tally
        self.rejected = 0

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            conn.request(method, path, body=payload, headers={"X-Tenant": "bench"})
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            print(f"request failed: {method} {path}: {exc}", file=sys.stderr)
            status, data = 0, b""
        finally:
            conn.close()
        ok = 200 <= status < 300
        if status == 429:
            self.rejected += 1
        if not ok:
            print(f"{method} {path} -> {status}: {data[:200]!r}", file=sys.stderr)
        self.tally.record(1, ok)
        return status, data


class ColdJob:
    def __init__(self, spec: Dict[str, Any], expected: Optional[str]) -> None:
        self.spec = spec
        self.expected = expected
        self.job_id = ""
        self.payload = b""
        self.latency_s = 0.0
        self.submit_ms = 0.0
        self.fetch_ms = 0.0
        self.posted_at = 0.0
        self.sims = 0


def run_cold(client: Client, job: ColdJob) -> bool:
    """Submit, follow the event stream to run_finish, fetch the result."""
    job.posted_at = started = time.monotonic()
    status, body = client.request("POST", "/v1/sweeps", job.spec)
    job.submit_ms = (time.monotonic() - started) * 1000.0
    if status != 201:
        if 200 <= status < 300:  # a cold spec must create new work
            client.tally.record(0, ok=False)
        return False
    job.job_id = json.loads(body)["job_id"]
    status, stream = client.request("GET", f"/v1/sweeps/{job.job_id}/events")
    if status != 200:
        return False
    kinds = [json.loads(line)["kind"] for line in stream.splitlines() if line.strip()]
    if "run_finish" not in kinds:
        print(f"{job.job_id}: event stream ended without run_finish", file=sys.stderr)
        client.tally.record(0, ok=False)
        return False
    fetch_started = time.monotonic()
    status, job.payload = client.request("GET", f"/v1/sweeps/{job.job_id}/result")
    job.latency_s = time.monotonic() - started
    job.fetch_ms = (time.monotonic() - fetch_started) * 1000.0
    if status != 200:
        return False
    problems = check_document(
        job.payload,
        job.expected,
        allow_violations=job.spec["faults"] == "transient"
        and job.spec["seed"] != REFERENCE_SEED,
    )
    for problem in problems[:5]:
        print(f"check failed: {job.spec}: {problem}", file=sys.stderr)
    job.sims = count_sims(job.payload)
    client.tally.record(job.sims, ok=not problems)
    return not problems


def run_hit(client: Client, job: ColdJob) -> Optional[float]:
    """Re-submit a finished spec (a cache hit) and fetch its result."""
    started = time.monotonic()
    status, body = client.request("POST", "/v1/sweeps", job.spec)
    if status != 200:
        return None
    document = json.loads(body)
    if not document.get("cached") or document.get("created"):
        print(f"{job.job_id}: re-submission was not a cache hit", file=sys.stderr)
        client.tally.record(0, ok=False)
        return None
    status, payload = client.request("GET", f"/v1/sweeps/{job.job_id}/result")
    latency = time.monotonic() - started
    if status != 200:
        return None
    if payload != job.payload:
        print(f"{job.job_id}: cache hit bytes differ from the cold result", file=sys.stderr)
        client.tally.record(0, ok=False)
        return None
    return latency


def _expected_digest(seed: int, index: int, faults: str) -> Optional[str]:
    if seed != REFERENCE_SEED:
        return None
    return load_expected()["serve"][f"{derived_seed(seed, index)}/{faults}"]


def drive(client: Client, seed: int, cold_until: float, max_seeds: int,
          hits_per_cold: int, between_seeds=None) -> Dict[str, Any]:
    """The client's plan: whole seeds of cold panels while they fit before
    ``cold_until`` (at least one).  After each cold job it sends
    ``hits_per_cold`` round-robin cache-hit re-submissions of the jobs so
    far, so hit samples span the whole run instead of one host phase;
    ``between_seeds()`` runs while the server is idle after each seed."""
    cold: List[ColdJob] = []
    hits: List[float] = []
    seed_walls: List[float] = []
    started = time.monotonic()
    position = 0
    for index in range(max_seeds):
        seed_started = time.monotonic()
        for faults in SERVE_FAULTS:
            job = ColdJob(serve_spec(derived_seed(seed, index), faults),
                          _expected_digest(seed, index, faults))
            if run_cold(client, job):
                cold.append(job)
            for _ in range(hits_per_cold if cold else 0):
                latency = run_hit(client, cold[position % len(cold)])
                position += 1
                if latency is not None:
                    hits.append(latency)
        seed_walls.append(time.monotonic() - seed_started)
        if between_seeds is not None:
            between_seeds()
        if time.monotonic() + median(seed_walls) > cold_until:
            break
    return {"cold": cold, "hits": hits, "wall_s": time.monotonic() - started,
            "seeds": len(seed_walls)}


def _fresh(tmp: str, name: str) -> str:
    path = os.path.join(tmp, name)
    os.makedirs(path)
    return path


def run(workload: str, seed: int, seconds: float, tmp: str, env: Dict[str, str],
        tally: Tally) -> Dict[str, float]:
    """End-to-end metrics of one untraced run, timed in reference seconds
    by the servers' host clocks.  ``sims_per_s`` is the cold simulations
    over the sum of the cold-job latencies."""
    setup = []

    def probe() -> None:
        for _ in range(PROBES_PER_SEED):
            server = Server(_fresh(tmp, f"probe{len(setup)}"), env)
            server.stop()
            setup.append(server.setup_s(server.samples()))

    server = Server(_fresh(tmp, "data"), env)
    try:
        plan = drive(Client(server.port, tally), seed, time.monotonic() + seconds,
                     MAX_SERVE_SEEDS, HITS_PER_COLD, probe)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    samples = server.samples()
    setup.append(server.setup_s(samples))
    cold = plan["cold"]
    by_seed: Dict[int, List[Tuple[int, float, float]]] = {}
    for job in cold:
        done = job.posted_at + job.latency_s
        by_seed.setdefault(job.spec["seed"], []).append((
            job.sims,
            hostclock.reference_seconds(samples, job.posted_at, done),
            done - job.posted_at - hostclock.probe_seconds(samples, job.posted_at, done),
        ))
    rates = [sum(sims for sims, _, _ in jobs) / sum(ref for _, ref, _ in jobs)
             for jobs in by_seed.values()]
    walls = [sum(sims for sims, _, _ in jobs) / sum(wall for _, _, wall in jobs)
             for jobs in by_seed.values()]
    latencies = [job.latency_s for job in cold]
    print(f"serve: {plan['seeds']} seed(s) at "
          + " ".join(f"{rate:.2f}" for rate in rates)
          + " sims per reference second; wall "
          + " ".join(f"{rate:.2f}" for rate in walls)
          + f" sims/s; {len(cold)} cold job(s) "
          f"(median {median(latencies):.3f} s: "
          + " ".join(f"{latency:.2f}" for latency in latencies)
          + f"), {len(plan['hits'])} hit(s) (median {median(plan['hits']) * 1000.0:.3f} ms), "
          f"{len(setup)} cold start(s)")
    jobs = [job for seed_jobs in by_seed.values() for job in seed_jobs]
    return {
        "sims_per_s": (sum(sims for sims, _, _ in jobs) / sum(ref for _, ref, _ in jobs)
                       if jobs else 0.0),
        "setup_s": median(setup),
        "peak_rss_mb": rss,
    }


def _fixed_plan(tmp: str, name: str, seed: int, env: Dict[str, str], tally: Tally,
                spans_path: Optional[str] = None) -> Tuple[Dict[str, Any], Client]:
    server = Server(_fresh(tmp, name), env, spans_path)
    client = Client(server.port, tally)
    try:
        plan = drive(client, seed, float("inf"), TRACE_SEEDS, TRACE_HITS_PER_COLD)
    finally:
        server.stop()
    return plan, client


def run_traced(workload: str, seed: int, tmp: str, env: Dict[str, str],
               tally: Tally) -> Dict[str, float]:
    """Per-layer metrics: the fixed plan untraced, then traced."""
    plain, _ = _fixed_plan(tmp, "plain", seed, env, tally)
    spans_path = os.path.join(tmp, "spans.json")
    traced, client = _fixed_plan(tmp, "traced", seed, env, tally, spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        dumps = [json.load(handle)]
    metrics = layer_metrics(dumps)
    cold = traced["cold"]
    runs = sorted(
        (start / 1e9, (end - start) / 1e9)
        for spans in dumps[0]["threads"]
        for name, start, end, _, _ in spans
        if name == "service.run"
    )
    hits = sorted(traced["hits"])
    submissions = len(cold) + len(hits)
    metrics.update({
        "service.job_latency_s": median([job.latency_s for job in cold]),
        "service.submit_ms": median([job.submit_ms for job in cold]),
        "service.queue_wait_s": median(
            [start - job.posted_at for (start, _), job in zip(runs, cold)]
        ),
        "service.run_s": median([duration for _, duration in runs]),
        "service.fetch_ms": median([job.fetch_ms for job in cold]),
        "service.hit_ms_p50": median(hits) * 1000.0,
        "service.hit_ms_p99": hits[int(0.99 * (len(hits) - 1))] * 1000.0 if hits else 0.0,
        "service.hit_ratio": len(hits) / submissions if submissions else 0.0,
        "service.rejected": client.rejected,
        "trace_overhead": traced["wall_s"] / plain["wall_s"] - 1.0,
        "unattributed_s": traced["wall_s"] - attributed_seconds(dumps),
    })
    return metrics
