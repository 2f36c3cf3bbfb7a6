"""Spans around the public calls of each repro layer, from outside the package.

:func:`install` imports the package and replaces the timed functions and
methods with wrappers (every module that imported a function by name gets
the wrapper too).  Each wrapped call records one span -- name, start, end,
and the enclosing span -- in a per-thread list kept in memory;
:meth:`Recorder.dump` writes them all as JSON when the traced process
ends.  :func:`layer_metrics` turns dumps into the per-layer metrics: a
layer's time is its spans' *self* time (duration minus the time covered
by spans nested inside), so the layer times partition the traced wall.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.monotonic_ns

#: Analysis-cache key kinds -> the per-layer metric their misses go to.
ANALYSIS_KINDS = {
    "horizon": "analysis.horizon_s",
    "release_timeline": "analysis.timeline_s",
    "rta": "analysis.rta_s",
    "rta-mandatory": "analysis.rta_s",
    "promotion": "analysis.promotion_s",
    "postponement": "analysis.postponement_s",
}


#: Service metrics measured by the HTTP client rather than by spans.
CLIENT_METRICS = (
    "service.job_latency_s",
    "service.submit_ms",
    "service.queue_wait_s",
    "service.run_s",
    "service.fetch_ms",
    "service.hit_ms_p50",
    "service.hit_ms_p99",
    "service.hit_ratio",
    "service.rejected",
)


class Recorder:
    """In-memory spans, one list per thread; nothing is written until dump()."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: List[List[list]] = []
        self.generation: List[Dict[str, Any]] = []

    def _state(self):
        local = self._local
        try:
            return local.stack, local.spans
        except AttributeError:
            local.stack, local.spans = [], []
            with self._lock:
                self.threads.append(local.spans)
            return local.stack, local.spans

    def wrap(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``extra(result)`` is an int
        stored on the span (a count the layer metrics sum)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._state()
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
            if extra is not None:
                span[4] = extra(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"threads": self.threads, "generation": self.generation}, handle)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every timed public call of the package (import it first)."""
    import repro.cli  # noqa: F401  (imports every layer the CLI uses)
    from repro.analysis.cache import AnalysisCache
    from repro.energy import accounting
    from repro.faults.scenario import FaultScenario
    from repro.faults.transient import PoissonTransientFaults
    from repro.harness import sweep, validate
    from repro.harness.events import GENERATION, EventLog
    from repro.harness.genstore import GenerationStore
    from repro.harness.journal import RunJournal
    from repro.qos import metrics
    from repro.service.spec import SweepSpec
    from repro.service.store import ResultStore
    from repro.sim import batch
    from repro.sim.engine import SchedulingPolicy, StandbySparingEngine
    from repro.workload import generator

    wrap = recorder.wrap
    for module, attr, span, extra in (
        (generator, "generate_binned_tasksets", "workload.generate", None),
        (accounting, "energy_of_result", "energy.account", None),
        (metrics, "collect_metrics", "qos.metrics", None),
        (validate, "audit_scheme", "validate.audit", lambda r: len(r.issues)),
        (batch, "build_batch_item", "sim.batch_build", lambda r: int(r is None)),
        (batch, "run_batch_payloads", "sim.batch_kernel", lambda r: len(r)),
        (sweep, "utilization_sweep", "harness.sweep", None),
    ):
        original = getattr(module, attr)
        _replace_everywhere(original, wrap(span, original, extra))

    for cls, attr, span, extra in (
        (StandbySparingEngine, "run", "sim.engine", lambda r: r.released_jobs),
        (FaultScenario, "materialize", "faults.materialize", None),
        (PoissonTransientFaults, "job_faulted", "faults.oracle", lambda r: int(r)),
        (RunJournal, "record", "harness.journal", None),
        (GenerationStore, "get", "harness.genstore", lambda r: int(r is not None)),
        (GenerationStore, "put", "harness.genstore", None),
        (SweepSpec, "run", "service.run", None),
        (ResultStore, "put", "service.store", None),
        (ResultStore, "get_bytes", "service.store", None),
    ):
        setattr(cls, attr, wrap(span, getattr(cls, attr), extra))

    policies = {SchedulingPolicy}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for value in vars(module).values():
                if isinstance(value, type) and issubclass(value, SchedulingPolicy):
                    policies.add(value)
    for cls in policies:
        if "prepare" in vars(cls):
            cls.prepare = wrap("schedulers.prepare", cls.prepare)

    cache_get = AnalysisCache.get

    def get(self, key, compute):
        # Only a miss calls compute(): the span covers exactly the analysis.
        return cache_get(
            self,
            key,
            wrap(f"analysis.{key[0]}", compute),
        )

    AnalysisCache.get = wrap("analysis.lookup", get)

    emit = EventLog.emit

    def emit_recording(self, kind, **data):
        if kind == GENERATION:
            recorder.generation.append(dict(data))
        return emit(self, kind, **data)

    EventLog.emit = emit_recording


def summarize(dumps: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed extra, and self seconds."""
    table: Dict[str, Dict[str, float]] = {}
    for dump in dumps:
        for spans in dump["threads"]:
            child_ns = [0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for (name, start, end, _, extra), covered in zip(spans, child_ns):
                row = table.setdefault(name, {"calls": 0, "extra": 0, "self_s": 0.0})
                row["calls"] += 1
                row["extra"] += extra
                row["self_s"] += (end - start - covered) / 1e9
    return table


def layer_metrics(dumps: List[Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics measured inside traced processes.

    ``analysis.lookup`` spans wrap every cache lookup: their calls count
    lookups, and misses are the nested ``analysis.<kind>`` spans.  The
    service metrics timed by the client are added by the serve workload.
    """
    table = summarize(dumps)

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0, "extra": 0, "self_s": 0.0})

    generation = [g for dump in dumps for g in dump["generation"] if g.get("source") == "generated"]
    draws = sum(g.get("draws", 0) for g in generation)
    admitted = sum(g.get("admitted", 0) for g in generation)
    lookups = row("analysis.lookup")["calls"]
    misses = sum(
        entry["calls"] for name, entry in table.items()
        if name.startswith("analysis.") and name != "analysis.lookup"
    )
    engine = row("sim.engine")
    builds = row("sim.batch_build")
    kernel = row("sim.batch_kernel")
    oracle = row("faults.oracle")
    genstore = row("harness.genstore")
    out: Dict[str, float] = {
        "workload.generate_s": row("workload.generate")["self_s"],
        "workload.draws": draws,
        "workload.admission_tests": sum(g.get("admission_tests", 0) for g in generation),
        "workload.accept_ratio": admitted / draws if draws else 0.0,
        "analysis.cache_hits": lookups - misses,
        "analysis.cache_misses": misses,
        "analysis.hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "schedulers.prepare_s": row("schedulers.prepare")["self_s"],
        "sim.engine_s": engine["self_s"],
        "sim.engine_runs": engine["calls"],
        "sim.jobs_released": engine["extra"],
        "sim.engine_us_per_job": (
            engine["self_s"] / engine["extra"] * 1e6 if engine["extra"] else 0.0
        ),
        "sim.batch_build_s": builds["self_s"],
        "sim.batch_kernel_s": kernel["self_s"],
        "sim.batch_items": kernel["extra"],
        "sim.batch_fallback_ratio": builds["extra"] / builds["calls"] if builds["calls"] else 0.0,
        "sim.batch_us_per_sim": (
            kernel["self_s"] / kernel["extra"] * 1e6 if kernel["extra"] else 0.0
        ),
        "faults.materialize_s": row("faults.materialize")["self_s"],
        "faults.oracle_calls": oracle["calls"],
        "faults.oracle_s": oracle["self_s"],
        "faults.transients": oracle["extra"],
        "energy.account_s": row("energy.account")["self_s"],
        "qos.metrics_s": row("qos.metrics")["self_s"],
        "validate.audit_s": row("validate.audit")["self_s"],
        "validate.audits": row("validate.audit")["calls"],
        "validate.issues": row("validate.audit")["extra"],
        "harness.journal_s": row("harness.journal")["self_s"],
        "harness.journal_rows": row("harness.journal")["calls"],
        "harness.genstore_s": genstore["self_s"],
        "harness.genstore_hits": genstore["extra"],
        "harness.sweep_self_s": row("harness.sweep")["self_s"],
        "service.store_s": row("service.store")["self_s"],
    }
    # Timed by the serve workload's client; no other workload has one.
    for name in CLIENT_METRICS:
        out[name] = 0.0
    for kind, metric in ANALYSIS_KINDS.items():
        out.setdefault(metric, 0.0)
        out[metric] += row(f"analysis.{kind}")["self_s"]
    return out


def attributed_seconds(dumps: List[Dict[str, Any]]) -> float:
    """Self time of every span: the part of the wall some layer claims."""
    return sum(entry["self_s"] for entry in summarize(dumps).values())

