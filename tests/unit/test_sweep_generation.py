"""Sweep corpora: the generation store, journals, worker-count identity."""

import json
import pickle

import pytest

from repro.harness.events import GENERATION, EventLog
from repro.harness.genstore import GenerationStore, generation_digest
from repro.harness.runner import RunSpec, run_scheme
from repro.harness.store import sweep_to_dict
from repro.harness.sweep import _run_one, utilization_sweep
from repro.workload.generator import generate_binned_tasksets

BINS = [(0.2, 0.3), (0.5, 0.6)]
SCHEMES = ["MKSS_ST", "MKSS_Selective"]
SWEEP_KW = dict(
    schemes=SCHEMES,
    sets_per_bin=2,
    seed=11,
    run=RunSpec(horizon_cap_units=300),
)


def _generated():
    return generate_binned_tasksets(BINS, 2, None, 11)


def _journal(path):
    """``(header, [(key, value), ...])`` of a sweep journal, in file order."""
    rows = []
    with open(path) as handle:
        header = json.loads(handle.readline())
        for line in handle:
            row = json.loads(line)
            rows.append((row["key"], row["value"]))
    return header, rows


class TestSweepWithGenerationStore:
    def test_results_identical_with_cache_cold_warm_and_off(self, tmp_path):
        store = GenerationStore(str(tmp_path / "gen"))
        plain = utilization_sweep(BINS, **SWEEP_KW)
        cold = utilization_sweep(BINS, **SWEEP_KW, generation_store=store)
        warm = utilization_sweep(BINS, **SWEEP_KW, generation_store=store)
        assert sweep_to_dict(cold) == sweep_to_dict(plain)
        assert sweep_to_dict(warm) == sweep_to_dict(plain)
        assert store.stats()["hits"] == 1

    def test_store_accepts_a_root_path_string(self, tmp_path):
        root = str(tmp_path / "gen")
        log = EventLog()
        utilization_sweep(
            BINS, **SWEEP_KW, generation_store=root, events=log
        )
        assert GenerationStore(root).stats()["entries"] == 1

    def test_generation_event_reports_source_and_cache_stats(self, tmp_path):
        store = GenerationStore(str(tmp_path / "gen"))
        cold_log = EventLog()
        utilization_sweep(
            BINS, **SWEEP_KW, generation_store=store, events=cold_log
        )
        (cold,) = cold_log.of_kind(GENERATION)
        assert cold.data["source"] == "generated"
        assert cold.data["digest"] == generation_digest(BINS, 2, None, 11)
        assert cold.data["draws"] > 0
        assert cold.data["cache_entries"] == 1
        warm_log = EventLog()
        utilization_sweep(
            BINS, **SWEEP_KW, generation_store=store, events=warm_log
        )
        (warm,) = warm_log.of_kind(GENERATION)
        assert warm.data["source"] == "cache"
        assert warm.data["sets"] == cold.data["sets"]
        assert warm.data["cache_hits"] == 1

    def test_generation_event_without_store(self):
        log = EventLog()
        utilization_sweep(BINS, **SWEEP_KW, events=log)
        (event,) = log.of_kind(GENERATION)
        assert event.data["source"] == "generated"
        assert "cache_entries" not in event.data

    def test_supplied_tasksets_skip_generation_event(self):
        corpus = _generated()
        log = EventLog()
        utilization_sweep(
            BINS, **SWEEP_KW, tasksets_by_bin=corpus, events=log
        )
        assert log.of_kind(GENERATION) == []

    def test_journal_rows_identical_with_cache_on_and_off(self, tmp_path):
        # The cache is an execution knob: journal keys and payloads (the
        # resumable content; wall times naturally differ) must match.
        off_path = str(tmp_path / "off.jsonl")
        on_path = str(tmp_path / "on.jsonl")
        utilization_sweep(BINS, **SWEEP_KW, journal_path=off_path)
        utilization_sweep(
            BINS,
            **SWEEP_KW,
            journal_path=on_path,
            generation_store=str(tmp_path / "gen"),
        )
        off_header, off_rows = _journal(off_path)
        on_header, on_rows = _journal(on_path)
        assert off_header["fingerprint"] == on_header["fingerprint"]
        assert off_rows == on_rows

    def test_parallel_sweep_with_store_matches_serial(self, tmp_path):
        store = GenerationStore(str(tmp_path / "gen"))
        serial = utilization_sweep(BINS, **SWEEP_KW)
        parallel = utilization_sweep(
            BINS, **SWEEP_KW, workers=2, generation_store=store
        )
        assert sweep_to_dict(parallel) == sweep_to_dict(serial)

    def test_parallel_sweep_without_store_matches_serial(self):
        # workers > 1 and no store: the parent generates the corpus once
        # and ships each job its task set, so the workers run exactly the
        # sets a serial sweep runs.
        serial = utilization_sweep(BINS, **SWEEP_KW)
        parallel = utilization_sweep(BINS, **SWEEP_KW, workers=2)
        assert sweep_to_dict(parallel) == sweep_to_dict(serial)


def test_pickled_job_runs_the_shipped_taskset():
    # A pool worker receives the pickled (taskset, scheme, scenario, run)
    # descriptor; its payload must be the scalar run of that very set.
    run = RunSpec(horizon_cap_units=300)
    for tasksets in _generated().values():
        for taskset in tasksets:
            job = pickle.loads(pickle.dumps((taskset, "MKSS_DP", None, run)))
            expected = run_scheme(
                taskset, "MKSS_DP", None, run, collect_trace=False
            )
            assert _run_one(job) == (
                expected.total_energy,
                expected.metrics.mk_violations,
            )


@pytest.mark.parametrize("backend", ["pool", "batch"])
@pytest.mark.parametrize("source", ["supplied", "generated", "generated+store"])
def test_two_workers_match_one(tmp_path, source, backend):
    # Every corpus source ships the same (taskset, scheme, scenario, run)
    # jobs to the pool, so the worker count is invisible in the stored
    # document and in the journal.  The store run at workers=2 loads the
    # corpus the workers=1 run stored.
    if backend == "batch":
        pytest.importorskip("numpy", reason="the batch backend requires numpy")

    def run(workers):
        kwargs = dict(SWEEP_KW, workers=workers, backend=backend)
        if source == "supplied":
            kwargs["tasksets_by_bin"] = _generated()
        elif source == "generated+store":
            kwargs["generation_store"] = str(tmp_path / "gen")
        path = str(tmp_path / f"workers{workers}.jsonl")
        sweep = utilization_sweep(BINS, journal_path=path, **kwargs)
        header, rows = _journal(path)
        return sweep_to_dict(sweep), header["fingerprint"], sorted(rows)

    one = run(1)
    assert len(one[2]) == 2 * len(BINS) * len(SCHEMES)
    assert run(2) == one
