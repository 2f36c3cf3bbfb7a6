"""Sweep-side generation pipeline: sharded workers, cache, journals."""

import json

import pytest

from repro.harness.events import GENERATION, EventLog
from repro.harness.genstore import GenerationStore, generation_digest
from repro.harness.runner import RunSpec
from repro.harness.sweep import (
    _WORKER_BIN_TASKSETS,
    _WORKER_GEN_COUNTS,
    _WORKER_STORES,
    _WORKER_TASKSETS,
    _run_one,
    utilization_sweep,
)
from repro.workload.fastgen import GenerationStats
from repro.workload.generator import generate_binned_tasksets

BINS = [(0.2, 0.3), (0.5, 0.6)]
SCHEMES = ["MKSS_ST", "MKSS_Selective"]
SWEEP_KW = dict(
    schemes=SCHEMES,
    sets_per_bin=2,
    seed=11,
    run=RunSpec(horizon_cap_units=300),
)


@pytest.fixture(autouse=True)
def _reset_worker_state():
    _WORKER_BIN_TASKSETS.clear()
    _WORKER_TASKSETS.clear()
    _WORKER_STORES.clear()
    for key in _WORKER_GEN_COUNTS:
        _WORKER_GEN_COUNTS[key] = 0
    yield


def _generated(stats=None):
    return generate_binned_tasksets(
        BINS, 2, None, 11, stats=stats or GenerationStats()
    )


def _genbin_job(spec_bins, bin_range, state, index, scheme="MKSS_ST"):
    return (
        "genbin", spec_bins, 2, None, 11, bin_range, state, index, scheme,
        None, RunSpec(horizon_cap_units=300),
    )


class TestShardedWorkerRegeneration:
    def test_worker_regenerates_only_referenced_bins(self):
        # The satellite fix: a worker's generation cost must scale with
        # the bins its jobs reference, never the whole sweep.
        stats = GenerationStats()
        _generated(stats)
        spec_bins = tuple(tuple(b) for b in BINS)
        first = BINS[0]
        state = stats.bin_states[first]
        for index in range(2):
            for scheme in SCHEMES:
                _run_one(_genbin_job(spec_bins, first, state, index, scheme))
        assert _WORKER_GEN_COUNTS == {"bins": 1, "full": 0, "store_bins": 0}
        second = BINS[1]
        _run_one(_genbin_job(spec_bins, second, stats.bin_states[second], 0))
        assert _WORKER_GEN_COUNTS == {"bins": 2, "full": 0, "store_bins": 0}

    def test_genbin_results_match_parent_generation(self):
        stats = GenerationStats()
        corpus = _generated(stats)
        spec_bins = tuple(tuple(b) for b in BINS)
        for bin_range in BINS:
            state = stats.bin_states[bin_range]
            for index, taskset in enumerate(corpus[bin_range]):
                from repro.harness.runner import run_scheme

                expected = run_scheme(
                    taskset,
                    "MKSS_ST",
                    run=RunSpec(horizon_cap_units=300),
                    collect_trace=False,
                )
                got = _run_one(_genbin_job(spec_bins, bin_range, state, index))
                assert got[0] == expected.total_energy
                assert got[1] == expected.metrics.mk_violations

    def test_missing_bin_state_falls_back_to_full_regeneration(self):
        spec_bins = tuple(tuple(b) for b in BINS)
        _run_one(_genbin_job(spec_bins, BINS[0], None, 0))
        assert _WORKER_GEN_COUNTS["full"] == 1
        assert _WORKER_GEN_COUNTS["bins"] == 0

    def test_store_backed_worker_generates_nothing(self, tmp_path):
        root = str(tmp_path / "gen")
        corpus = _generated()
        digest = generation_digest(BINS, 2, None, 11)
        GenerationStore(root).put(digest, corpus)
        spec_bins = tuple(tuple(b) for b in BINS)
        for index in range(2):
            job = (
                "store", root, digest, spec_bins, 2, None, 11, BINS[0],
                index, "MKSS_ST", None, RunSpec(horizon_cap_units=300),
            )
            _run_one(job)
        assert _WORKER_GEN_COUNTS == {
            "bins": 0,
            "full": 0,
            "store_bins": 1,  # loaded once, memoized for the second job
        }

    def test_store_worker_falls_back_when_entry_missing(self, tmp_path):
        root = str(tmp_path / "gen")
        GenerationStore(root)  # empty store
        digest = generation_digest(BINS, 2, None, 11)
        spec_bins = tuple(tuple(b) for b in BINS)
        job = (
            "store", root, digest, spec_bins, 2, None, 11, BINS[0],
            0, "MKSS_ST", None, RunSpec(horizon_cap_units=300),
        )
        _run_one(job)  # absent entry: silent fallback, still correct
        assert _WORKER_GEN_COUNTS["full"] == 1


class TestSweepWithGenerationStore:
    def test_results_identical_with_cache_cold_warm_and_off(self, tmp_path):
        from repro.harness.store import sweep_to_dict

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
        def rows(path):
            out = []
            with open(path) as handle:
                header = json.loads(handle.readline())
                for line in handle:
                    row = json.loads(line)
                    out.append((row["key"], row["value"]))
            return header, out

        off_path = str(tmp_path / "off.jsonl")
        on_path = str(tmp_path / "on.jsonl")
        utilization_sweep(BINS, **SWEEP_KW, journal_path=off_path)
        utilization_sweep(
            BINS,
            **SWEEP_KW,
            journal_path=on_path,
            generation_store=str(tmp_path / "gen"),
        )
        off_header, off_rows = rows(off_path)
        on_header, on_rows = rows(on_path)
        assert off_header["fingerprint"] == on_header["fingerprint"]
        assert off_rows == on_rows

    def test_parallel_sweep_with_store_matches_serial(self, tmp_path):
        from repro.harness.store import sweep_to_dict

        store = GenerationStore(str(tmp_path / "gen"))
        serial = utilization_sweep(BINS, **SWEEP_KW)
        parallel = utilization_sweep(
            BINS, **SWEEP_KW, workers=2, generation_store=store
        )
        assert sweep_to_dict(parallel) == sweep_to_dict(serial)

    def test_parallel_sweep_without_store_matches_serial(self):
        # workers > 1 and no store: genbin descriptors (per-bin RNG
        # replay) must reproduce the parent's corpus exactly.
        from repro.harness.store import sweep_to_dict

        serial = utilization_sweep(BINS, **SWEEP_KW)
        parallel = utilization_sweep(BINS, **SWEEP_KW, workers=2)
        assert sweep_to_dict(parallel) == sweep_to_dict(serial)
