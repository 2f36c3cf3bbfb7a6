"""Unit tests for the offline-analysis cache and task-set fingerprints."""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.cache import AnalysisCache, analysis_cache
from repro.analysis.postponement import task_postponement_intervals
from repro.analysis.promotion import promotion_times
from repro.analysis.rta import response_times, response_times_mandatory
from repro.harness.genstore import GenerationStore, generation_digest
from repro.harness.runner import RunSpec
from repro.model.patterns import RPattern
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.workload.generator import generate_binned_tasksets


def sample_taskset():
    return TaskSet(
        [
            Task(5, 5, 1, 1, 2),
            Task(10, 10, 2, 2, 3),
            Task(20, 20, 4, 3, 5),
        ]
    )


class TestAnalysisCache:
    def test_miss_then_hit(self):
        cache = AnalysisCache()
        calls = []
        value = cache.get("key", lambda: calls.append(1) or 42)
        assert value == 42
        assert cache.get("key", lambda: calls.append(1) or 42) == 42
        assert calls == [1]
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = AnalysisCache(maxsize=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("a", lambda: 1)  # refresh a
        cache.get("c", lambda: 3)  # evicts b
        calls = []
        cache.get("b", lambda: calls.append(1) or 2)
        assert calls == [1]
        assert len(cache) == 2

    def test_clear_resets_counters(self):
        cache = AnalysisCache()
        cache.get("a", lambda: 1)
        cache.get("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_module_singleton(self):
        assert analysis_cache() is analysis_cache()


class TestFingerprint:
    def test_equal_parameters_equal_fingerprints(self):
        assert sample_taskset().fingerprint() == sample_taskset().fingerprint()

    def test_names_do_not_matter(self):
        a = TaskSet([Task(5, 5, 1, 1, 2, name="x")])
        b = TaskSet([Task(5, 5, 1, 1, 2, name="y")])
        assert a.fingerprint() == b.fingerprint()

    def test_parameters_do_matter(self):
        a = TaskSet([Task(5, 5, 1, 1, 2)])
        b = TaskSet([Task(5, 5, 1, 2, 2)])
        c = TaskSet([Task(5, 5, 2, 1, 2)])
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_is_cached(self):
        taskset = sample_taskset()
        assert taskset.fingerprint() is taskset.fingerprint()


class TestAnalysisKey:
    def test_reloaded_sets_hit_on_integer_keys(self, tmp_path, monkeypatch):
        bins = [(0.3, 0.4), (0.6, 0.7)]
        corpus = generate_binned_tasksets(bins, 3, None, 5)
        store = GenerationStore(str(tmp_path / "gen"))
        digest = generation_digest(bins, 3, None, 5)
        store.put(digest, corpus)
        originals = [ts for sets in corpus.values() for ts in sets]
        reloaded = [ts for sets in store.get(digest).values() for ts in sets]
        run = RunSpec(horizon_cap_units=200)

        def analyze(taskset):
            horizon = run.horizon_ticks(taskset)
            response_times_mandatory(taskset)
            promotion_times(taskset)
            task_postponement_intervals(taskset, horizon_ticks=horizon)

        cache = analysis_cache()
        cache.clear()
        for taskset in originals:
            analyze(taskset)
        hits, misses = cache.hits, cache.misses
        calls = []
        for name in ("__hash__", "__eq__"):
            real = getattr(Fraction, name)
            monkeypatch.setattr(
                Fraction,
                name,
                lambda self, *other, real=real, name=name: (
                    calls.append(name) or real(self, *other)
                ),
            )
        for taskset in reloaded:
            analyze(taskset)
        monkeypatch.undo()
        assert not any(a is b for a, b in zip(originals, reloaded))
        assert (cache.hits - hits, cache.misses) == (4 * len(reloaded), misses)
        assert calls == []

        # One WCET apart: different keys.  An int period and an equal
        # Fraction period: the same key, and the same hash.
        a = TaskSet([Task(10, 10, 2, 1, 2), Task(20, 20, 3, 2, 3)])
        b = TaskSet([Task(10, 10, 2, 1, 2), Task(20, 20, Fraction(7, 2), 2, 3)])
        c = TaskSet([Task(Fraction(40, 4), 10, 2, 1, 2), Task(20, 20, 3, 2, 3)])
        assert a.analysis_key() != b.analysis_key()
        assert a.analysis_key() == c.analysis_key()
        assert hash(a.analysis_key()) == hash(c.analysis_key())
        assert a.analysis_key() is a.analysis_key()


class TestMemoizedAnalyses:
    def test_postponement_cached_across_equal_tasksets(self):
        cache = analysis_cache()
        cache.clear()
        first = task_postponement_intervals(sample_taskset())
        misses = cache.misses
        second = task_postponement_intervals(sample_taskset())
        assert cache.misses == misses  # pure hit on a distinct object
        assert first.thetas == second.thetas
        assert first.promotions == second.promotions
        assert first.job_thetas == second.job_thetas

    def test_cached_postponement_is_mutation_safe(self):
        cache = analysis_cache()
        cache.clear()
        first = task_postponement_intervals(sample_taskset())
        first.thetas[0] = -999
        first.job_thetas[0].append((99, 99))
        second = task_postponement_intervals(sample_taskset())
        assert second.thetas[0] != -999
        assert (99, 99) not in second.job_thetas[0]

    def test_explicit_patterns_bypass_cache(self):
        taskset = sample_taskset()
        patterns = [RPattern(t.mk) for t in taskset]
        cache = analysis_cache()
        cache.clear()
        task_postponement_intervals(taskset, patterns=patterns)
        # Only the nested (pattern-free) analyses may populate the cache;
        # no "postponement" entry is stored for the explicit-pattern call.
        hits = cache.hits
        task_postponement_intervals(taskset, patterns=patterns)
        result_default = task_postponement_intervals(taskset)
        assert result_default.thetas == task_postponement_intervals(
            taskset, patterns=patterns
        ).thetas
        assert cache.hits >= hits

    def test_promotion_and_rta_return_fresh_lists(self):
        taskset = sample_taskset()
        first = promotion_times(taskset)
        first[0] = -1
        assert promotion_times(taskset)[0] != -1
        rta_first = response_times(taskset)
        rta_first[0] = -1
        assert response_times(taskset)[0] != -1
