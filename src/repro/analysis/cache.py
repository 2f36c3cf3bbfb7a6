"""Shared memoization for offline analyses.

Every offline analysis in this package (response times, promotion times,
postponement intervals, analysis horizons) is a pure function of the task
parameters and the tick grid.  Sweeps run the same task set through several
schemes back to back, and the selective/hybrid/dual-priority policies each
re-derive the same quantities in :meth:`prepare`; without memoization the
offline analysis dominates the simulation itself (it was ~60% of
``run_policy`` wall time on the microbenchmark workload).

The cache key is ``(analysis kind, TaskSet.analysis_key(),
ticks_per_unit, *parameters)``.  The analysis key is the task set's
fingerprint -- its analysis-relevant task parameters, exactly -- as the
numerators and denominators of each task's period, deadline and WCET
plus its m and k, so two structurally identical task sets share entries
even across separate :class:`~repro.model.taskset.TaskSet` objects (a
corpus reloaded from the generation store, the copies a sweep worker
unpickles).  Each task set builds its key once and the key hashes once,
so a hit hashes and compares plain ints, never
:class:`~fractions.Fraction` values.

Only calls that are fully described by the key are memoized: analyses
taking an explicit ``patterns`` argument bypass the cache, because pattern
objects carry behaviour, not just data.  Cached results are cloned on the
way out so callers can mutate their copy freely.

The cache is per process, and sweep workers each hold their own
instance.  A sweep submits each (task set, scheme) job as its own
future, so with one worker (or in-process) the second and third scheme
of a set hit the entries the first one filled, but with several workers
a set's schemes may land on different workers, and each of those
repeats the set's analysis: on the documented Figure 6(b) pool panel,
742 misses summed over two workers against 436 with one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Tuple

#: Hashable cache key: (kind, analysis key, ticks_per_unit, *parameters).
CacheKey = Tuple[Any, ...]

#: Marks a key absent from the cache (a cached value may be None).
_MISSING = object()


class AnalysisCache:
    """A small thread-safe LRU cache with hit/miss accounting.

    The lock is *not* held while a miss computes, so cached analyses may
    nest (postponement intervals call promotion times, both memoized).
    Two threads racing on the same missing key may both compute it; the
    results are identical (the analyses are pure), so the race is benign.
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries", "_lock")

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: CacheKey, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and storing on a miss.

        A hit looks the key up once, plus the LRU move.
        """
        with self._lock:
            entries = self._entries
            value = entries.get(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                entries.move_to_end(key)
                return value
            self.misses += 1
        value = compute()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"AnalysisCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_CACHE = AnalysisCache()


def analysis_cache() -> AnalysisCache:
    """The process-wide cache shared by all memoized analyses."""
    return _CACHE


def shared_analysis(kind, taskset, timebase, params, compute):
    """Memoize ``compute()`` under the canonical analysis key.

    The key convention -- ``(kind, TaskSet.analysis_key(), ticks_per_unit,
    *params)`` -- is easy to get subtly wrong at call sites (forgetting the
    tick grid makes structurally equal task sets on different grids share
    an entry); this helper centralizes it.  ``params`` must be a tuple of
    hashable values that, together with the kind, fully describe the call.
    """
    key = (kind, taskset.analysis_key(), timebase.ticks_per_unit, *params)
    return _CACHE.get(key, compute)
