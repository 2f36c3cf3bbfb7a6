"""Property tests for the non-periodic release models.

Pins the semantic contract of :class:`repro.workload.release.ReleaseModel`
and its timeline plumbing:

* every model is *sporadic-legal* -- inter-arrival times never drop below
  the period, and sporadic jitter is bounded by ``floor(jitter * P)``;
* bursty streams really are bursts: ``burst_size`` minimum-separation
  arrivals, then a strictly positive extra gap;
* streams are seed-deterministic, and the periodic model is byte-identical
  to the historical no-model timeline (including the shared-timeline memo,
  which must also never conflate two different models -- the cache-key
  regression);
* stats-only runs on non-periodic timelines reproduce the trace-mode
  reference exactly.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.cache import analysis_cache
from repro.harness.runner import RunSpec
from repro.harness.sweep import utilization_sweep
from repro.schedulers import MKSSDualPriority, MKSSSelective, MKSSStatic
from repro.schedulers.base import run_policy
from repro.sim.timeline import ReleaseTimeline, shared_release_timeline
from repro.workload.generator import TaskSetGenerator
from repro.workload.release import ReleaseModel
from tests.property.test_prop_stats_mode import aligned_taskset, metric_view

POLICIES = (MKSSStatic, MKSSDualPriority, MKSSSelective)


def per_task_arrivals(timeline: ReleaseTimeline):
    """(ticks, jobs) per task index, in release order."""
    streams = {}
    for tick, task, job in zip(timeline.ticks, timeline.tasks, timeline.jobs):
        streams.setdefault(task, []).append((tick, job))
    return streams


def build(taskset, horizon, model):
    return ReleaseTimeline(taskset, horizon, taskset.timebase(), model)


def periodic_arrivals(taskset, horizon):
    """The paper's releases per task: job j at ``(j - 1) * P_i``."""
    base = taskset.timebase()
    streams = {}
    for index, task in enumerate(taskset):
        period = base.to_ticks(task.period)
        streams[index] = [
            (tick, tick // period + 1) for tick in range(0, horizon, period)
        ]
    return streams


class TestArrivalBounds:
    SEEDS = range(8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sporadic_interarrivals_bounded_by_jitter(self, seed):
        taskset = TaskSetGenerator(seed=8100 + seed).generate(0.4)
        jitter = (0.1, 0.3, 0.5)[seed % 3]
        model = ReleaseModel(kind="sporadic", jitter=jitter, seed=seed)
        timeline = build(taskset, 2000, model)
        for index, stream in per_task_arrivals(timeline).items():
            period = timeline.period_ticks[index]
            bound = int(jitter * period)
            ticks = [tick for tick, _ in stream]
            assert ticks[0] == 0  # critical instant kept
            for earlier, later in zip(ticks, ticks[1:]):
                gap = later - earlier
                assert period <= gap <= period + bound
            # 1-based job indices stay consecutive.
            assert [job for _, job in stream] == list(
                range(1, len(stream) + 1)
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bursty_streams_are_bursts(self, seed):
        taskset = TaskSetGenerator(seed=8200 + seed).generate(0.4)
        burst_size = 2 + seed % 3
        model = ReleaseModel(
            kind="bursty", burst_size=burst_size, burst_gap=1.0, seed=seed
        )
        timeline = build(taskset, 3000, model)
        for index, stream in per_task_arrivals(timeline).items():
            period = timeline.period_ticks[index]
            gap_max = max(1, period)
            ticks = [tick for tick, _ in stream]
            assert ticks[0] == 0
            for position, (earlier, later) in enumerate(
                zip(ticks, ticks[1:]), start=1
            ):
                gap = later - earlier
                if position % burst_size:
                    # Inside a burst: exactly minimum separation.
                    assert gap == period
                else:
                    # Between bursts: strictly positive extra gap.
                    assert period + 1 <= gap <= period + gap_max

    @pytest.mark.parametrize("preset", ["light", "bursty", "heavy"])
    def test_never_more_jobs_than_periodic(self, preset):
        taskset = TaskSetGenerator(seed=8300).generate(0.5)
        periodic = build(taskset, 1500, None)
        jittered = build(taskset, 1500, ReleaseModel.preset(preset, seed=1))
        periodic_counts = {
            index: len(stream)
            for index, stream in per_task_arrivals(periodic).items()
        }
        for index, stream in per_task_arrivals(jittered).items():
            assert len(stream) <= periodic_counts[index]


class TestDeterminismAndIdentity:
    def test_same_seed_same_stream(self):
        taskset = TaskSetGenerator(seed=8400).generate(0.4)
        model = ReleaseModel.preset("heavy", seed=9)
        first = build(taskset, 2000, model)
        second = build(taskset, 2000, model)
        assert first.ticks == second.ticks
        assert first.tasks == second.tasks
        assert first.jobs == second.jobs

    def test_different_seeds_differ(self):
        taskset = TaskSetGenerator(seed=8400).generate(0.4)
        first = build(taskset, 2000, ReleaseModel.preset("heavy", seed=0))
        second = build(taskset, 2000, ReleaseModel.preset("heavy", seed=1))
        assert first.ticks != second.ticks

    def test_periodic_model_byte_identical_to_default(self):
        taskset = TaskSetGenerator(seed=8500).generate(0.5)
        bare = build(taskset, 1500, None)
        explicit = build(taskset, 1500, ReleaseModel())
        assert per_task_arrivals(bare) == periodic_arrivals(taskset, 1500)
        assert explicit.ticks == bare.ticks
        assert explicit.tasks == bare.tasks
        assert explicit.jobs == bare.jobs

    def test_periodic_run_identical_through_run_policy(self):
        taskset = TaskSetGenerator(seed=8500).generate(0.5)
        base = taskset.timebase()
        bare = run_policy(taskset, MKSSSelective(), 400, base)
        explicit = run_policy(
            taskset, MKSSSelective(), 400, base, release_model=ReleaseModel()
        )
        assert metric_view(explicit) == metric_view(bare)


class TestSharedTimelineMemo:
    """Satellite: the memo key must carry the model identity."""

    def test_two_models_one_taskset_never_conflated(self):
        taskset = TaskSetGenerator(seed=8600).generate(0.4)
        base = taskset.timebase()
        analysis_cache().clear()
        periodic = shared_release_timeline(taskset, 1000, base)
        light = shared_release_timeline(
            taskset, 1000, base, ReleaseModel.preset("light", seed=2)
        )
        heavy = shared_release_timeline(
            taskset, 1000, base, ReleaseModel.preset("heavy", seed=2)
        )
        assert periodic is not light and light is not heavy
        assert per_task_arrivals(periodic) == periodic_arrivals(taskset, 1000)
        assert light.ticks != periodic.ticks
        assert light.ticks != heavy.ticks
        # Warm hits return the memoized instance per model...
        assert (
            shared_release_timeline(
                taskset, 1000, base, ReleaseModel.preset("light", seed=2)
            )
            is light
        )
        # ...and the periodic entry is untouched by the sporadic ones.
        assert shared_release_timeline(taskset, 1000, base) is periodic

    def test_explicit_periodic_shares_the_default_entry(self):
        taskset = TaskSetGenerator(seed=8600).generate(0.4)
        base = taskset.timebase()
        analysis_cache().clear()
        bare = shared_release_timeline(taskset, 1000, base)
        assert (
            shared_release_timeline(taskset, 1000, base, ReleaseModel())
            is bare
        )

    def test_seed_is_part_of_the_key(self):
        taskset = TaskSetGenerator(seed=8600).generate(0.4)
        base = taskset.timebase()
        seeded = shared_release_timeline(
            taskset, 1000, base, ReleaseModel.preset("light", seed=3)
        )
        reseeded = shared_release_timeline(
            taskset, 1000, base, ReleaseModel.preset("light", seed=4)
        )
        assert seeded is not reseeded


class TestStatsModeOffPeriodic:
    """Stats-only runs on a non-periodic timeline are exact."""

    @pytest.mark.parametrize("policy_cls", POLICIES)
    @pytest.mark.parametrize("preset", ["light", "bursty"])
    def test_stats_sporadic_equals_trace(self, policy_cls, preset):
        taskset = aligned_taskset()
        model = ReleaseModel.preset(preset, seed=5)
        base = taskset.timebase()
        trace = run_policy(
            taskset, policy_cls(), 40 * 20, base,
            collect_trace=True, release_model=model,
        )
        stats = run_policy(
            taskset, policy_cls(), 40 * 20, base,
            collect_trace=False, release_model=model,
        )
        assert metric_view(stats) == metric_view(trace)

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_equals_stats_off_periodic(self, seed):
        taskset = TaskSetGenerator(seed=8700 + seed).generate(
            0.3 + 0.05 * (seed % 4)
        )
        base = taskset.timebase()
        preset = ("light", "bursty", "heavy")[seed % 3]
        model = ReleaseModel.preset(preset, seed=seed)
        policy_cls = POLICIES[seed % len(POLICIES)]
        horizon = 600
        trace = run_policy(
            taskset, policy_cls(), horizon, base,
            collect_trace=True, release_model=model,
        )
        stats = run_policy(
            taskset, policy_cls(), horizon, base,
            collect_trace=False, release_model=model,
        )
        assert metric_view(stats) == metric_view(trace)
        assert trace.trace is not None and stats.trace is None


SWEEP_KW = dict(
    bins=[(0.3, 0.4), (0.6, 0.7)],
    sets_per_bin=2,
    seed=91,
)
RUN = RunSpec(horizon_cap_units=250)


def journal_rows(path):
    """Journal rows with the volatile per-run fields stripped."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            for volatile in ("run_id", "wall_s", "ts"):
                row.pop(volatile, None)
            rows.append(row)
    return rows


class TestSweepIntegration:
    """Release models composed with backends and journals."""

    def test_periodic_sweep_byte_identical_to_default(self, tmp_path):
        """Explicit periodic model: same journal bytes as no model."""
        bare = tmp_path / "bare.jsonl"
        explicit = tmp_path / "explicit.jsonl"
        utilization_sweep(journal_path=str(bare), run=RUN, **SWEEP_KW)
        utilization_sweep(
            journal_path=str(explicit),
            run=replace(
                RUN, release_model=ReleaseModel(), initial_history="met"
            ),
            **SWEEP_KW,
        )
        assert journal_rows(explicit) == journal_rows(bare)

    def test_sporadic_pool_vs_batch_backend(self, tmp_path):
        """Non-periodic jobs fall back per job; payloads stay identical."""
        pytest.importorskip("numpy")
        model = ReleaseModel.preset("light", seed=3)
        pool_path = tmp_path / "pool.jsonl"
        batch_path = tmp_path / "batch.jsonl"
        pool = utilization_sweep(
            journal_path=str(pool_path),
            run=replace(RUN, release_model=model, initial_history="rpattern"),
            **SWEEP_KW,
        )
        batch = utilization_sweep(
            journal_path=str(batch_path),
            backend="batch",
            run=replace(RUN, release_model=model, initial_history="rpattern"),
            **SWEEP_KW,
        )
        assert journal_rows(batch_path) == journal_rows(pool_path)
        assert [b.mean_energy for b in batch.bins] == [
            b.mean_energy for b in pool.bins
        ]

    def test_validate_sampling_passes_off_periodic(self):
        """The conformance auditor holds on sporadic sweeps too."""
        sweep = utilization_sweep(
            validate=2,
            run=replace(
                RUN,
                release_model=ReleaseModel.preset("light", seed=1),
                initial_history="miss",
            ),
            **SWEEP_KW,
        )
        assert not sweep.validation_issues

    def test_different_release_seeds_change_results(self):
        first = utilization_sweep(
            run=replace(
                RUN, release_model=ReleaseModel.preset("heavy", seed=0)
            ),
            **SWEEP_KW,
        )
        second = utilization_sweep(
            run=replace(
                RUN, release_model=ReleaseModel.preset("heavy", seed=1)
            ),
            **SWEEP_KW,
        )
        assert [b.mean_energy for b in first.bins] != [
            b.mean_energy for b in second.bins
        ]
