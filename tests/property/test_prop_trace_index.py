"""Differential tests: a trace index answers as the unindexed queries do.

:class:`~repro.sim.trace.TraceIndex` derives each fact of a trace once
for an audit.  Over trace-mode runs of every registered scheme, with
permanent and transient faults and with DVFS, every indexed answer must
equal the derivation :class:`~repro.sim.trace.ExecutionTrace` makes
without an index: each processor's segments in time order, each
window's busy ticks, idle-gap lengths and per-speed busy ticks, each
task's outcomes in job order, and the (m,k) violations.  A trace
doctored after the run (a segment moved or stretched, a record dropped)
must read the same through a fresh index as through the trace.

:class:`~repro.qos.monitor.MKMonitor` keeps a running window count; it
is checked against a brute-force scan of every window.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from repro.energy.dvfs import DVFS_SCHEMES, DVFSConfig
from repro.faults.scenario import FaultScenario
from repro.harness.runner import SCHEME_FACTORIES, RunSpec, simulate_scheme
from repro.model.mk import MKConstraint
from repro.qos.monitor import MKMonitor, MKViolation, verify_mk
from repro.sim.trace import TraceIndex
from repro.workload.generator import TaskSetGenerator
from repro.workload.presets import fig1_taskset, fig5_taskset

SCHEMES = sorted(SCHEME_FACTORIES)

SCENARIOS = {
    "none": lambda seed: None,
    "permanent": lambda seed: FaultScenario.permanent_only(seed=seed),
    "transient": lambda seed: FaultScenario(transient_rate=0.05, seed=seed),
    "both": lambda seed: FaultScenario.permanent_and_transient(
        seed=seed, rate=0.02
    ),
}


@functools.lru_cache(maxsize=None)
def _taskset(source: int):
    if source == 0:
        return fig1_taskset()
    if source == 1:
        return fig5_taskset()
    return TaskSetGenerator(seed=7000 + source).generate(0.3 + 0.1 * (source % 5))


@st.composite
def traced_runs(draw):
    """A trace-mode run of any registered scheme under any fault regime."""
    taskset = _taskset(draw(st.integers(min_value=0, max_value=5)))
    dvfs = draw(st.booleans())
    scheme = draw(st.sampled_from(DVFS_SCHEMES if dvfs else SCHEMES))
    regime = draw(st.sampled_from(sorted(SCENARIOS)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    run = RunSpec(
        horizon_cap_units=draw(st.sampled_from((40, 150, 400))),
        dvfs=DVFSConfig() if dvfs else None,
    )
    return simulate_scheme(taskset, scheme, SCENARIOS[regime](seed), run)


def _unindexed_window(trace, processor, start, end):
    """A window's facts, from the trace's own unindexed queries."""
    busy = trace.busy_ticks(processor, (start, end))
    gaps = Counter(b - a for a, b in trace.idle_gaps(processor, (start, end)))
    speeds = Counter()
    for segment in trace.segments:
        if segment.processor == processor and segment.speed != 1:
            overlap = segment.overlap_with(start, end)
            if overlap > 0:
                speeds[segment.speed] += overlap
    return busy, dict(gaps), dict(speeds)


def _brute_force_violations(taskset, trace):
    """Every window with fewer than m successes, summed afresh."""
    violations = []
    for task_index, task in enumerate(taskset):
        outcomes = trace.outcomes_for_task(task_index)
        m, k = task.mk.m, task.mk.k
        for end in range(k, len(outcomes) + 1):
            successes = sum(outcomes[end - k : end])
            if successes < m:
                violations.append(MKViolation(task_index, end, successes))
    return violations


def _windows(result, rng):
    """Accounting windows a consumer asks for, plus arbitrary ones."""
    horizon = result.horizon_ticks
    ends = {0, 1, horizon, horizon + 7, rng.randrange(1, horizon + 1)}
    if result.permanent_fault is not None:
        ends.add(min(horizon, result.permanent_fault[1]))
    windows = [(0, end) for end in sorted(ends)]
    start = rng.randrange(0, horizon)
    windows.append((start, start + rng.randrange(0, horizon)))
    return windows


def assert_index_matches(result, rng):
    trace = result.trace
    index = TraceIndex(trace)
    for processor in range(trace.processor_count + 1):
        assert index.segments_on(processor) == trace.segments_on(processor)
        for start, end in _windows(result, rng):
            busy, gaps, speeds = index.window(processor, start, end)
            assert (busy, gaps, speeds) == _unindexed_window(
                trace, processor, start, end
            ), (processor, start, end)
    for task_index in range(len(result.taskset) + 1):
        assert index.outcomes_for_task(task_index) == trace.outcomes_for_task(
            task_index
        )
    expected = _brute_force_violations(result.taskset, trace)
    assert verify_mk(result) == expected


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(traced_runs(), st.randoms(use_true_random=False))
def test_index_answers_equal_unindexed_queries(result, rng):
    assert_index_matches(result, rng)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(traced_runs(), st.randoms(use_true_random=False), st.data())
def test_fresh_index_sees_a_doctored_trace(result, rng, data):
    trace = result.trace
    TraceIndex(trace).segments_on(0)  # an index of the trace as it ran
    segments = trace.segments  # seals open tails; the list is live
    if segments:
        position = data.draw(st.integers(0, len(segments) - 1))
        segment = segments[position]
        start = data.draw(st.integers(0, segment.end - 1))
        segments[position] = dataclasses.replace(
            segment,
            start=start,
            end=segment.end + data.draw(st.integers(0, 5)),
            processor=data.draw(st.sampled_from((0, 1))),
        )
    if trace.records and data.draw(st.booleans()):
        del trace.records[data.draw(st.sampled_from(sorted(trace.records)))]
    assert_index_matches(result, rng)


@pytest.mark.parametrize(
    "case",
    [
        lambda result: result.permanent_fault is not None
        and result.transient_fault_count > 0,
        lambda result: result.speed_plan is not None
        and any(segment.speed != 1 for segment in result.trace.segments),
    ],
    ids=["permanent-and-transient-faults", "dvfs-speeds"],
)
def test_runs_reach_faults_and_speeds(case):
    """The strategy really produces runs with both kinds of faults, and
    runs with scaled segments."""
    find(traced_runs(), case, settings=settings(max_examples=300, database=None))


def test_doctoring_cases_reach_overlaps():
    """The doctored-trace property really produces overlapping segments."""
    trace = simulate_scheme(
        fig1_taskset(), "MKSS_DP", run=RunSpec(horizon_cap_units=20)
    ).trace
    segments = trace.segments
    first = segments[0]
    segments[-1] = dataclasses.replace(
        segments[-1], processor=first.processor, start=first.start
    )
    index = TraceIndex(trace)
    on = index.segments_on(first.processor)
    assert any(b.start < a.end for a, b in zip(on, on[1:]))
    assert index.window(first.processor, 0, 20) == _unindexed_window(
        trace, first.processor, 0, 20
    )


def _monitor_violations(m, k, outcomes):
    monitor = MKMonitor(MKConstraint(m, k))
    for effective in outcomes:
        monitor.record(effective, task_index=3)
    return monitor.violations


def _scanned_violations(m, k, outcomes):
    return [
        MKViolation(3, end, sum(outcomes[end - k : end]))
        for end in range(k, len(outcomes) + 1)
        if sum(outcomes[end - k : end]) < m
    ]


@pytest.mark.parametrize(
    "m,k", [(m, k) for k in range(1, 13) for m in range(1, k + 1)]
)
def test_monitor_matches_brute_force_window_scan(m, k):
    rng = random.Random(m * 100 + k)
    sequences = [[True] * 30, [False] * 30, [True, False] * 15]
    for probability in (0.2, 0.5, 0.8, 0.95):
        for length in (k - 1, k, 2 * k + 3, 40):
            sequences.append([rng.random() < probability for _ in range(length)])
    for outcomes in sequences:
        assert _monitor_violations(m, k, outcomes) == _scanned_violations(
            m, k, outcomes
        ), (m, k, outcomes)
