"""Property-based validation of the postponement analysis (Theorem 1's
appendix claim): backups postponed by θ never miss, on random schedulable
task sets; and the prefix-sum analysis equals the per-job rescan of
``tests/reference_postponement.py`` field for field."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import analysis_cache
from repro.analysis.hyperperiod import analysis_horizon, mk_hyperperiod_ticks
from repro.analysis.postponement import task_postponement_intervals
from repro.analysis.promotion import promotion_times
from repro.analysis.schedulability import (
    is_rpattern_schedulable,
    simulate_mandatory_fp,
)
from repro.model.patterns import EPattern, RotatedPattern, RPattern
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.workload.generator import TaskSetGenerator
from tests.reference_postponement import reference_postponement

COMMON_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def schedulable_tasksets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    tasks = []
    for _ in range(n):
        period = draw(st.sampled_from([4, 5, 6, 8, 10, 12, 20]))
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
        k = draw(st.integers(min_value=2, max_value=6))
        m = draw(st.integers(min_value=1, max_value=k - 1))
        tasks.append(Task(period, period, wcet, m, k))
    tasks.sort(key=lambda t: t.period)
    ts = TaskSet(tasks)
    base = ts.timebase()
    horizon = analysis_horizon(ts, base, 400)
    assume(is_rpattern_schedulable(ts, base, horizon_ticks=horizon))
    return ts


@settings(**COMMON_SETTINGS)
@given(ts=schedulable_tasksets())
def test_theta_postponed_backups_meet_all_deadlines(ts):
    base = ts.timebase()
    horizon = analysis_horizon(ts, base, 400)
    result = task_postponement_intervals(ts, base, horizon_ticks=horizon)
    ok, misses = simulate_mandatory_fp(
        ts, base, horizon_ticks=horizon, release_offsets=result.thetas
    )
    assert ok, (result.thetas, misses)


@settings(**COMMON_SETTINGS)
@given(ts=schedulable_tasksets())
def test_theta_at_least_promotion_time(ts):
    base = ts.timebase()
    horizon = analysis_horizon(ts, base, 400)
    result = task_postponement_intervals(ts, base, horizon_ticks=horizon)
    promotions = promotion_times(ts, base)
    assert all(
        theta >= promo for theta, promo in zip(result.thetas, promotions)
    )


@settings(**COMMON_SETTINGS)
@given(ts=schedulable_tasksets())
def test_promotion_postponed_backups_meet_all_deadlines(ts):
    """The Y-only fallback (MKSS_DP style) is safe as well."""
    base = ts.timebase()
    horizon = analysis_horizon(ts, base, 400)
    promotions = promotion_times(ts, base)
    ok, misses = simulate_mandatory_fp(
        ts, base, horizon_ticks=horizon, release_offsets=promotions
    )
    assert ok, (promotions, misses)


@settings(**COMMON_SETTINGS)
@given(ts=schedulable_tasksets())
def test_highest_priority_theta_is_slack(ts):
    """τ'1 has no interference: θ1 = D1 - C1 exactly."""
    base = ts.timebase()
    horizon = analysis_horizon(ts, base, 400)
    result = task_postponement_intervals(ts, base, horizon_ticks=horizon)
    expected = base.to_ticks(ts[0].deadline) - base.to_ticks(ts[0].wcet)
    assert result.thetas[0] == expected


#: Largest (m,k)-hyperperiod, in ticks, the uncapped properties analyse.
UNCAPPED_LIMIT = 3000


@st.composite
def small_hyperperiod_tasksets(draw):
    """R-pattern schedulable sets whose whole hyperperiod is cheap."""
    n = draw(st.integers(min_value=2, max_value=4))
    tasks = []
    for _ in range(n):
        period = draw(st.sampled_from([4, 5, 6, 8, 10, 12, 20]))
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 2)))
        k = draw(st.integers(min_value=2, max_value=6))
        m = draw(st.integers(min_value=1, max_value=k - 1))
        tasks.append(Task(period, period, wcet, m, k))
    tasks.sort(key=lambda t: t.period)
    ts = TaskSet(tasks)
    base = ts.timebase()
    hyperperiod = mk_hyperperiod_ticks(ts, base)
    assume(hyperperiod <= UNCAPPED_LIMIT)
    assume(is_rpattern_schedulable(ts, base, horizon_ticks=hyperperiod))
    return ts


#: Uncapped θ = [3, 4, 4, 3] missed τ4's jobs 1 and 7 when backups were
#: published only up to each task's own window.
UNCAPPED_COUNTEREXAMPLE = TaskSet(
    [
        Task(4, 4, 1, 1, 2),
        Task(6, 6, 1, 3, 6),
        Task(8, 8, 2, 5, 6),
        Task(12, 12, 4, 1, 6),
    ]
)


@settings(**{**COMMON_SETTINGS, "max_examples": 60})
@given(ts=small_hyperperiod_tasksets())
@example(ts=UNCAPPED_COUNTEREXAMPLE)
def test_uncapped_theta_meets_every_deadline_over_the_hyperperiod(ts):
    base = ts.timebase()
    result = task_postponement_intervals(ts, base)
    ok, misses = simulate_mandatory_fp(
        ts,
        base,
        horizon_ticks=mk_hyperperiod_ticks(ts, base),
        release_offsets=result.thetas,
    )
    assert ok, (result.thetas, misses)


class _ListedPattern:
    """Listed bits, then every job mandatory: not window-periodic."""

    def __init__(self, mk, bits):
        self.mk = mk
        self.bits = bits

    def is_mandatory(self, job_index):
        return job_index > len(self.bits) or self.bits[job_index - 1]


@st.composite
def analysis_inputs(draw):
    """Constrained-deadline sets (D <= P, half-tick WCETs possible), with
    default, R, E, rotated or non-periodic patterns, capped or uncapped,
    floor on/off.  No schedulability filter: the analysis is defined on
    any set."""
    n = draw(st.integers(min_value=1, max_value=4))
    tasks = []
    for _ in range(n):
        period = draw(st.sampled_from([3, 4, 6, 8, 12]))
        deadline = draw(st.integers(min_value=1, max_value=period))
        wcet = Fraction(draw(st.integers(min_value=1, max_value=2 * deadline)), 2)
        k = draw(st.integers(min_value=2, max_value=5))
        m = draw(st.integers(min_value=1, max_value=k - 1))
        tasks.append(Task(period, deadline, wcet, m, k))
    ts = TaskSet(tasks)
    base = ts.timebase()
    hyperperiod = mk_hyperperiod_ticks(ts, base)
    horizon = draw(
        st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=2 * hyperperiod),
        )
    )
    if horizon is None:
        assume(hyperperiod <= UNCAPPED_LIMIT)
    kind = draw(st.sampled_from(["default", "R", "E", "rotated", "listed"]))
    if kind == "default":
        patterns = None
    elif kind == "R":
        patterns = [RPattern(t.mk) for t in ts]
    elif kind == "E":
        patterns = [EPattern(t.mk) for t in ts]
    elif kind == "rotated":
        patterns = [
            RotatedPattern(
                RPattern(t.mk), draw(st.integers(min_value=0, max_value=t.k - 1))
            )
            for t in ts
        ]
    else:
        patterns = [
            _ListedPattern(t.mk, draw(st.lists(st.booleans(), max_size=12)))
            for t in ts
        ]
    return ts, base, patterns, horizon, draw(st.booleans())


@settings(**{**COMMON_SETTINGS, "max_examples": 200})
@given(inputs=analysis_inputs())
def test_prefix_sum_analysis_matches_reference(inputs):
    ts, base, patterns, horizon, floor = inputs
    analysis_cache().clear()
    fast = task_postponement_intervals(ts, base, patterns, horizon, floor)
    reference = reference_postponement(ts, base, patterns, horizon, floor)
    assert fast.thetas == reference.thetas
    assert fast.raw_thetas == reference.raw_thetas
    assert fast.job_thetas == reference.job_thetas
    assert fast.promotions == reference.promotions
    assert fast.horizon == reference.horizon


def test_prefix_sum_analysis_matches_reference_on_generated_sets():
    """Paper-protocol sets: 5-10 tasks, 1/100 ticks, capped horizons."""
    generator = TaskSetGenerator(seed=11)
    for target in (0.25, 0.45, 0.65, 0.8):
        ts = generator.generate(target)
        base = ts.timebase()
        for cap in (150, 600):
            horizon = analysis_horizon(ts, base, cap)
            for floor in (True, False):
                analysis_cache().clear()
                fast = task_postponement_intervals(ts, base, None, horizon, floor)
                assert fast == reference_postponement(
                    ts, base, None, horizon, floor
                )
