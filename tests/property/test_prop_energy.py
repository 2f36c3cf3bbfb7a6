"""Property-based tests for energy accounting."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.energy.accounting import energy_from_counts, energy_of
from repro.energy.dpd import shutdown_decision, sleep_threshold_ticks
from repro.energy.power import PowerModel
from repro.model.job import Job, JobRole
from repro.sim.trace import ExecutionTrace
from repro.timebase import TimeBase


@st.composite
def traces(draw):
    """Random non-overlapping segment layouts on two processors."""
    trace = ExecutionTrace()
    for processor in (0, 1):
        cursor = 0
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            gap = draw(st.integers(min_value=0, max_value=6))
            length = draw(st.integers(min_value=1, max_value=7))
            start = cursor + gap
            end = start + length
            job = Job(0, 1, JobRole.MAIN, 0, 10**6, length, processor=processor)
            trace.add_segment(processor, start, end, job)
            cursor = end
    return trace


@settings(max_examples=60, deadline=None)
@given(traces(), st.integers(min_value=1, max_value=80))
def test_busy_idle_sleep_partition_the_window(trace, horizon):
    """busy + idle + sleep == horizon, exactly, per processor."""
    model = PowerModel(idle_power=0.2, sleep_power=0.01, break_even=Fraction(2))
    report = energy_of(trace, TimeBase(1), horizon, model)
    for processor in (0, 1):
        entry = report.per_processor[processor]
        assert (
            entry.busy_units + entry.idle_units + entry.sleep_units == horizon
        )


@settings(max_examples=60, deadline=None)
@given(traces(), st.integers(min_value=1, max_value=80))
def test_active_energy_equals_windowed_busy_time(trace, horizon):
    report = energy_of(trace, TimeBase(1), horizon, PowerModel.active_only())
    assert report.active_units == trace.busy_ticks(None, window=(0, horizon))


@settings(max_examples=60, deadline=None)
@given(traces(), st.integers(min_value=1, max_value=80))
def test_total_energy_monotone_in_idle_power(trace, horizon):
    low = energy_of(
        trace,
        TimeBase(1),
        horizon,
        PowerModel(idle_power=0.1, sleep_power=0.0, break_even=Fraction(2)),
    )
    high = energy_of(
        trace,
        TimeBase(1),
        horizon,
        PowerModel(idle_power=0.4, sleep_power=0.0, break_even=Fraction(2)),
    )
    assert high.total_energy >= low.total_energy - 1e-12


@settings(max_examples=60, deadline=None)
@given(traces(), st.integers(min_value=1, max_value=80))
def test_sleep_never_costs_more_than_idle(trace, horizon):
    """Allowing DPD (break_even 0) can only reduce total energy relative
    to forbidding it (break_even larger than any gap)."""
    with_dpd = energy_of(
        trace,
        TimeBase(1),
        horizon,
        PowerModel(idle_power=0.3, sleep_power=0.0, break_even=Fraction(0)),
    )
    without = energy_of(
        trace,
        TimeBase(1),
        horizon,
        PowerModel(idle_power=0.3, sleep_power=0.0, break_even=Fraction(10**6)),
    )
    assert with_dpd.total_energy <= without.total_energy + 1e-12


_POWERS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.01, 0.1, 0.25, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=10.0),
)


@st.composite
def power_models(draw):
    """Power models over every branch of the DPD rule.

    Idle power above, equal to or below sleep power; zero and non-zero
    transition energy; zero and fractional break-even times.
    """
    idle = draw(_POWERS)
    relation = draw(st.sampled_from(["below", "equal", "above"]))
    if relation == "equal":
        sleep = idle
    elif relation == "below":
        sleep = draw(st.floats(min_value=0.0, max_value=idle))
    else:
        sleep = idle + draw(_POWERS)
    return PowerModel(
        idle_power=idle,
        sleep_power=sleep,
        transition_energy=draw(_POWERS),
        break_even=draw(
            st.one_of(
                st.just(Fraction(0)),
                st.fractions(min_value=0, max_value=8, max_denominator=64),
            )
        ),
    )


def _probe_lengths(bound, extra):
    """Gap lengths around the threshold, small ones, and drawn ones."""
    lengths = set(range(1, 33)) | set(extra)
    if bound is not None:
        lengths |= {bound - 1, bound, bound + 1, 2 * bound + 7}
    else:
        lengths |= {10**6, 10**18}
    return sorted(length for length in lengths if length >= 1)


@settings(max_examples=300, deadline=None)
@given(
    power_models(),
    st.integers(min_value=1, max_value=1024),
    st.lists(st.integers(min_value=1, max_value=10**7), max_size=8),
)
# Fractional T_be * q and E_tr * q / (P_i - P_s): a ceil in place of the
# floor moves the threshold up by one tick and misclassifies that gap.
@example(
    PowerModel(idle_power=0.1, sleep_power=0.0, break_even=Fraction(1, 3)),
    1,
    [],
)
@example(
    PowerModel(
        idle_power=3.0, sleep_power=0.0, transition_energy=1.0,
        break_even=Fraction(0),
    ),
    1,
    [],
)
def test_threshold_matches_shutdown_decision(model, ticks_per_unit, extra):
    """One int compare per gap decides exactly as the Fraction rule."""
    bound = sleep_threshold_ticks(model, ticks_per_unit)
    for length in _probe_lengths(bound, extra):
        expected = shutdown_decision(Fraction(length, ticks_per_unit), model)
        assert (bound is not None and length > bound) == expected, (
            length,
            bound,
        )


@settings(max_examples=100, deadline=None)
@given(
    power_models(),
    st.integers(min_value=1, max_value=1024),
    st.lists(
        st.dictionaries(
            st.integers(min_value=1, max_value=5000),
            st.integers(min_value=1, max_value=50),
            max_size=12,
        ),
        min_size=2,
        max_size=2,
    ),
)
def test_counts_account_matches_per_gap_rule(model, ticks_per_unit, counts):
    """The tick-sum account equals a per-gap Fraction account, bit for bit."""
    base = TimeBase(ticks_per_unit)
    report = energy_from_counts([0, 0], counts, base, model)
    for processor, gaps in enumerate(counts):
        idle = sleep = Fraction(0)
        transitions = 0
        for length in sorted(gaps):
            units = base.from_ticks(length)
            if shutdown_decision(units, model):
                sleep += units * gaps[length]
                transitions += gaps[length]
            else:
                idle += units * gaps[length]
        entry = report.per_processor[processor]
        assert (entry.idle_units, entry.sleep_units) == (idle, sleep)
        assert entry.transition_count == transitions
        assert entry.idle_energy == float(idle) * model.idle_power
        assert entry.sleep_energy == (
            float(sleep) * model.sleep_power
            + transitions * model.transition_energy
        )
