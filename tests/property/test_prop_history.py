"""Property-based tests for flexibility degrees (Definition 1)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.history import (
    INITIAL_HISTORY_MODES,
    MKHistory,
    flexibility_degree,
    make_initial_history,
    packed_flexibility_degree,
    packed_initial_window,
    popcount,
)
from repro.model.mk import MKConstraint
from repro.qos.monitor import MKMonitor

mk_pairs = st.integers(min_value=2, max_value=15).flatmap(
    lambda k: st.tuples(st.integers(min_value=1, max_value=k - 1), st.just(k))
)
histories = st.lists(st.booleans(), max_size=30)


@given(mk_pairs, histories)
def test_fd_bounded_by_k_minus_m(pair, history):
    m, k = pair
    fd = flexibility_degree(history, MKConstraint(m, k))
    assert 0 <= fd <= k - m


@given(mk_pairs, histories)
def test_fd_definition_via_bruteforce(pair, history):
    """FD is the max d such that d upcoming misses keep all windows valid."""
    m, k = pair
    mk = MKConstraint(m, k)
    window = ([True] * (k - 1) + list(history))[-(k - 1):] if k > 1 else []

    def misses_ok(d: int) -> bool:
        outcomes = list(window) + [False] * d
        # Only windows that end inside the appended misses matter.
        for end in range(len(window), len(outcomes)):
            segment = outcomes[max(0, end - k + 1) : end + 1]
            # pad on the old side with successes (before time zero)
            padded = [True] * (k - len(segment)) + segment
            if sum(padded) < m:
                return False
        return True

    fd = flexibility_degree(history, mk)
    assert misses_ok(fd)
    assert not misses_ok(fd + 1)


@given(mk_pairs, histories)
def test_success_never_decreases_fd(pair, history):
    m, k = pair
    mk = MKConstraint(m, k)
    before = flexibility_degree(history, mk)
    after = flexibility_degree(list(history) + [True], mk)
    assert after >= before


@given(mk_pairs, histories)
def test_miss_decreases_fd_by_at_most_one(pair, history):
    m, k = pair
    mk = MKConstraint(m, k)
    before = flexibility_degree(history, mk)
    after = flexibility_degree(list(history) + [False], mk)
    assert after >= before - 1


#: Every (m, k) with 1 <= m <= k <= 20 -- k = 1 and hard tasks (m = k)
#: included -- plus windows of 60 (the batch kernel's deepest packing),
#: each with an outcome sequence at least one window long.
mk_runs = st.one_of(
    st.integers(min_value=1, max_value=20).flatmap(
        lambda k: st.tuples(st.integers(min_value=1, max_value=k), st.just(k))
    ),
    st.tuples(st.integers(min_value=1, max_value=60), st.just(60)),
).flatmap(
    lambda pair: st.tuples(
        st.just(pair),
        st.lists(st.booleans(), min_size=pair[1], max_size=3 * pair[1]),
    )
)


@pytest.mark.parametrize("mode", INITIAL_HISTORY_MODES)
@given(mk_runs)
def test_mkhistory_agrees_with_function(mode, run):
    """After every outcome, the three flexibility-degree trackers agree
    -- :class:`MKHistory`, :func:`flexibility_degree` over the seeded
    outcome list, and the packed word the engine keeps -- and the word's
    popcount counts the violated windows :class:`MKMonitor` reports."""
    (m, k), outcomes = run
    mk = MKConstraint(m, k)
    tracker = make_initial_history(mk, mode)
    recorded = list(tracker.outcomes())
    word = packed_initial_window(mk, mode)
    monitor = MKMonitor(mk)
    filled = violations = 0
    for outcome in [None] + outcomes:
        if outcome is not None:
            tracker.record(outcome)
            recorded.append(outcome)
            monitor.record(outcome)
            word = ((word << 1) | outcome) & ((1 << k) - 1)
            filled = min(filled + 1, k)
            violations += filled == k and popcount(word) < m
        fd = tracker.flexibility_degree()
        assert flexibility_degree(recorded, mk) == fd
        assert packed_flexibility_degree(word, m, k) == fd
        assert violations == len(monitor.violations)


@given(mk_pairs)
def test_executing_all_fd_zero_jobs_satisfies_mk(pair):
    """The Theorem 1 invariant at the history level: if every FD=0 job
    succeeds, the (m,k)-constraint holds for any skip behaviour."""
    m, k = pair
    mk = MKConstraint(m, k)
    tracker = MKHistory(mk)
    outcomes = []
    # Adversarially skip every optional job (worst case for the window).
    for _ in range(6 * k):
        if tracker.flexibility_degree() == 0:
            tracker.record(True)
            outcomes.append(True)
        else:
            tracker.record(False)
            outcomes.append(False)
    assert mk.is_satisfied_by(outcomes)
