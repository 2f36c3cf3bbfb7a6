"""Property-based tests for the reference engine's ready queue."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.job import Job, JobRole, JobStatus
from tests.reference_engine import ReadyQueue


def make_job(task_index):
    return Job(task_index, 1, JobRole.MAIN, 0, 10**6, 1, processor=0)


keys = st.tuples(
    st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
)


@settings(max_examples=80, deadline=None)
@given(st.lists(keys, max_size=25))
def test_pop_order_is_sorted_and_fifo_stable(key_list):
    queue = ReadyQueue()
    jobs = []
    for order, key in enumerate(key_list):
        job = make_job(order)
        jobs.append((key, order, job))
        queue.push(key, job)
    popped = []
    while True:
        item = queue.pop()
        if item is None:
            break
        popped.append(item)
    expected = sorted(jobs, key=lambda entry: (entry[0], entry[1]))
    assert [job for _, job in popped] == [job for _, _, job in expected]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(keys, min_size=1, max_size=25),
    st.sets(st.integers(min_value=0, max_value=24)),
)
def test_finished_jobs_never_surface(key_list, finished_positions):
    queue = ReadyQueue()
    jobs = []
    for order, key in enumerate(key_list):
        job = make_job(order)
        if order in finished_positions:
            job.status = JobStatus.CANCELED
        jobs.append(job)
        queue.push(key, job)
    surfaced = set()
    while True:
        item = queue.pop()
        if item is None:
            break
        surfaced.add(item[1].task_index)
    live = {
        order
        for order in range(len(key_list))
        if order not in finished_positions
    }
    assert surfaced == live


@settings(max_examples=80, deadline=None)
@given(st.lists(keys, max_size=25))
def test_len_matches_live_count(key_list):
    queue = ReadyQueue()
    for order, key in enumerate(key_list):
        job = make_job(order)
        if order % 3 == 0:
            job.status = JobStatus.LOST
        queue.push(key, job)
    live = sum(1 for order in range(len(key_list)) if order % 3 != 0)
    assert len(queue) == live
    assert bool(queue) == (live > 0)
