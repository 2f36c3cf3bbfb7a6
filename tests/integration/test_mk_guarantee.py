"""Theorem 1 validation on paper-protocol random workloads.

Theorem 1: if a task set is schedulable under the R-pattern, Algorithm 1
(MKSS_Selective) ensures all (m,k)-deadlines.  We validate it -- and the
same property for the baselines -- on task sets drawn by the paper's own
generation protocol across the utilization range.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import PAPER_SCHEMES, RunSpec, run_scheme
from repro.workload.generator import GeneratorConfig, TaskSetGenerator


@pytest.fixture(scope="module")
def generated_sets():
    config = GeneratorConfig(min_tasks=5, max_tasks=8, max_attempts_per_set=2000)
    generator = TaskSetGenerator(config, seed=1234)
    return [
        generator.generate(target)
        for target in (0.2, 0.4, 0.6, 0.7)
    ]


@pytest.mark.parametrize("scheme", PAPER_SCHEMES + ("MKSS_Greedy",))
def test_no_scheme_violates_mk_on_generated_sets(scheme, generated_sets):
    for taskset in generated_sets:
        outcome = run_scheme(
            taskset, scheme, run=RunSpec(horizon_cap_units=1000)
        )
        assert outcome.metrics.mk_violations == 0, (
            scheme,
            [t.paper_tuple() for t in taskset],
        )


def test_selective_mandatory_jobs_always_duplicated(generated_sets):
    """Every job classified mandatory must have had a backup planned
    (fault-free scenario)."""
    for taskset in generated_sets:
        outcome = run_scheme(
            taskset, "MKSS_Selective", run=RunSpec(horizon_cap_units=500)
        )
        trace = outcome.result.trace
        backup_keys = {
            (s.task_index, s.job_index)
            for s in trace.segments
            if s.role == "backup"
        }
        for record in trace.records.values():
            if record.classified_as != "mandatory":
                key = (record.task_index, record.job_index)
                assert key not in backup_keys


def test_skipped_jobs_never_execute(generated_sets):
    for taskset in generated_sets:
        outcome = run_scheme(
            taskset, "MKSS_Selective", run=RunSpec(horizon_cap_units=500)
        )
        trace = outcome.result.trace
        executed = {(s.task_index, s.job_index) for s in trace.segments}
        for record in trace.records.values():
            if record.classified_as == "skipped":
                assert (record.task_index, record.job_index) not in executed
