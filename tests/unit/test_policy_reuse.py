"""One policy instance may run any number of task sets, in any order.

A policy is its rules: ``prepare`` derives them afresh for each task set
and the engine keeps every piece of per-run state (alternation toggles,
recovery counts).  An instance that ran before must therefore reproduce
a fresh instance's run exactly -- on the task set it saw, and on
another one with a different (m,k) mix.
"""

from __future__ import annotations

import pytest

from repro.faults.scenario import FaultScenario
from repro.harness.runner import SCHEME_FACTORIES
from repro.schedulers import DistanceBasedPriority, SingleProcessorFP
from repro.schedulers.base import run_policy
from repro.sim.validation import result_ledger
from repro.workload.generator import TaskSetGenerator

FACTORIES = {
    **SCHEME_FACTORIES,
    "FP": SingleProcessorFP,
    "DBP": DistanceBasedPriority,
}

#: Two five-task sets with different (m,k) constraints.
TASKSETS = (
    TaskSetGenerator(seed=7).generate(0.4),
    TaskSetGenerator(seed=3).generate(0.5),
)

#: Transient faults frequent enough that ReExecution_FP's recoveries
#: fire, so a recovery count that outlived its run would show.
SCENARIO = FaultScenario(transient_rate=0.2, seed=11)


def run(taskset, policy):
    base = taskset.timebase()
    return run_policy(
        taskset,
        policy,
        200 * base.ticks_per_unit,
        base,
        SCENARIO,
        collect_trace=False,
    )


@pytest.mark.parametrize("scheme", sorted(FACTORIES))
def test_reused_instance_matches_fresh_ones(scheme):
    factory = FACTORIES[scheme]
    fresh = [result_ledger(run(taskset, factory())) for taskset in TASKSETS]
    assert fresh[0]["transient_faults"] > 0
    reused = factory()
    for index in (0, 1, 0, 1):
        assert result_ledger(run(TASKSETS[index], reused)) == fresh[index], (
            f"run on task set {index}"
        )
