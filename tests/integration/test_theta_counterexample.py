"""Regression test: θ postponement is unsound under dynamic patterns.

A generated workload (paper-protocol, seed 20200309) exposed a real hole
in the paper's Theorem 1 argument: the postponement intervals θ_i
(Definitions 2-5) are computed on the *static* R-pattern alignment, but
the selective scheme's dynamic patterns drift per task.  After a
permanent fault at tick 12173 the survivor, running post-fault releases
at θ offsets, accumulated 1750 ticks of higher-priority interference in a
window the static analysis bounded at 1722 — a mandatory job of the
(30, 30, 6.64, 1, 2) task missed its deadline by 0.28 ms and broke its
(1,2)-constraint.

The promotion time Y_i = D_i − R_i is alignment-independent (per-job
critical instant), so post-fault releases now use Y; this test pins both
the original failure (θ offsets *do* miss) and the fix (the shipped
policies keep all constraints).
"""

from __future__ import annotations

import pytest

from repro.faults.scenario import FaultScenario
from repro.harness.runner import RunSpec, run_scheme
from repro.model.task import Task
from repro.model.taskset import TaskSet

#: The exact generated workload that exposed the hole.
COUNTEREXAMPLE = [
    (5, 5, "19/50", 12, 13),
    (10, 10, "11/100", 5, 7),
    (10, 10, "19/10", 10, 11),
    (12, 12, "9/5", 8, 14),
    (12, 12, "33/100", 9, 11),
    (20, 20, "73/25", 6, 10),
    (24, 24, "173/100", 1, 12),
    (30, 30, "166/25", 1, 2),
    (48, 48, "361/100", 15, 19),
    (50, 50, "63/25", 3, 6),
]

#: The fault draw of FaultScenario.permanent_only(seed=1_000_027).
FAULT = FaultScenario.permanent_only(processor=0, tick=12173)


@pytest.fixture(scope="module")
def workload():
    return TaskSet(
        [Task(p, d, c, m, k) for (p, d, c, m, k) in COUNTEREXAMPLE]
    )


def test_fixed_selective_satisfies_mk(workload):
    outcome = run_scheme(
        workload, "MKSS_Selective", FAULT, RunSpec(horizon_cap_units=1000)
    )
    assert outcome.metrics.mk_violations == 0


def test_fixed_hybrid_satisfies_mk(workload):
    outcome = run_scheme(
        workload, "MKSS_Hybrid", FAULT, RunSpec(horizon_cap_units=1000)
    )
    assert outcome.metrics.mk_violations == 0


def test_theta_offsets_post_fault_do_miss(workload):
    """The paper-literal behaviour (θ offsets after the fault) really does
    violate the constraint here — keep the counterexample alive so the
    finding stays verifiable."""
    import dataclasses

    from repro.schedulers import MKSSSelective
    from repro.schedulers.base import run_policy

    class ThetaAfterFault(MKSSSelective):
        name = "MKSS_Selective_theta_post_fault"

        def prepare(self, ctx):
            # The shipped profile, except that post-fault releases on
            # the spare keep the θ_i backup offset instead of Y_i.
            profile = super().prepare(ctx)
            return dataclasses.replace(
                profile,
                tasks=(
                    dataclasses.replace(
                        rules, postfault_main_offset=(0, rules.backup_offset)
                    )
                    for rules in profile.tasks
                ),
            )

    base = workload.timebase()
    horizon = 1000 * base.ticks_per_unit
    result = run_policy(
        workload, ThetaAfterFault(), horizon, base, FAULT
    )
    assert not result.all_mk_satisfied()


def test_all_paper_schemes_hold_on_counterexample(workload):
    for scheme in ("MKSS_ST", "MKSS_DP", "MKSS_Greedy"):
        outcome = run_scheme(
            workload, scheme, FAULT, RunSpec(horizon_cap_units=1000)
        )
        assert outcome.metrics.mk_violations == 0, scheme
