"""Property corpus for the conformance auditor: zero issues everywhere.

Every registered scheme, run on generated workloads across fault-free,
permanent-fault, and permanent+transient scenarios, must audit clean in
every execution mode (trace, stats-only): the model-level schedule
invariants hold, each scheme obeys its own declared invariant suite,
the energy report decomposes exactly per the DPD rule, and the
stats-only ledger matches the trace reference bit-for-bit.

A failure here means either an engine/policy bug or an auditor check
that is stricter than the actual scheduling semantics -- both are worth
knowing about, which is the point of running the auditor adversarially
against the whole scheme registry.
"""

from __future__ import annotations

import pytest

from repro.faults.scenario import FaultScenario
from repro.harness.runner import SCHEME_FACTORIES, RunSpec
from repro.harness.validate import audit_scheme
from repro.workload.generator import TaskSetGenerator

SEEDS = range(6)


def _scenario(seed: int):
    """Rotate fault regimes across the corpus, seeded for reproducibility."""
    if seed % 3 == 1:
        return FaultScenario.permanent_only(seed=9000 + seed)
    if seed % 3 == 2:
        return FaultScenario.permanent_and_transient(
            seed=9100 + seed, rate=0.002
        )
    return None


def _workload(seed: int):
    return TaskSetGenerator(seed=3000 + seed).generate(
        0.3 + 0.05 * (seed % 6)
    )


@pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_no_issues_on_generated_workloads(scheme, seed):
    taskset = _workload(seed)
    report = audit_scheme(
        taskset,
        scheme,
        scenario=_scenario(seed),
        run=RunSpec(horizon_cap_units=300),
    )
    assert report.ok, [
        (audit.mode, issue.kind, issue.detail)
        for audit in report.modes
        for issue in audit.issues
    ]


def test_corpus_covers_every_fault_regime():
    regimes = {
        (
            "none"
            if _scenario(seed) is None
            else (
                "permanent+transient"
                if _scenario(seed).transient_rate
                else "permanent"
            )
        )
        for seed in SEEDS
    }
    assert regimes == {"none", "permanent", "permanent+transient"}
