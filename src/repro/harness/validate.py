"""Scheme-aware conformance auditing of harness runs.

:func:`audit_scheme` is the harness-level entry point behind the
``repro-mk validate`` CLI subcommand and the ``--validate`` sampling
hook of :func:`repro.harness.sweep.utilization_sweep`.  For one
(task set, scheme, scenario) it

1. builds the scheme's :class:`~repro.sim.profile.SchemeProfile`, what
   its policy's :meth:`~repro.sim.engine.SchedulingPolicy.prepare`
   returns (the same rules the engine and the batch kernel execute),
2. runs the scheme in **trace** mode and audits the trace against the
   profile (:func:`~repro.sim.validation.audit_result`) and the energy
   report against the DPD rule
   (:func:`~repro.sim.validation.audit_energy`), and
3. re-runs the *same* descriptor stats-only and requires its
   :func:`~repro.sim.validation.result_ledger`, from the counters the
   engine keeps online, to match the trace run's, derived from its
   trace, exactly (cross-mode differential check) -- the trace-less
   fast path is thereby held to the fully audited reference.

Determinism caveat: the differential check re-materializes the fault
scenario once per mode, so the scenario must be reproducible from its
seed (every :class:`~repro.faults.scenario.FaultScenario` in this
package is).  A genuinely nondeterministic scenario would report
spurious ``mode-divergence`` issues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..faults.scenario import FaultScenario
from ..model.taskset import TaskSet
from ..sim.engine import PolicyContext
from ..sim.profile import SchemeProfile
from ..sim.validation import (
    ValidationIssue,
    audit_energy,
    audit_result,
    compare_ledgers,
    result_ledger,
)
from .runner import RunSpec, run_scheme, scheme_factory

#: The execution modes the auditor covers, in audit order: the trace run
#: is the differential reference the stats-only run must match.
AUDIT_MODES = ("trace", "stats")


@dataclass(frozen=True)
class ModeAudit:
    """The audit verdict for one execution mode of one scheme run."""

    mode: str
    issues: Tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class AuditReport:
    """All mode audits of one (task set, scheme, scenario) triple."""

    scheme: str
    modes: Tuple[ModeAudit, ...]

    @property
    def issues(self) -> Tuple[ValidationIssue, ...]:
        """Every issue across all modes, in audit order."""
        return tuple(
            issue for audit in self.modes for issue in audit.issues
        )

    @property
    def ok(self) -> bool:
        return not self.issues


def conformance_spec(taskset: TaskSet, scheme: str, run: RunSpec) -> SchemeProfile:
    """The scheme's rules for this task set, as the auditor checks them:
    the :class:`~repro.sim.profile.SchemeProfile` its policy prepares
    exactly as a run would (same cached horizon)."""
    return scheme_factory(scheme)().prepare(
        PolicyContext(
            taskset=taskset,
            timebase=taskset.timebase(),
            horizon_ticks=run.horizon_ticks(taskset),
        )
    )


def audit_scheme(
    taskset: TaskSet,
    scheme: str,
    scenario: Optional[FaultScenario] = None,
    run: RunSpec = RunSpec(),
) -> AuditReport:
    """Run one scheme in every mode of :data:`AUDIT_MODES` and audit
    each run.

    Args:
        taskset: the task set.
        scheme: a key of :data:`~repro.harness.runner.SCHEME_FACTORIES`.
        scenario: fault scenario (default fault-free); must be
            seed-reproducible, see the module docstring.
        run: the run knobs (:class:`~repro.harness.runner.RunSpec`)
            shared by both modes' runs and by the FD replay of the trace
            audit.  Under DVFS the trace audit also enforces per-segment
            frequency conformance, and the energy audit re-derives the
            speed-aware charge in both modes.

    Returns:
        An :class:`AuditReport` with one :class:`ModeAudit` per mode, in
        :data:`AUDIT_MODES` order.
    """
    profile = conformance_spec(taskset, scheme, run)
    reference = run_scheme(taskset, scheme, scenario, run)
    result = reference.result
    # One DPD verdict memo serves both energy audits of this audit.
    decisions: Dict[int, bool] = {}
    issues = audit_result(result, profile, initial_history=run.initial_history)
    issues += audit_energy(result, reference.energy, decisions)
    trace = ModeAudit(mode="trace", issues=tuple(issues))
    outcome = run_scheme(taskset, scheme, scenario, run, collect_trace=False)
    issues = compare_ledgers(
        result_ledger(result), result_ledger(outcome.result), label="stats"
    )
    issues += audit_energy(outcome.result, outcome.energy, decisions)
    stats = ModeAudit(mode="stats", issues=tuple(issues))
    return AuditReport(scheme=scheme, modes=(trace, stats))
