"""Running one scheme on one task set under one fault scenario.

The evaluation's three approaches are registered in
:data:`SCHEME_FACTORIES` by their paper names; ablation schemes are
registered alongside so the ablation benches can sweep them with the same
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..analysis.cache import analysis_cache
from ..analysis.hyperperiod import analysis_horizon
from ..energy.accounting import EnergyReport, energy_of_result
from ..energy.dvfs import resolve_dvfs, speed_plan_for
from ..energy.power import PowerModel
from ..errors import UnknownSchemeError
from ..faults.scenario import FaultScenario
from ..model.taskset import TaskSet
from ..qos.metrics import QoSMetrics, collect_metrics
from ..schedulers import (
    MKSSDualPriority,
    MKSSGreedy,
    MKSSHybrid,
    MKSSSelective,
    MKSSStatic,
    ReExecutionFP,
)
from ..schedulers.base import run_policy
from ..sim.engine import SchedulingPolicy, SimulationResult
from ..sim.timeline import shared_release_timeline

#: Factories for every registered scheme (fresh policy per run).
SCHEME_FACTORIES: Dict[str, Callable[[], SchedulingPolicy]] = {
    "MKSS_ST": MKSSStatic,
    "MKSS_DP": MKSSDualPriority,
    "MKSS_Selective": MKSSSelective,
    "MKSS_Greedy": MKSSGreedy,
    "MKSS_Selective_NoAlt": lambda: MKSSSelective(alternate=False),
    "MKSS_Selective_FD2": lambda: MKSSSelective(fd_threshold=2),
    "MKSS_Selective_NoTheta": lambda: MKSSSelective(
        use_theta_postponement=False
    ),
    "MKSS_Hybrid": MKSSHybrid,
    "ReExecution_FP": ReExecutionFP,
}

#: The three approaches of the paper's Section V, in presentation order.
PAPER_SCHEMES = ("MKSS_ST", "MKSS_DP", "MKSS_Selective")


@dataclass
class RunOutcome:
    """One (task set, scheme, scenario) execution with derived metrics."""

    scheme: str
    result: SimulationResult
    energy: EnergyReport
    metrics: QoSMetrics

    @property
    def total_energy(self) -> float:
        return self.energy.total_energy


def run_scheme(
    taskset: TaskSet,
    scheme: str,
    scenario: Optional[FaultScenario] = None,
    horizon_cap_units: int = 2000,
    power_model: Optional[PowerModel] = None,
    execution_time_fn=None,
    collect_trace: bool = True,
    release_model=None,
    initial_history: str = "met",
    dvfs=None,
) -> RunOutcome:
    """Simulate one scheme and account its energy and QoS.

    Args:
        taskset: the task set.
        scheme: a key of :data:`SCHEME_FACTORIES`.
        scenario: fault scenario (default fault-free).
        horizon_cap_units: horizon cap in model time units; the actual
            horizon is min((m,k)-hyperperiod, cap).
        power_model: energy model (default: the paper's evaluation model).
        execution_time_fn: optional actual-execution-time model
            (see :mod:`repro.workload.acet`); None charges full WCETs.
        collect_trace: False runs stats-only -- same energy and metrics,
            no trace.
        release_model: arrival process
            (:class:`~repro.workload.release.ReleaseModel`); None keeps
            the paper's periodic releases.
        initial_history: (m,k)-history boundary condition, one of
            :data:`repro.model.history.INITIAL_HISTORY_MODES`.
        dvfs: deadline-safe frequency scaling
            (:class:`~repro.energy.dvfs.DVFSConfig` or its dict form);
            None -- or a config whose critical speed is 1 -- runs at
            full speed.  Only applies to the schemes the config names
            (the standby-sparing trio by default); other schemes run
            unscaled.
    """
    try:
        factory = SCHEME_FACTORIES[scheme]
    except KeyError as exc:
        raise UnknownSchemeError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEME_FACTORIES)}"
        ) from exc
    base = taskset.timebase()
    horizon = analysis_cache().get(
        ("horizon", taskset.fingerprint(), base.ticks_per_unit, horizon_cap_units),
        lambda: analysis_horizon(taskset, base, horizon_cap_units),
    )
    timeline = shared_release_timeline(taskset, horizon, base, release_model)
    dvfs = resolve_dvfs(dvfs)
    speed_plan = None
    if dvfs is not None and dvfs.applies_to(scheme):
        speed_plan = analysis_cache().get(
            (
                "dvfs-plan",
                taskset.fingerprint(),
                base.ticks_per_unit,
                horizon_cap_units,
                dvfs.cache_key(),
            ),
            lambda: speed_plan_for(
                taskset, base, dvfs, horizon_cap_units=horizon_cap_units
            ),
        )
    result = run_policy(
        taskset,
        factory(),
        horizon,
        base,
        scenario,
        execution_time_fn,
        collect_trace=collect_trace,
        release_timeline=timeline,
        initial_history=initial_history,
        speed_plan=speed_plan,
    )
    energy = energy_of_result(result, power_model or PowerModel.paper_default())
    return RunOutcome(
        scheme=scheme,
        result=result,
        energy=energy,
        metrics=collect_metrics(result),
    )
