"""Running one scheme on one task set under one fault scenario.

The evaluation's three approaches are registered in
:data:`SCHEME_FACTORIES` by their paper names; ablation schemes are
registered alongside so the ablation benches can sweep them with the same
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..analysis.cache import analysis_cache
from ..analysis.hyperperiod import analysis_horizon
from ..energy.accounting import EnergyReport, energy_of_result
from ..energy.dvfs import DVFSConfig, resolve_dvfs, speed_plan_for
from ..energy.power import PowerModel
from ..errors import ConfigurationError, UnknownSchemeError
from ..faults.scenario import FaultScenario
from ..model.history import INITIAL_HISTORY_MODES
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
from ..workload.release import ReleaseModel, resolve_release_model

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


@dataclass(frozen=True)
class RunSpec:
    """The run knobs a sweep holds constant across its jobs.

    One value carries them from every entry point (CLI, protocol,
    service spec) to the engine, and is what a sweep's fingerprint
    records.  Scheme, scenario, trace collection and execution-time
    model vary per job, so they stay per-call arguments.  Every knob is
    validated and normalized once, here; a rejected value raises
    :class:`~repro.errors.ConfigurationError`.

    Attributes:
        horizon_cap_units: horizon cap in model time units; a run's
            horizon is min((m,k)-hyperperiod, cap).
        power_model: energy model; None (or an explicit
            :meth:`PowerModel.paper_default`) is the paper's evaluation
            model.
        release_model: arrival process
            (:class:`~repro.workload.release.ReleaseModel`, a preset
            name, or its dict form); None (or any periodic model) is the
            paper's strictly periodic releases.
        initial_history: (m,k)-history boundary condition, one of
            :data:`repro.model.history.INITIAL_HISTORY_MODES` (the paper
            assumes ``"met"``).
        dvfs: deadline-safe frequency scaling
            (:class:`~repro.energy.dvfs.DVFSConfig` or its dict form),
            applied to the schemes the config names; None (or a config
            whose critical speed is 1) keeps fixed-frequency processors.

    Normalizing every default spelling to None keeps the caches,
    fingerprints and journals of an explicit default request identical
    to those of an omitted one.
    """

    horizon_cap_units: int = 2000
    power_model: Optional[PowerModel] = None
    release_model: Optional[ReleaseModel] = None
    initial_history: str = "met"
    dvfs: Optional[DVFSConfig] = None

    def __post_init__(self) -> None:
        if self.horizon_cap_units < 1:
            raise ConfigurationError(
                f"horizon_cap_units must be >= 1, got {self.horizon_cap_units}"
            )
        if self.power_model == PowerModel.paper_default():
            object.__setattr__(self, "power_model", None)
        object.__setattr__(
            self, "release_model", resolve_release_model(self.release_model)
        )
        if self.initial_history not in INITIAL_HISTORY_MODES:
            raise ConfigurationError(
                f"initial_history must be one of {INITIAL_HISTORY_MODES}, "
                f"got {self.initial_history!r}"
            )
        object.__setattr__(self, "dvfs", resolve_dvfs(self.dvfs))

    def key(self) -> Dict[str, Any]:
        """The non-default model knobs, as fingerprints and documents
        record them; the defaults are omitted so keys written before a
        knob existed stay valid."""
        payload: Dict[str, Any] = {}
        if self.release_model is not None:
            payload["release_model"] = self.release_model.as_dict()
        if self.initial_history != "met":
            payload["initial_history"] = self.initial_history
        if self.dvfs is not None:
            payload["dvfs"] = self.dvfs.as_dict()
        return payload

    def horizon_ticks(self, taskset: TaskSet) -> int:
        """The task set's simulated horizon under this cap (cached)."""
        base = taskset.timebase()
        return analysis_cache().get(
            (
                "horizon",
                taskset.analysis_key(),
                base.ticks_per_unit,
                self.horizon_cap_units,
            ),
            lambda: analysis_horizon(taskset, base, self.horizon_cap_units),
        )


def scheme_factory(scheme: str) -> Callable[[], SchedulingPolicy]:
    """The registered factory of ``scheme``; unknown names raise
    :class:`~repro.errors.UnknownSchemeError`."""
    try:
        return SCHEME_FACTORIES[scheme]
    except KeyError as exc:
        raise UnknownSchemeError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEME_FACTORIES)}"
        ) from exc


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
    run: RunSpec = RunSpec(),
    *,
    collect_trace: bool = True,
    execution_time_fn=None,
) -> RunOutcome:
    """Simulate one scheme and account its energy and QoS.

    Args:
        taskset: the task set.
        scheme: a key of :data:`SCHEME_FACTORIES`.
        scenario: fault scenario (default fault-free).
        run: the run knobs (:class:`RunSpec`): horizon cap, power,
            release and DVFS models, initial history.
        collect_trace: False runs stats-only -- same energy and metrics,
            no trace.
        execution_time_fn: optional actual-execution-time model
            (see :mod:`repro.workload.acet`); None charges full WCETs.
    """
    result = simulate_scheme(
        taskset,
        scheme,
        scenario,
        run,
        collect_trace=collect_trace,
        execution_time_fn=execution_time_fn,
    )
    return outcome_of(scheme, result, run)


def simulate_scheme(
    taskset: TaskSet,
    scheme: str,
    scenario: Optional[FaultScenario] = None,
    run: RunSpec = RunSpec(),
    *,
    collect_trace: bool = True,
    execution_time_fn=None,
) -> SimulationResult:
    """The simulation half of :func:`run_scheme` (same arguments)."""
    factory = scheme_factory(scheme)
    base = taskset.timebase()
    horizon = run.horizon_ticks(taskset)
    timeline = shared_release_timeline(taskset, horizon, base, run.release_model)
    dvfs = run.dvfs
    speed_plan = None
    if dvfs is not None and dvfs.applies_to(scheme):
        speed_plan = analysis_cache().get(
            (
                "dvfs-plan",
                taskset.analysis_key(),
                base.ticks_per_unit,
                run.horizon_cap_units,
                dvfs.cache_key(),
            ),
            lambda: speed_plan_for(
                taskset, base, dvfs, horizon_cap_units=run.horizon_cap_units
            ),
        )
    return run_policy(
        taskset,
        factory(),
        horizon,
        base,
        scenario,
        execution_time_fn,
        collect_trace=collect_trace,
        release_timeline=timeline,
        initial_history=run.initial_history,
        speed_plan=speed_plan,
    )


def outcome_of(
    scheme: str, result: SimulationResult, run: RunSpec = RunSpec()
) -> RunOutcome:
    """The accounting half of :func:`run_scheme`: a finished run's energy
    (under ``run``'s power model) and QoS, both from its counters."""
    return RunOutcome(
        scheme=scheme,
        result=result,
        energy=energy_of_result(result, run.power_model),
        metrics=collect_metrics(result),
    )
