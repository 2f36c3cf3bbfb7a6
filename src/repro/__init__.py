"""repro: reliable and energy-aware fixed-priority (m,k)-deadlines
enforcement with standby-sparing.

A faithful, laptop-scale reproduction of Niu & Zhu, DATE 2020.  The
package implements the full system the paper describes -- periodic tasks
with (m,k)-firm constraints, a dual-processor standby-sparing simulator
with preemptive fixed-priority scheduling, the R-pattern/flexibility-
degree machinery, backup release postponement analysis, DPD-based energy
accounting, transient and permanent fault injection -- plus the three
evaluated schemes (MKSS_ST, MKSS_DP, MKSS_Selective), the motivational
greedy scheme, and the experiment harness regenerating every figure.

Quickstart::

    from repro import Task, TaskSet, run_scheme

    ts = TaskSet([Task(5, 4, 3, 2, 4), Task(10, 10, 3, 1, 2)])
    outcome = run_scheme(ts, "MKSS_Selective")
    print(outcome.total_energy, outcome.metrics.mk_violations)
"""

from .errors import (
    AnalysisError,
    ConfigurationError,
    ModelError,
    ReproError,
    SimulationError,
    TimeBaseError,
    UnknownSchemeError,
    UnschedulableError,
    WorkloadError,
)
from .timebase import TimeBase, as_fraction
from .model import (
    EPattern,
    Job,
    JobOutcome,
    JobRole,
    MKConstraint,
    MKHistory,
    Pattern,
    RPattern,
    Task,
    TaskSet,
    flexibility_degree,
)
from .analysis import (
    is_rpattern_schedulable,
    promotion_time,
    promotion_times,
    response_time,
    response_times,
    task_postponement_intervals,
)
from .sim import (
    PRIMARY,
    SPARE,
    ExecutionTrace,
    SchedulingPolicy,
    SimulationResult,
    StandbySparingEngine,
    render_gantt,
)
from .energy import DVSModel, EnergyReport, PowerModel, energy_of
from .faults import FaultScenario, PermanentFault, PoissonTransientFaults
from .schedulers import (
    DistanceBasedPriority,
    MKSSDualPriority,
    MKSSGreedy,
    MKSSHybrid,
    MKSSSelective,
    MKSSStatic,
    ReExecutionFP,
    SingleProcessorFP,
    run_policy,
    selective_execution_rate,
)
from .qos import MKMonitor, QoSMetrics, collect_metrics, verify_mk
from .workload import (
    GeneratorConfig,
    TaskSetGenerator,
    fig1_taskset,
    fig3_taskset,
    fig5_taskset,
    generate_binned_tasksets,
    uunifast,
)
from .harness import (
    fig6a,
    fig6b,
    fig6c,
    figure6_series,
    format_series_table,
    utilization_sweep,
)
from .harness.runner import RunSpec, run_scheme

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ModelError",
    "TimeBaseError",
    "AnalysisError",
    "UnschedulableError",
    "SimulationError",
    "ConfigurationError",
    "UnknownSchemeError",
    "WorkloadError",
    # time
    "TimeBase",
    "as_fraction",
    # model
    "MKConstraint",
    "Task",
    "TaskSet",
    "Job",
    "JobRole",
    "JobOutcome",
    "Pattern",
    "RPattern",
    "EPattern",
    "MKHistory",
    "flexibility_degree",
    # analysis
    "response_time",
    "response_times",
    "promotion_time",
    "promotion_times",
    "task_postponement_intervals",
    "is_rpattern_schedulable",
    # sim
    "PRIMARY",
    "SPARE",
    "StandbySparingEngine",
    "SchedulingPolicy",
    "SimulationResult",
    "ExecutionTrace",
    "render_gantt",
    # energy
    "PowerModel",
    "EnergyReport",
    "energy_of",
    "DVSModel",
    # faults
    "FaultScenario",
    "PermanentFault",
    "PoissonTransientFaults",
    # schedulers
    "MKSSStatic",
    "MKSSDualPriority",
    "MKSSGreedy",
    "MKSSSelective",
    "MKSSHybrid",
    "selective_execution_rate",
    "SingleProcessorFP",
    "DistanceBasedPriority",
    "ReExecutionFP",
    "run_policy",
    # qos
    "MKMonitor",
    "QoSMetrics",
    "collect_metrics",
    "verify_mk",
    # workload
    "uunifast",
    "GeneratorConfig",
    "TaskSetGenerator",
    "generate_binned_tasksets",
    "fig1_taskset",
    "fig3_taskset",
    "fig5_taskset",
    # harness
    "RunSpec",
    "run_scheme",
    "utilization_sweep",
    "fig6a",
    "fig6b",
    "fig6c",
    "figure6_series",
    "format_series_table",
]
