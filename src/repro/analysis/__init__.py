"""Offline analysis: response times, promotion times, postponement intervals.

Everything in this package operates on the integer tick grid produced by
:meth:`repro.model.TaskSet.timebase`, so all fixed-point iterations and
ceiling divisions are exact.
"""

from .cache import AnalysisCache, analysis_cache
from .hyperperiod import (
    analysis_horizon,
    lcm_ticks,
    mk_hyperperiod_ticks,
)
from .rta import response_time, response_times, response_time_mandatory
from .promotion import promotion_time, promotion_times
from .demand import mandatory_job_count, mandatory_demand, released_job_count
from .postponement import (
    PostponementResult,
    inspecting_points,
    job_postponement_interval,
    task_postponement_intervals,
)
from .schedulability import (
    is_rpattern_schedulable,
    mandatory_miss_exists,
    rta_mandatory_schedulable,
    simulate_mandatory_fp,
    simulate_mandatory_schedule,
)
from .rotation import optimize_rotations, schedulability_margin
from .sensitivity import (
    critical_scaling_factor,
    per_task_slack,
    scale_wcets,
)
from .energy_bounds import (
    backup_overlap_bound,
    dp_energy_bound,
    selective_energy_bound,
)

__all__ = [
    "AnalysisCache",
    "analysis_cache",
    "analysis_horizon",
    "mk_hyperperiod_ticks",
    "lcm_ticks",
    "response_time",
    "response_times",
    "response_time_mandatory",
    "promotion_time",
    "promotion_times",
    "mandatory_job_count",
    "mandatory_demand",
    "released_job_count",
    "PostponementResult",
    "inspecting_points",
    "job_postponement_interval",
    "task_postponement_intervals",
    "is_rpattern_schedulable",
    "mandatory_miss_exists",
    "rta_mandatory_schedulable",
    "simulate_mandatory_fp",
    "simulate_mandatory_schedule",
    "optimize_rotations",
    "schedulability_margin",
    "critical_scaling_factor",
    "per_task_slack",
    "scale_wcets",
    "backup_overlap_bound",
    "dp_energy_bound",
    "selective_energy_bound",
]
