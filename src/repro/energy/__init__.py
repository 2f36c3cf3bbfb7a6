"""Energy modeling: power states, dynamic power down, trace accounting."""

from .power import PowerModel
from .dpd import shutdown_decision, sleep_threshold_ticks
from .accounting import (
    EnergyReport,
    energy_from_counts,
    energy_of,
    energy_of_result,
)
from .dvs import DVSModel, scaled_energy
from .dvs_scheduling import (
    dvs_energy_of,
    max_uniform_slowdown,
    slowed_taskset,
)
from .dvfs import (
    DVFS_SCHEMES,
    DVFSConfig,
    SpeedPlan,
    resolve_dvfs,
    speed_plan_for,
)

__all__ = [
    "PowerModel",
    "shutdown_decision",
    "sleep_threshold_ticks",
    "EnergyReport",
    "energy_of",
    "energy_from_counts",
    "energy_of_result",
    "DVSModel",
    "scaled_energy",
    "dvs_energy_of",
    "max_uniform_slowdown",
    "slowed_taskset",
    "DVFS_SCHEMES",
    "DVFSConfig",
    "SpeedPlan",
    "resolve_dvfs",
    "speed_plan_for",
]
