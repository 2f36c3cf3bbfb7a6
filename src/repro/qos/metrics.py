"""Aggregate QoS and scheduling metrics for one simulation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim.engine import SimulationResult


@dataclass(frozen=True)
class QoSMetrics:
    """Counts summarizing a run's quality of service.

    Attributes:
        released: logical jobs released.
        effective: jobs counted as meeting their deadline.
        missed: jobs counted as misses.
        mandatory: jobs classified mandatory at release.
        optional_executed: jobs classified optional and given a copy.
        skipped: jobs skipped outright at release.
        mk_violations: number of violated (m,k) windows (0 = guaranteed).
        transient_faults: transient faults detected during the run.
    """

    released: int
    effective: int
    missed: int
    mandatory: int
    optional_executed: int
    skipped: int
    mk_violations: int
    transient_faults: int

    @property
    def miss_ratio(self) -> float:
        return self.missed / self.released if self.released else 0.0

    @property
    def mandatory_ratio(self) -> float:
        return self.mandatory / self.released if self.released else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for tabular reporting."""
        return {
            "released": self.released,
            "effective": self.effective,
            "missed": self.missed,
            "mandatory": self.mandatory,
            "optional_executed": self.optional_executed,
            "skipped": self.skipped,
            "mk_violations": self.mk_violations,
            "transient_faults": self.transient_faults,
            "miss_ratio": self.miss_ratio,
            "mandatory_ratio": self.mandatory_ratio,
        }


def collect_metrics(result: SimulationResult) -> QoSMetrics:
    """Compute :class:`QoSMetrics` from a simulation result's counters
    (:attr:`~repro.sim.engine.SimulationResult.stats`), whatever mode
    the run took."""
    stats = result.stats
    return QoSMetrics(
        released=stats.released,
        effective=stats.effective,
        missed=stats.missed,
        mandatory=stats.mandatory,
        optional_executed=stats.optional_executed,
        skipped=stats.skipped,
        mk_violations=sum(stats.violations),
        transient_faults=result.transient_fault_count,
    )
