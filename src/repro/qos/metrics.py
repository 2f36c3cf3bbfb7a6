"""Aggregate QoS and scheduling metrics for one simulation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..model.job import JobOutcome
from ..sim.engine import SimulationResult
from ..sim.trace import TraceIndex
from .monitor import count_mk_violations


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


def collect_metrics(
    result: SimulationResult, index: Optional[TraceIndex] = None
) -> QoSMetrics:
    """Compute :class:`QoSMetrics` from a simulation result.

    Stats-only runs (``result.trace is None``) already carry every count
    in ``result.stats``; trace runs derive them from the records, and
    their violations through ``index``, the caller's
    :class:`~repro.sim.trace.TraceIndex` of the trace (None builds one).
    Both paths yield identical metrics for the same run.
    """
    if result.trace is None:
        stats = result.stats
        if stats is None:  # pragma: no cover - engine fills one of the two
            raise ValueError("result has neither trace nor stats")
        return QoSMetrics(
            released=result.released_jobs,
            effective=stats.effective,
            missed=stats.missed,
            mandatory=stats.mandatory,
            optional_executed=stats.optional_executed,
            skipped=stats.skipped,
            mk_violations=count_mk_violations(result),
            transient_faults=result.transient_fault_count,
        )
    effective = 0
    missed = 0
    mandatory = 0
    optional_executed = 0
    skipped = 0
    for record in result.trace.records.values():
        if record.outcome is JobOutcome.EFFECTIVE:
            effective += 1
        elif record.outcome is JobOutcome.MISSED:
            missed += 1
        if record.classified_as == "mandatory":
            mandatory += 1
        elif record.classified_as == "optional":
            optional_executed += 1
        elif record.classified_as == "skipped":
            skipped += 1
    return QoSMetrics(
        released=result.released_jobs,
        effective=effective,
        missed=missed,
        mandatory=mandatory,
        optional_executed=optional_executed,
        skipped=skipped,
        mk_violations=count_mk_violations(result, index),
        transient_faults=result.transient_fault_count,
    )
