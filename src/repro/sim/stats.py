"""The aggregate counters of one stats-only run.

A stats-only run (``collect_trace=False``) builds no execution trace;
the scalar engine and the batch kernel both fill a :class:`RunStats`
instead, which is everything energy accounting and the QoS metrics read
from such a run.  The counters are integers (gap *lengths* are
bucketed, and the downstream energy arithmetic over the buckets is
:class:`~fractions.Fraction`-exact and order-independent), so a
stats-only run's result is bit-identical to the trace run's.
"""

from __future__ import annotations

from typing import Dict, List


class RunStats:
    """Cumulative counters of one stats-only run.

    Attributes:
        busy: per-processor execution ticks inside [0, horizon): what
            the idle gaps leave of the processor's energy window, filled
            once at the end of the run.
        gap_counts: per-processor multiset of *closed* idle-gap lengths,
            as a length -> count dict (the energy model only needs each
            gap's length, not its position).
        speed_busy: per-processor speed -> execution-tick dict for
            DVFS-scaled execution (speed != 1 only; full-speed ticks are
            ``busy`` minus the scaled sum).  Empty on every non-DVFS
            run, so the ledger stays byte-identical to the pre-DVFS one.
        released / effective / missed / mandatory / optional_executed /
            skipped: logical-job counts matching
            :class:`~repro.qos.metrics.QoSMetrics`.
        violations: per-task count of violated (m,k) windows.
    """

    __slots__ = (
        "busy",
        "gap_counts",
        "speed_busy",
        "released",
        "effective",
        "missed",
        "mandatory",
        "optional_executed",
        "skipped",
        "violations",
    )

    def __init__(self, task_count: int) -> None:
        self.busy: List[int] = [0, 0]
        self.gap_counts: List[Dict[int, int]] = [{}, {}]
        self.speed_busy: List[dict] = [{}, {}]
        self.released = 0
        self.effective = 0
        self.missed = 0
        self.mandatory = 0
        self.optional_executed = 0
        self.skipped = 0
        self.violations: List[int] = [0] * task_count
