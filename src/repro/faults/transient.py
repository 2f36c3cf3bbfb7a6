"""Transient fault injection with Poisson arrivals.

The paper (Section V, third experiment) assumes transient faults follow a
Poisson distribution with average rate λ = 1e-6 (per ms, the model time
unit).  A job copy that executed for ``x`` time units is then hit by at
least one fault with probability ``1 - exp(-λ x)``; the fault is detected
by the sanity check at the end of execution, matching Section II-B.

Faults are decided by a dedicated, seeded :class:`random.Random` stream so
runs are reproducible and fault draws do not perturb any other random
choice in the harness.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..model.job import Job
from ..timebase import TimeBase
from .types import TransientFaultModel

#: The paper's average transient fault rate, per model time unit (ms).
PAPER_FAULT_RATE = 1e-6


class NoTransientFaults(TransientFaultModel):
    """The no-fault oracle (experiments 1 and 2)."""

    never_faults = True

    def job_faulted(self, job: Job, completion_tick: int) -> bool:
        return False


class PoissonTransientFaults(TransientFaultModel):
    """Poisson transient faults at a configurable rate.

    Args:
        rate_per_unit: average fault rate λ per model time unit.
        timebase: tick grid, to convert executed ticks to time units.
        seed: RNG seed (or an already-built ``random.Random``).
    """

    def __init__(
        self,
        rate_per_unit: float,
        timebase: TimeBase,
        seed: "Optional[int | random.Random]" = None,
    ) -> None:
        if rate_per_unit < 0:
            raise ConfigurationError(f"fault rate must be >= 0, got {rate_per_unit}")
        self.rate = rate_per_unit
        self.timebase = timebase
        if isinstance(seed, random.Random):
            self._rng = seed
        else:
            self._rng = random.Random(seed)
        self.draws = 0
        self.faults = 0
        # fault_probability per executed tick count: a run completes many
        # copies of few distinct WCETs.
        self._probabilities: Dict[int, float] = {}

    def fault_probability(self, executed_ticks: int) -> float:
        """P(at least one fault during ``executed_ticks`` of execution)."""
        if executed_ticks <= 0 or self.rate == 0:
            return 0.0
        executed_units = executed_ticks / self.timebase.ticks_per_unit
        return 1.0 - math.exp(-self.rate * executed_units)

    def job_faulted(self, job: Job, completion_tick: int) -> bool:
        self.draws += 1
        probability = self._probabilities.get(job.wcet)
        if probability is None:
            probability = self._probabilities[job.wcet] = (
                self.fault_probability(job.wcet)
            )
        hit = self._rng.random() < probability
        if hit:
            self.faults += 1
        return hit

    def uniforms(self, count: int) -> List[float]:
        """Consume and return the stream's next ``count`` draws.

        :meth:`job_faulted` compares its n-th draw with the n-th
        completing copy's :meth:`fault_probability`; a simulator that
        knows its completion order can take the draws up front and make
        the same comparisons itself (the batch kernel does).
        """
        draw = self._rng.random
        return [draw() for _ in range(count)]
