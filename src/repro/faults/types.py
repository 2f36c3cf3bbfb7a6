"""Fault taxonomy shared by the injectors and the harness."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..model.job import Job


class FaultKind(enum.Enum):
    """The paper's two fault classes (Section II-B)."""

    TRANSIENT = "transient"  #: soft error, detected by a sanity check
    PERMANENT = "permanent"  #: processor death, handled by the spare


@dataclass(frozen=True)
class PermanentFault:
    """A permanent processor fault at a given instant.

    Attributes:
        processor: which processor dies (0 = primary, 1 = spare).
        time_ticks: tick at which it dies.
    """

    processor: int
    time_ticks: int

    def __post_init__(self) -> None:
        if self.processor not in (0, 1):
            raise ConfigurationError(
                f"processor must be 0 or 1, got {self.processor}"
            )
        if self.time_ticks < 0:
            raise ConfigurationError(
                f"fault time must be non-negative, got {self.time_ticks}"
            )

    def as_tuple(self) -> "tuple[int, int]":
        return (self.processor, self.time_ticks)


class TransientFaultModel:
    """Interface of transient fault oracles consulted at job completion.

    Implementations decide, once per completing job copy, whether the
    sanity check at the end of its execution flags a transient fault.

    ``never_faults`` marks an oracle that is *statically known* to always
    answer False; the batch kernel (:mod:`repro.sim.batch`) then does no
    fault bookkeeping at all, which is only sound when the completion
    checks provably change nothing.
    """

    never_faults = False

    def job_faulted(self, job: Job, completion_tick: int) -> bool:
        """True when the completing copy's result is corrupted."""
        raise NotImplementedError

    def __call__(self, job: Job, completion_tick: int) -> bool:
        return self.job_faulted(job, completion_tick)
