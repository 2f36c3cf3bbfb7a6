"""The one-draw-at-a-time bin-filling loop, kept as a differential oracle.

This is the generation protocol as it shipped before the staged pipeline
of :mod:`repro.workload.fastgen`: one
:meth:`~repro.workload.generator.TaskSetGenerator.draw_raw` per
candidate, binned by achieved (m,k)-utilization, then admitted.  It
shares none of the fast path's integer draws, integer utilizations or
screen, which is what makes it a useful reference.

Used only by tests (``tests/property/test_prop_fastgen.py``); never
import this from package code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.taskset import TaskSet
from repro.workload.generator import GeneratorConfig, TaskSetGenerator


def generate_binned_sequential(
    bins: Sequence[Tuple[float, float]],
    sets_per_bin: int = 20,
    config: Optional[GeneratorConfig] = None,
    seed: Optional[int] = None,
    max_draws_per_bin: int = 5000,
) -> Dict[Tuple[float, float], List[TaskSet]]:
    """Same contract as :func:`repro.workload.generate_binned_tasksets`."""
    generator = TaskSetGenerator(config, seed)
    cfg = generator.config
    result: Dict[Tuple[float, float], List[TaskSet]] = {
        tuple(b): [] for b in bins
    }
    for bin_lo, bin_hi in result:
        target_mid = (bin_lo + bin_hi) / 2
        draws = 0
        while len(result[(bin_lo, bin_hi)]) < sets_per_bin:
            draws += 1
            if draws > max_draws_per_bin:
                break
            taskset = generator.draw_raw(target_mid)
            if taskset is None:
                continue
            achieved = float(taskset.mk_utilization)
            if not bin_lo <= achieved < bin_hi:
                continue
            if not cfg.admits(taskset):
                continue
            result[(bin_lo, bin_hi)].append(taskset)
    return result
