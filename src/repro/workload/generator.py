"""Random task-set generation matching the paper's evaluation setup.

Section V: "The periodic task set in our experiments consists of five to
ten tasks with the periods randomly chosen in the range of [5, 50] ms.
The m_i and k_i for the (m,k)-deadlines were also randomly generated such
that k_i is uniformly distributed between 2 to 20, and 0 < m_i < k_i.  The
worst case execution time (WCET) of a task was assumed to be uniformly
distributed and the total (m,k)-utilization was divided into intervals of
length 0.1 each of which contains at least 20 task sets schedulable."

Implementation choices (documented in DESIGN.md):

* The target (m,k)-utilization of a set is spread across tasks with
  UUniFast, then C_i = u_i * k_i * P_i / m_i; sets with any C_i > D_i are
  rejected and redrawn.
* Periods default to a divisor-friendly grid inside [5, 50] so the
  (m,k)-hyperperiods stay tractable; pass ``period_choices=None`` to draw
  any integer in [5, 50] (horizons are capped anyway).
* WCETs are quantized down to a configurable grid (default 1/100 ms) so
  the shared tick grid stays small; quantization changes the achieved
  utilization slightly, and sets are *binned by their achieved*
  (m,k)-utilization.
* Admission: schedulable under R-pattern (the paper's Theorem 1
  hypothesis), tested exactly over the capped horizon.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.hyperperiod import analysis_horizon
from ..analysis.schedulability import is_rpattern_schedulable
from ..errors import WorkloadError
from ..model.task import Task
from ..model.taskset import TaskSet
from .release import (  # noqa: F401  (re-export: arrival models live here)
    RELEASE_KINDS,
    RELEASE_PRESETS,
    ReleaseModel,
    resolve_release_model,
)
from .uunifast import uunifast

#: Admission filters a :class:`GeneratorConfig` can apply to raw draws:
#: ``"rpattern"`` is the paper's Theorem 1 hypothesis (schedulable under
#: the deeply-red R-pattern), ``"rotated"`` additionally admits sets a
#: per-task pattern rotation (Quan & Hu [13]) makes schedulable, and
#: ``"none"`` admits every feasible draw (no schedulability filter).
ADMISSION_MODES: Tuple[str, ...] = ("rpattern", "rotated", "none")

#: Default period grid: divisors-friendly values inside the paper's
#: [5, 50] ms range (all divide 7200, keeping LCMs small).
DEFAULT_PERIOD_CHOICES: Tuple[int, ...] = (5, 6, 8, 10, 12, 15, 16, 20, 24, 25, 30, 40, 48, 50)


@dataclass
class GeneratorConfig:
    """Knobs of the random task-set generator (paper defaults)."""

    min_tasks: int = 5
    max_tasks: int = 10
    period_choices: Optional[Sequence[int]] = DEFAULT_PERIOD_CHOICES
    period_range: Tuple[int, int] = (5, 50)
    k_range: Tuple[int, int] = (2, 20)
    wcet_grid: Fraction = Fraction(1, 100)
    implicit_deadlines: bool = True
    horizon_cap_units: int = 5000
    require_schedulable: bool = True
    admission: str = "rpattern"
    max_attempts_per_set: int = 200

    def __post_init__(self) -> None:
        if not 1 <= self.min_tasks <= self.max_tasks:
            raise WorkloadError("need 1 <= min_tasks <= max_tasks")
        if self.k_range[0] < 2 or self.k_range[1] < self.k_range[0]:
            raise WorkloadError(f"bad k range {self.k_range}")
        if self.wcet_grid <= 0:
            raise WorkloadError("wcet_grid must be positive")
        if self.admission not in ADMISSION_MODES:
            raise WorkloadError(
                f"admission must be one of {ADMISSION_MODES}, "
                f"got {self.admission!r}"
            )

    def admits(self, taskset: TaskSet) -> bool:
        """Whether a feasible draw passes this config's admission filter.

        ``require_schedulable=False`` and ``admission="none"`` both admit
        everything; ``"rpattern"`` is the paper's filter; ``"rotated"``
        falls back to searching per-task pattern rotations when the plain
        R-pattern alignment is unschedulable.
        """
        if not self.require_schedulable or self.admission == "none":
            return True
        base = taskset.timebase()
        horizon = analysis_horizon(taskset, base, self.horizon_cap_units)
        if is_rpattern_schedulable(taskset, base, horizon_ticks=horizon):
            return True
        if self.admission == "rotated":
            from ..analysis.rotation import (
                optimize_rotations,
                schedulability_margin,
            )

            _, patterns = optimize_rotations(
                taskset, base, horizon_ticks=horizon
            )
            return (
                schedulability_margin(
                    taskset, patterns, base, horizon_ticks=horizon
                )
                >= 0
            )
        return False


class TaskSetGenerator:
    """Draws random task sets at a target (m,k)-utilization."""

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        seed: "Optional[int | random.Random]" = None,
    ) -> None:
        self.config = config or GeneratorConfig()
        self._rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def _draw_period(self) -> int:
        cfg = self.config
        if cfg.period_choices is not None:
            return self._rng.choice(list(cfg.period_choices))
        return self._rng.randint(*cfg.period_range)

    def draw_raw(self, target_mk_utilization: float) -> Optional[TaskSet]:
        """One unvalidated draw at the target utilization, or None.

        Returns None when the draw produced an infeasible task (C > D or
        a WCET that quantizes to zero); callers redraw.
        """
        cfg = self.config
        n = self._rng.randint(cfg.min_tasks, cfg.max_tasks)
        shares = uunifast(n, target_mk_utilization, self._rng)
        tasks: List[Task] = []
        for share in shares:
            period = self._draw_period()
            k = self._rng.randint(*cfg.k_range)
            m = self._rng.randint(1, k - 1)
            # share = m*C/(k*P)  =>  C = share * k * P / m
            wcet_exact = Fraction(share).limit_denominator(10**6) * k * period / m
            wcet = (wcet_exact // cfg.wcet_grid) * cfg.wcet_grid
            deadline = Fraction(period)
            if wcet <= 0 or wcet > deadline:
                return None
            tasks.append(Task(period, deadline, wcet, m, k))
        # Rate-monotonic priority order (shorter period = higher priority),
        # the standard choice for FP evaluations.
        tasks.sort(key=lambda t: (t.period, t.deadline))
        return TaskSet(tasks)

    def generate(self, target_mk_utilization: float) -> TaskSet:
        """Draw until a (schedulable, feasible) set emerges.

        Raises:
            WorkloadError: after ``max_attempts_per_set`` failed draws.
        """
        cfg = self.config
        for _ in range(cfg.max_attempts_per_set):
            taskset = self.draw_raw(target_mk_utilization)
            if taskset is None:
                continue
            if cfg.admits(taskset):
                return taskset
        raise WorkloadError(
            f"no schedulable set found at (m,k)-utilization "
            f"{target_mk_utilization} after {cfg.max_attempts_per_set} draws"
        )


def generate_binned_tasksets(
    bins: Sequence[Tuple[float, float]],
    sets_per_bin: int = 20,
    config: Optional[GeneratorConfig] = None,
    seed: Optional[int] = None,
    max_draws_per_bin: int = 5000,
    *,
    stats=None,
) -> Dict[Tuple[float, float], List[TaskSet]]:
    """Populate (m,k)-utilization bins with schedulable task sets.

    Mirrors the paper's protocol: each utilization interval receives at
    least ``sets_per_bin`` schedulable task sets, giving up on a bin after
    ``max_draws_per_bin`` generated sets (the paper's 5000).

    Sets are binned by their *achieved* (m,k)-utilization after WCET
    quantization, so a draw targeted at one bin may land in a neighbour.

    Runs the staged pipeline of :mod:`repro.workload.fastgen`, which is
    differential-tested draw-for-draw identical to one
    :meth:`TaskSetGenerator.draw_raw` at a time; ``stats`` may be a
    :class:`repro.workload.fastgen.GenerationStats` to collect counters
    and per-bin draw counts.
    """
    from .fastgen import generate_binned_fast

    return generate_binned_fast(
        bins, sets_per_bin, config, seed, max_draws_per_bin, stats
    )
