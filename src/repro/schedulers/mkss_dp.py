"""MKSS_DP: static patterns with preference-oriented dual priority.

The second approach of the evaluation: mandatory jobs are still determined
by the static R-pattern, but they are scheduled with the preference
oriented scheme of Begam et al. [8] (without DVS):

* main copies are split across the two processors -- tasks at even
  priority index run their mains on the primary, odd on the spare (in
  Figure 1, τ1's main is on the primary and τ2's on the spare);
* each backup copy lives on the *other* processor and is procrastinated by
  the promotion time Y_i = D_i - R_i (Equation 2), modeled as a revised
  release r + Y_i;
* when a main copy completes successfully its backup is canceled (and vice
  versa if the backup happens to finish first).

Reproduces the paper's Figure 1 trace: 15 active-energy units on the
(5,4,3,2,4) / (10,10,3,1,2) example over [0, 20).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.promotion import promotion_times
from ..model.patterns import Pattern, RPattern
from ..sim.engine import PRIMARY, SPARE, PolicyContext, SchedulingPolicy
from ..sim.profile import SchemeProfile, TaskProfile


class MKSSDualPriority(SchedulingPolicy):
    """Static R-pattern + preference-oriented dual-priority backups."""

    name = "MKSS_DP"

    def __init__(
        self,
        patterns: Optional[Sequence[Pattern]] = None,
        split_mains: bool = True,
        split_strategy: str = "alternate",
    ) -> None:
        """Args:
        patterns: static patterns (default: R-patterns).
        split_mains: split main copies across processors (the
            preference-oriented placement); when False all mains stay
            on the primary, recovering plain Haque-style dual priority.
        split_strategy: "alternate" assigns mains by priority parity
            (what Figure 1 exhibits); "balance" greedily assigns each
            task's main to the processor with less accumulated mandatory
            utilization, closer to [8]'s partitioning intent.
        """
        if split_strategy not in ("alternate", "balance"):
            raise ValueError(
                f"split_strategy must be 'alternate' or 'balance', "
                f"got {split_strategy!r}"
            )
        self._patterns: Optional[List[Pattern]] = (
            list(patterns) if patterns is not None else None
        )
        self._split_mains = split_mains
        self._split_strategy = split_strategy

    def prepare(self, ctx: PolicyContext) -> SchemeProfile:
        patterns = self._patterns
        if patterns is None:
            patterns = [RPattern(task.mk) for task in ctx.taskset]
        elif len(patterns) != len(ctx.taskset):
            raise ValueError("need exactly one pattern per task")
        promotions = promotion_times(ctx.taskset, ctx.timebase)
        # Backups live on the other processor, postponed by the promotion
        # time Y_i (Equation 2).  Post-fault, a task whose main lived on
        # the survivor keeps releasing at r; one whose *backup* lived
        # there keeps the Y_i postponement.  Mixing offsets within one
        # task would break the periodicity assumption behind the
        # promotion-time guarantee.
        return SchemeProfile(
            self.name,
            (
                TaskProfile(
                    "pattern",
                    pattern=pattern,
                    main_processor=main,
                    backup_offset=promotion,
                    postfault_main_offset=(
                        0 if main == PRIMARY else promotion,
                        0 if main == SPARE else promotion,
                    ),
                )
                for pattern, main, promotion in zip(
                    patterns, self._assign_mains(ctx), promotions
                )
            ),
        )

    def _assign_mains(self, ctx: PolicyContext) -> List[int]:
        n = len(ctx.taskset)
        if not self._split_mains:
            return [PRIMARY] * n
        if self._split_strategy == "alternate":
            return [PRIMARY if i % 2 == 0 else SPARE for i in range(n)]
        # "balance": greedy by mandatory (m,k)-utilization, high first.
        loads = {PRIMARY: 0.0, SPARE: 0.0}
        assignment = [PRIMARY] * n
        order = sorted(
            range(n),
            key=lambda i: float(ctx.taskset[i].mk_utilization),
            reverse=True,
        )
        for index in order:
            target = PRIMARY if loads[PRIMARY] <= loads[SPARE] else SPARE
            assignment[index] = target
            loads[target] += float(ctx.taskset[index].mk_utilization)
        return assignment
