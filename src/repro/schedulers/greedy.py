"""The greedy dynamic-pattern scheme from the motivation (Figures 2-3).

Jobs are classified *dynamically* at release from the task's outcome
history: a job is mandatory iff its flexibility degree is 0.  Every
optional job (FD >= 1) is greedily submitted to the primary processor's
optional queue and executed whenever the mandatory queue is empty -- most
urgent (lowest FD) first, the footnote's "less flexible first" rule.
Optional jobs that can no longer finish by their deadline are dropped
(O11 in Figure 2).  Mandatory jobs keep the standby-sparing treatment:
main on the primary, backup on the spare postponed by the promotion time.

The paper introduces this scheme to show that greed backfires on modest
workloads (Figure 3: 20 energy units where the selective scheme needs
14); it is retained here as an ablation baseline.
"""

from __future__ import annotations

from ..analysis.promotion import promotion_times
from ..sim.engine import PolicyContext, SchedulingPolicy
from ..sim.profile import SchemeProfile, TaskProfile


class MKSSGreedy(SchedulingPolicy):
    """Dynamic patterns with greedy optional execution on the primary."""

    name = "MKSS_Greedy"

    def __init__(self, preemptive: bool = False) -> None:
        """Args:
        preemptive: whether optional jobs may preempt each other; the
            paper's Figure 3 trace runs optionals to completion (O12 is
            never started), so the default is False.
        """
        self.preemptive = preemptive

    def prepare(self, ctx: PolicyContext) -> SchemeProfile:
        promotions = promotion_times(ctx.taskset, ctx.timebase)
        # Every FD >= 1 job runs as an optional on the primary, and on the
        # survivor after a fault; backups are postponed by the promotion
        # time, and post-fault releases on the spare keep that offset
        # (see MKSS_DP).
        return SchemeProfile(
            self.name,
            (
                TaskProfile(
                    "fd",
                    fd_max=None,
                    backup_offset=promotion,
                    postfault_main_offset=(0, promotion),
                    postfault_optionals=True,
                )
                for promotion in promotions
            ),
            optional_preemption=self.preemptive,
        )
