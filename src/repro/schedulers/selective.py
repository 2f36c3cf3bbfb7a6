"""MKSS_Selective: the paper's contribution (Algorithm 1).

Principles (Section IV):

(i)   Jobs are classified dynamically at release: mandatory iff the
      flexibility degree is 0.  Mandatory mains go to the primary's MJQ;
      their backups to the spare's MJQ with releases postponed by the
      offline θ_i (Definitions 2-5, floored at the promotion time Y_i).

(ii)  Only optional jobs with **FD exactly 1** are selected for execution;
      more flexible jobs are skipped outright.  A selected optional has no
      backup and runs in the OJQ, strictly below the MJQ.

(iii) Successive selected optionals of the same task alternate between the
      primary and the spare processor, spreading their load so they have a
      better chance to complete (Figure 4's O12/O22 on the primary,
      J13/J'23 on the spare).

On a successful optional completion the engine updates the task's history,
which raises the next job's flexibility degree -- demoting would-be
mandatory jobs and dropping their backups, the scheme's energy lever.

After a permanent fault the survivor runs the mandatory jobs (single
copy) and no optionals: with the spare gone there are no backups left
to drop, so an optional execution saves nothing and only spends energy.

The ``fd_threshold`` knob generalizes principle (ii) for ablation studies:
the paper's scheme is ``fd_threshold=1`` (select only FD == 1); larger
values select any optional with ``1 <= FD <= fd_threshold``.
"""

from __future__ import annotations

from ..analysis.postponement import task_postponement_intervals
from ..errors import ConfigurationError
from ..sim.engine import PolicyContext, SchedulingPolicy
from ..sim.profile import SchemeProfile, TaskProfile


class MKSSSelective(SchedulingPolicy):
    """Selective execution of FD = 1 optionals with alternation (Alg. 1)."""

    name = "MKSS_Selective"

    def __init__(
        self,
        fd_threshold: int = 1,
        alternate: bool = True,
        use_theta_postponement: bool = True,
    ) -> None:
        """Args:
        fd_threshold: select optionals with 1 <= FD <= this (paper: 1).
        alternate: alternate selected optionals across processors
            (paper: True); False pins them to the primary.
        use_theta_postponement: postpone backups by θ_i (paper: True);
            False falls back to the promotion time Y_i as in MKSS_DP.
        """
        if fd_threshold < 1:
            raise ConfigurationError(
                f"fd_threshold must be >= 1, got {fd_threshold}"
            )
        self.fd_threshold = fd_threshold
        self.alternate = alternate
        self.use_theta_postponement = use_theta_postponement

    def prepare(self, ctx: PolicyContext) -> SchemeProfile:
        result = task_postponement_intervals(
            ctx.taskset, ctx.timebase, horizon_ticks=ctx.horizon_ticks
        )
        postponements = (
            result.thetas if self.use_theta_postponement else result.promotions
        )
        # Post-fault releases on the spare use the *promotion time* Y_i,
        # not θ_i: Y's guarantee is the per-job critical-instant argument,
        # valid for any per-task constant offsets -- whereas θ's guarantee
        # (Definitions 2-5) assumes the static R-pattern alignment, which
        # the dynamic patterns have long drifted away from by the time a
        # fault strikes.  A generated counterexample (see DESIGN.md §4b.7
        # and the regression test) shows θ offsets missing a mandatory
        # deadline post-fault.
        return SchemeProfile(
            self.name,
            (
                TaskProfile(
                    "fd",
                    fd_max=self.fd_threshold,
                    backup_offset=postponement,
                    alternate_optionals=self.alternate,
                    postfault_main_offset=(0, promotion),
                )
                for postponement, promotion in zip(
                    postponements, result.promotions
                )
            ),
        )
