"""MKSS_Hybrid: per-task offline choice between selective and DP modes.

An extension beyond the paper, motivated by a crossover the reproduction
exposes (see EXPERIMENTS.md): the FD = 1 selection rule executes optional
jobs at a long-run rate S that can exceed the mandatory rate m/k -- for an
(1,2) task it executes *every* job -- which is only worth it when the
dual-priority backups would otherwise overlap their mains substantially.
At low utilization the θ-postponed backups are almost always canceled
before running, so plain DP-style duplication is cheaper for such tasks.

``MKSSHybrid`` therefore decides **per task, offline**, which mode to use:

* the long-run selection rate ``S_i`` of the FD = 1 rule comes from
  :func:`selective_execution_rate`, an exact cycle detection on the
  (m,k)-history automaton (all selected jobs assumed to succeed -- the
  fault-free steady state);
* the DP-mode cost per window is ``m_i * (C_i + overlap_i)`` where
  ``overlap_i = min(C_i, max(0, R_i - θ_i))`` bounds the backup work that
  runs before the main's completion cancels it;
* the selective-mode cost per window is ``S_i * k_i * C_i``;
* the cheaper mode wins.

Mixed operation is safe: selective-mode tasks follow Algorithm 1's
argument (Theorem 1), DP-mode tasks the static R-pattern + postponement
argument, and both modes' mandatory/backup jobs live in the same MJQs the
offline analyses already cover.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from ..analysis.postponement import task_postponement_intervals
from ..model.history import MKHistory
from ..model.mk import MKConstraint
from ..model.patterns import RPattern
from ..sim.engine import PolicyContext, SchedulingPolicy
from ..sim.profile import SchemeProfile, TaskProfile


def selective_execution_rate(mk: MKConstraint) -> Fraction:
    """Long-run fraction of jobs the FD = 1 rule executes, fault-free.

    Iterates the history automaton (select iff FD == 1, selected jobs
    succeed, others miss) until the window state repeats, then returns the
    execution rate over the detected cycle.  Examples: (1,2) -> 1,
    (2,4) -> 2/3, (1,k) -> 1/k.
    """
    history = MKHistory(mk)
    seen: Dict[Tuple[bool, ...], int] = {}
    executed: List[bool] = []
    step = 0
    while True:
        state = history.outcomes()
        if state in seen:
            start = seen[state]
            cycle = executed[start:]
            if not cycle:  # pragma: no cover - cycle length >= 1 always
                return Fraction(0)
            return Fraction(sum(cycle), len(cycle))
        seen[state] = step
        selected = history.flexibility_degree() == 1
        history.record(selected)
        executed.append(selected)
        step += 1


class MKSSHybrid(SchedulingPolicy):
    """Offline per-task mode selection between selective and DP styles.

    A task's mode is its profile's classification: ``"fd"`` for
    selective mode, ``"pattern"`` for DP mode.
    """

    name = "MKSS_Hybrid"

    def prepare(self, ctx: PolicyContext) -> SchemeProfile:
        taskset = ctx.taskset
        base = ctx.timebase
        result = task_postponement_intervals(
            taskset, base, horizon_ticks=ctx.horizon_ticks
        )
        from ..analysis.energy_bounds import (
            dp_energy_bound,
            selective_energy_bound,
        )

        # Selective-mode tasks follow Algorithm 1 (FD rule, alternating
        # optionals at FD = 1 only, none after a fault); DP-mode tasks
        # follow their static R-pattern and never run optionals.  Both
        # postpone backups by θ_i and, for the same soundness reason as
        # MKSS_Selective (DESIGN.md §4b.7), use the Y_i survivor offset
        # after a fault.
        rules = []
        for index, task in enumerate(taskset):
            theta = result.thetas[index]
            dp_cost = dp_energy_bound(taskset, index, base, theta)
            shared = dict(
                backup_offset=theta,
                postfault_main_offset=(0, result.promotions[index]),
            )
            if selective_energy_bound(task) < dp_cost:
                rules.append(
                    TaskProfile(
                        "fd", fd_max=1, alternate_optionals=True, **shared
                    )
                )
            else:
                rules.append(
                    TaskProfile("pattern", pattern=RPattern(task.mk), **shared)
                )
        return SchemeProfile(self.name, rules)
