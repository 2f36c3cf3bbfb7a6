"""Small test policies, each stated as a scheme profile, and the profile
a policy prepares for a task set.

A policy is only its :class:`~repro.sim.profile.SchemeProfile`, so a test
that needs a hand-made schedule states the rules it wants, task by task.
"""

from __future__ import annotations

from repro.sim.engine import PolicyContext, SchedulingPolicy
from repro.sim.profile import SchemeProfile, TaskProfile


def prepared(policy, taskset, horizon_units: int = 20) -> SchemeProfile:
    """The profile ``policy`` prepares for ``taskset`` at a horizon of
    ``horizon_units`` model time units."""
    base = taskset.timebase()
    return policy.prepare(
        PolicyContext(taskset, base, horizon_units * base.ticks_per_unit)
    )


class ProfilePolicy(SchedulingPolicy):
    """A policy whose every task follows ``rules``.

    ``rules`` is one :class:`TaskProfile` for every task, or a callable
    ``rules(task_index, task)`` returning each task's own.
    """

    def __init__(
        self, rules, name: str = "test-profile", optional_preemption: bool = True
    ) -> None:
        self.rules = rules
        self.name = name
        self.optional_preemption = optional_preemption

    def prepare(self, ctx) -> SchemeProfile:
        rules = self.rules
        return SchemeProfile(
            self.name,
            (
                rules(index, task) if callable(rules) else rules
                for index, task in enumerate(ctx.taskset)
            ),
            optional_preemption=self.optional_preemption,
        )


class NeverMandatory:
    """A pattern under which no job is mandatory."""

    def __init__(self, mk) -> None:
        self.mk = mk

    def is_mandatory(self, job_index: int) -> bool:
        return False


def skip_all() -> ProfilePolicy:
    """A policy that skips every job."""
    return ProfilePolicy(
        lambda index, task: TaskProfile("pattern", pattern=NeverMandatory(task.mk)),
        name="skip-all",
    )
