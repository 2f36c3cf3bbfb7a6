"""Unit tests for the scheme-profile vocabulary's own checks."""

from __future__ import annotations

import pytest

from repro.harness.runner import SCHEME_FACTORIES
from repro.model.mk import MKConstraint
from repro.model.patterns import RPattern
from repro.schedulers import DistanceBasedPriority, ReExecutionFP, SingleProcessorFP
from repro.sim.profile import SchemeProfile, TaskProfile
from tests.policies import prepared


class TestTaskProfileChecks:
    def test_unknown_classification_rejected(self):
        with pytest.raises(ValueError, match="classification"):
            TaskProfile("every-other")

    def test_pattern_classification_needs_a_pattern(self):
        with pytest.raises(ValueError, match="needs a pattern"):
            TaskProfile("pattern")

    @pytest.mark.parametrize("fd_max", [1, 2, None])
    def test_only_fd_classification_runs_optionals(self, fd_max):
        # The kernel only runs optionals of FD-classified tasks, so a
        # pattern or all-mandatory task with an FD window would make the
        # batch backend disagree with the engine and the auditor.
        pattern = RPattern(MKConstraint(2, 4))
        with pytest.raises(ValueError, match="fd_max=0"):
            TaskProfile("pattern", pattern=pattern, fd_max=fd_max)
        with pytest.raises(ValueError, match="fd_max=0"):
            TaskProfile("all", fd_max=fd_max)
        assert TaskProfile("fd", fd_max=fd_max).fd_max == fd_max


class TestDerivedFields:
    def test_max_copies_follows_backups_and_recoveries(self, fig1):
        copies = {
            scheme: prepared(factory(), fig1).max_copies
            for scheme, factory in SCHEME_FACTORIES.items()
        }
        assert copies.pop("ReExecution_FP") == 4  # one main, 3 recoveries
        assert set(copies.values()) == {2}  # a main and its backup
        assert prepared(SingleProcessorFP(), fig1).max_copies == 1
        assert prepared(DistanceBasedPriority(), fig1).max_copies == 1
        assert prepared(ReExecutionFP(max_recoveries=0), fig1).max_copies == 1

    def test_only_the_fd_rule_reads_fd(self):
        pattern = RPattern(MKConstraint(2, 4))
        profile = SchemeProfile(
            "mixed",
            [
                TaskProfile("fd"),
                TaskProfile("pattern", pattern=pattern),
                TaskProfile("all"),
                TaskProfile("fd", fd_max=None),
            ],
        )
        assert isinstance(profile.tasks, tuple)
        assert profile.reads_flexibility_degree == [True, False, False, True]
