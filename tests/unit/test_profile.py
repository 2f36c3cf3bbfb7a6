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


class TestRuleRanges:
    """Rules the engine and the batch kernel would read differently are
    rejected: the engine indexes per-processor state with the processor
    fields, and the kernel reads a negative backup offset as no backup."""

    @pytest.mark.parametrize("field", ["main_processor", "optional_processor"])
    @pytest.mark.parametrize("value", [-1, 2])
    def test_processor_outside_the_pair_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TaskProfile("fd", fd_max=None, **{field: value})

    def test_negative_backup_offset_rejected(self):
        with pytest.raises(ValueError, match="backup_offset"):
            TaskProfile("all", backup_offset=-1)

    @pytest.mark.parametrize("offsets", [(-1, 0), (0, -4)])
    def test_negative_postfault_offset_rejected(self, offsets):
        with pytest.raises(ValueError, match="postfault_main_offset"):
            TaskProfile("all", postfault_main_offset=offsets)

    def test_negative_recoveries_rejected(self):
        with pytest.raises(ValueError, match="recoveries"):
            SchemeProfile("x", (TaskProfile("all"),), recoveries=-1)

    def test_range_edges_accepted(self):
        for processor in (0, 1):
            rules = TaskProfile(
                "fd",
                fd_max=None,
                main_processor=processor,
                optional_processor=processor,
                backup_offset=0,
                postfault_main_offset=(0, 0),
            )
            assert rules.main_processor == rules.optional_processor == processor
        assert SchemeProfile("x", (rules,), recoveries=0).recoveries == 0

    def test_every_registered_scheme_stays_in_range(self, fig5):
        # Promotion times are floored at 0 and θ at Y, so no shipped
        # profile trips the checks, under a permanent fault's survivor
        # offsets too.
        for factory in SCHEME_FACTORIES.values():
            for rules in prepared(factory(), fig5).tasks:
                assert rules.main_processor in (0, 1)
                assert rules.backup_offset is None or rules.backup_offset >= 0
                assert min(rules.postfault_main_offset) >= 0


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
