"""Unit tests for the scheme-profile vocabulary's own checks."""

from __future__ import annotations

import pytest

from repro.model.mk import MKConstraint
from repro.model.patterns import RPattern
from repro.sim.profile import TaskProfile


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
