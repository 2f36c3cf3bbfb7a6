"""Unit tests for the QoS timeline reporting."""

from __future__ import annotations

import pytest

from repro.qos.timeline import all_timelines, render_timelines, task_timeline
from repro.schedulers import MKSSSelective, MKSSStatic
from repro.sim.engine import StandbySparingEngine


@pytest.fixture
def selective_result(fig1):
    return StandbySparingEngine(fig1, MKSSSelective(alternate=False), 20).run()


class TestTaskTimeline:
    def test_outcome_string_matches_trace(self, selective_result):
        timeline = task_timeline(selective_result, 0)
        # tau1 in Figure 2: J11 missed, J12/J13 effective, J14 skipped.
        assert timeline.outcome_string() == "0110"

    def test_flexibility_degrees_match_records(self, selective_result):
        timeline = task_timeline(selective_result, 0)
        recorded = [
            selective_result.trace.records[(0, j)].flexibility_degree
            for j in range(1, 5)
        ]
        assert timeline.flexibility_degrees == recorded

    def test_window_successes(self, selective_result):
        timeline = task_timeline(selective_result, 0)
        # k=4: only the window ending at job 4 is defined: outcomes 0110.
        assert timeline.window_successes == [None, None, None, 2]
        assert timeline.worst_window == 2
        assert timeline.satisfied  # m=2

    def test_violated_timeline_reports_it(self, fig1):
        from tests.policies import skip_all

        result = StandbySparingEngine(fig1, skip_all(), 40).run()
        timeline = task_timeline(result, 0)
        assert not timeline.satisfied
        assert "VIOLATED" in timeline.render()

    def test_all_timelines_covers_every_task(self, selective_result):
        timelines = all_timelines(selective_result)
        assert set(timelines) == {0, 1}

    def test_render_is_human_readable(self, selective_result):
        text = render_timelines(selective_result)
        assert "task 1 (2,4)" in text
        assert "OK" in text

    def test_short_run_has_no_defined_windows(self, fig1):
        result = StandbySparingEngine(fig1, MKSSStatic(), 5).run()
        timeline = task_timeline(result, 0)  # one job only, k=4
        assert timeline.worst_window is None
        assert timeline.satisfied
