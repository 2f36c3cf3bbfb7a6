"""Unit tests for report formatting and the stats helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.harness.events import (
    BATCH_PROGRESS,
    JOB_DROP,
    JOB_FINISH,
    JOB_RETRY,
    JOB_SKIP,
    POOL_RESPAWN,
    EventLog,
)
from repro.harness.report import (
    format_event_summary,
    format_series_table,
    format_table,
)
from repro.harness.stats import confidence_interval95, mean, sample_std
from repro.harness.sweep import BinResult, DroppedSet, SweepResult


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "long"], [["xx", "1"], ["y", "22"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_header_contents(self):
        table = format_table(["col"], [["v"]])
        assert table.splitlines()[0].strip() == "col"


class TestFormatSeriesTable:
    def make_sweep(self):
        sweep = SweepResult(
            schemes=("MKSS_ST", "MKSS_DP"), reference_scheme="MKSS_ST"
        )
        sweep.bins.append(
            BinResult(
                bin_range=(0.1, 0.2),
                taskset_count=20,
                mean_energy={"MKSS_ST": 10.0, "MKSS_DP": 6.0},
                normalized_energy={"MKSS_ST": 1.0, "MKSS_DP": 0.6},
                mk_violation_count={"MKSS_ST": 0, "MKSS_DP": 0},
            )
        )
        return sweep

    def test_rows_and_title(self):
        text = format_series_table(self.make_sweep(), "panel A")
        assert "panel A" in text
        assert "[0.1,0.2)" in text
        assert "0.600" in text

    def test_max_reduction_footer(self):
        text = format_series_table(self.make_sweep())
        assert "max reduction MKSS_DP vs MKSS_ST: 40.0%" in text

    def test_dropped_sets_surface_in_footer(self):
        sweep = self.make_sweep()
        sweep.dropped.append(
            DroppedSet(
                bin_range=(0.1, 0.2),
                index=7,
                schemes=("MKSS_DP",),
                reason="timed out after 30s",
            )
        )
        text = format_series_table(sweep)
        assert "dropped task sets" in text
        assert "[0.1,0.2) set 7: MKSS_DP -- timed out after 30s" in text

    def test_no_drop_footer_when_nothing_dropped(self):
        assert "dropped" not in format_series_table(self.make_sweep())


class TestFormatEventSummary:
    def test_counts_and_wall_stats(self):
        log = EventLog(run_id="runX")
        log.emit(JOB_FINISH, job="a", wall_s=1.0)
        log.emit(JOB_FINISH, job="b", wall_s=3.0)
        log.emit(JOB_SKIP, job="c")
        log.emit(JOB_RETRY, job="d", reason="boom")
        log.emit(JOB_DROP, job="d", reason="boom")
        log.emit(POOL_RESPAWN, pending=1)
        text = format_event_summary(log)
        assert "runX" in text
        for label, value in [
            ("jobs finished", "2"),
            ("jobs skipped (journal)", "1"),
            ("job retries", "1"),
            ("jobs dropped", "1"),
            ("pool respawns", "1"),
        ]:
            assert any(
                label in line and value in line
                for line in text.splitlines()
            ), (label, value, text)
        assert "2.000/3.000" in text

    def test_empty_log_renders(self):
        text = format_event_summary(EventLog(run_id="empty"))
        assert "jobs finished" in text
        assert "wall time" not in text
        assert "batch" not in text

    def test_batch_row_reads_the_final_progress_event(self):
        log = EventLog(run_id="batched")
        log.emit(BATCH_PROGRESS, done=40, total=327, sims_per_s=80.0)
        log.emit(
            BATCH_PROGRESS,
            done=327,
            total=327,
            sims_per_s=90.0,
            fallback=3,
            iterations=1714,
        )
        assert "327/3/1714" in format_event_summary(log)
        pooled = EventLog(run_id="chunks")
        pooled.emit(
            BATCH_PROGRESS, done=327, total=327, sims_per_s=90.0, fallback=0
        )
        assert "327/0/-" in format_event_summary(pooled)


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ConfigurationError):
            mean([])

    def test_sample_std(self):
        assert sample_std([2.0, 4.0]) == pytest.approx(2.0**0.5)
        assert sample_std([5.0]) == 0.0

    def test_confidence_interval(self):
        lo, hi = confidence_interval95([1.0, 2.0, 3.0, 4.0])
        assert lo < 2.5 < hi
        assert confidence_interval95([7.0]) == (7.0, 7.0)
