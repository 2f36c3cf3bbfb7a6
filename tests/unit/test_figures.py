"""Tests for the Figure 6 experiment definitions (harness.figures)."""

from __future__ import annotations

import pytest

from repro.harness.figures import (
    DEFAULT_BINS,
    FIGURE_SCENARIOS,
    fig6a,
    fig6b,
    fig6c,
    figure6_series,
)
from repro.harness.protocol import ExperimentProtocol
from repro.workload.generator import generate_binned_tasksets

TINY_BINS = [(0.3, 0.4)]
TINY = ExperimentProtocol(
    bins=TINY_BINS, sets_per_bin=2, horizon_cap_units=300
)


@pytest.fixture(scope="module")
def tiny_pool():
    return generate_binned_tasksets(TINY_BINS, sets_per_bin=2, seed=321)


class TestPanelDefinitions:
    def test_default_bins_cover_unit_interval(self):
        assert DEFAULT_BINS[0] == (0.1, 0.2)
        assert DEFAULT_BINS[-1] == (0.9, 1.0)
        for (lo1, hi1), (lo2, hi2) in zip(DEFAULT_BINS, DEFAULT_BINS[1:]):
            assert hi1 == lo2

    def test_scenario_labels(self):
        assert set(FIGURE_SCENARIOS) == {"fig6a", "fig6b", "fig6c"}

    def test_fig6a_has_no_faults(self, tiny_pool):
        sweep = fig6a(protocol=TINY, tasksets_by_bin=tiny_pool)
        assert sweep.bins[0].taskset_count == 2
        assert sweep.bins[0].normalized_energy["MKSS_ST"] == pytest.approx(1.0)

    def test_fig6b_and_c_are_reproducible(self, tiny_pool):
        kwargs = dict(protocol=TINY, tasksets_by_bin=tiny_pool)
        first = fig6b(**kwargs)
        second = fig6b(**kwargs)
        assert (
            first.bins[0].mean_energy == second.bins[0].mean_energy
        )
        transient = fig6c(**kwargs)
        assert transient.bins[0].taskset_count == 2

    def test_figure6_series_shares_tasksets(self, monkeypatch, tiny_pool):
        calls = {"count": 0}

        def fake_generate(*args, **kwargs):
            calls["count"] += 1
            return tiny_pool

        import repro.harness.figures as figures_module

        monkeypatch.setattr(
            figures_module, "generate_binned_tasksets", fake_generate
        )
        panels = figure6_series(protocol=TINY)
        assert calls["count"] == 1  # one shared pool for all three panels
        assert set(panels) == {"fig6a", "fig6b", "fig6c"}
