"""Cross-scheme integration tests: the orderings Figure 6 relies on."""

from __future__ import annotations

import pytest

from repro.energy.power import PowerModel
from repro.faults.scenario import FaultScenario
from repro.harness.runner import RunSpec, run_scheme
from repro.harness.sweep import utilization_sweep
from repro.workload.generator import TaskSetGenerator

RUN_1000 = RunSpec(horizon_cap_units=1000)
RUN_800 = RunSpec(horizon_cap_units=800)


@pytest.fixture(scope="module")
def mid_utilization_sets():
    generator = TaskSetGenerator(seed=2468)
    return [generator.generate(0.55) for _ in range(6)]


class TestEnergyOrdering:
    def test_dp_below_st_on_average(self, mid_utilization_sets):
        st_total = dp_total = 0.0
        for ts in mid_utilization_sets:
            st_total += run_scheme(ts, "MKSS_ST", run=RUN_1000).total_energy
            dp_total += run_scheme(ts, "MKSS_DP", run=RUN_1000).total_energy
        assert dp_total < st_total

    def test_selective_below_dp_at_mid_utilization(self, mid_utilization_sets):
        dp_total = sel_total = 0.0
        for ts in mid_utilization_sets:
            dp_total += run_scheme(ts, "MKSS_DP", run=RUN_1000).total_energy
            sel_total += run_scheme(
                ts, "MKSS_Selective", run=RUN_1000
            ).total_energy
        assert sel_total < dp_total

    def test_selective_never_above_st(self, mid_utilization_sets):
        for ts in mid_utilization_sets:
            st = run_scheme(ts, "MKSS_ST", run=RUN_800)
            sel = run_scheme(ts, "MKSS_Selective", run=RUN_800)
            assert sel.total_energy <= st.total_energy * 1.0001

    def test_alternation_helps_or_matches_noalt(self, mid_utilization_sets):
        """Alternating optionals across processors lets more of them
        complete; it should not lose to primary-only placement overall."""
        alt = noalt = 0.0
        for ts in mid_utilization_sets:
            alt += run_scheme(ts, "MKSS_Selective", run=RUN_800).total_energy
            noalt += run_scheme(
                ts, "MKSS_Selective_NoAlt", run=RUN_800
            ).total_energy
        assert alt <= noalt * 1.05


class TestFaultScenarioOrdering:
    def test_ordering_survives_permanent_faults(self, mid_utilization_sets):
        st_total = sel_total = 0.0
        for index, ts in enumerate(mid_utilization_sets):
            scenario = FaultScenario.permanent_only(seed=index)
            st_total += run_scheme(
                ts, "MKSS_ST", scenario, RUN_800
            ).total_energy
            sel_total += run_scheme(
                ts, "MKSS_Selective", scenario, RUN_800
            ).total_energy
        assert sel_total < st_total


class TestSweepShape:
    def test_mini_sweep_matches_paper_shape(self):
        sweep = utilization_sweep(
            bins=[(0.4, 0.5), (0.7, 0.8)],
            sets_per_bin=5,
            seed=99,
            run=RUN_800,
        )
        assert sweep.bins, "bins must be populated"
        for bucket in sweep.bins:
            assert bucket.normalized_energy["MKSS_DP"] < 1.0
            assert bucket.normalized_energy["MKSS_Selective"] < 1.0
        # The paper's headline: selective saves versus DP somewhere.
        assert sweep.max_reduction("MKSS_Selective", "MKSS_DP") > 0.0
