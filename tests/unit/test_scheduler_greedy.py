"""Unit tests for the greedy motivational scheme."""

from __future__ import annotations

from repro.faults.scenario import FaultScenario
from repro.schedulers import MKSSGreedy, MKSSSelective
from repro.sim.engine import PRIMARY, SPARE
from tests.policies import prepared


class TestGreedyBehaviour:
    def test_runs_all_feasible_optionals(self, fig3, active_runner):
        result, _ = active_runner(fig3, MKSSGreedy(), 25)
        executed_optionals = sum(
            1
            for r in result.trace.records.values()
            if r.classified_as == "optional"
        )
        sel_result, _ = active_runner(fig3, MKSSSelective(), 25)
        selected = sum(
            1
            for r in sel_result.trace.records.values()
            if r.classified_as == "optional"
        )
        assert executed_optionals > selected

    def test_optionals_confined_to_primary(self, fig3, active_runner):
        result, _ = active_runner(fig3, MKSSGreedy(), 25)
        assert all(
            s.processor == PRIMARY
            for s in result.trace.segments
            if s.role == "optional"
        )

    def test_nonpreemptive_by_default(self, fig3):
        assert prepared(MKSSGreedy(), fig3).optional_preemption is False
        assert prepared(MKSSGreedy(preemptive=True), fig3).optional_preemption is True

    def test_preemptive_variant_spends_more_here(self, fig3, active_runner):
        _, lazy = active_runner(fig3, MKSSGreedy(), 25)
        _, eager = active_runner(fig3, MKSSGreedy(preemptive=True), 25)
        assert eager >= lazy

    def test_mk_maintained(self, fig1, fig3, active_runner):
        for ts, horizon in ((fig1, 20), (fig3, 25)):
            result, _ = active_runner(ts, MKSSGreedy(), horizon)
            assert result.all_mk_satisfied()

    def test_mk_under_permanent_fault(self, fig3, active_runner):
        for processor in (0, 1):
            scenario = FaultScenario.permanent_only(processor=processor, tick=6)
            result, _ = active_runner(fig3, MKSSGreedy(), 25, scenario=scenario)
            assert result.all_mk_satisfied()

    def test_greedy_loses_to_selective_on_modest_load(self, fig3, active_runner):
        """The motivation's whole point (Figures 3 vs 4)."""
        _, greedy = active_runner(fig3, MKSSGreedy(), 25)
        _, selective = active_runner(fig3, MKSSSelective(), 25)
        assert selective < greedy
