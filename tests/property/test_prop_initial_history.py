"""Differential tests for the initial (m,k)-history boundary condition.

The paper's engine assumed every pre-horizon job met its deadline; the
``initial_history`` knob makes that boundary condition explicit ("met" /
"miss" / "rpattern").  The contract pinned here:

* :func:`make_initial_history` seeds the FD window without polluting the
  violation accounting (``recorded == misses == 0`` in every mode), and
  :func:`packed_initial_window` is its bit-exact batch-kernel twin;
* for every mode, trace mode == stats mode == the batch kernel on the
  full observable surface (the differential triangle the default mode
  has always had);
* the default mode ("met") remains byte-identical to the legacy
  ``initial_met=True`` behaviour.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import RunSpec, run_scheme
from repro.model.history import (
    INITIAL_HISTORY_MODES,
    MKHistory,
    make_initial_history,
    packed_initial_window,
)
from repro.model.mk import MKConstraint
from repro.model.patterns import RPattern
from repro.schedulers import MKSSDualPriority, MKSSSelective, MKSSStatic
from repro.schedulers.base import run_policy
from repro.workload.generator import TaskSetGenerator
from tests.property.test_prop_stats_mode import metric_view

POLICIES = (MKSSStatic, MKSSDualPriority, MKSSSelective)

MKS = [MKConstraint(1, 2), MKConstraint(2, 3), MKConstraint(3, 5),
       MKConstraint(1, 4), MKConstraint(5, 7)]


class TestBoundarySeeding:
    @pytest.mark.parametrize("mk", MKS, ids=str)
    def test_met_matches_legacy_default(self, mk):
        seeded = make_initial_history(mk, "met")
        legacy = MKHistory(mk)
        assert seeded.outcomes() == legacy.outcomes()
        assert seeded.flexibility_degree() == legacy.flexibility_degree()

    @pytest.mark.parametrize("mk", MKS, ids=str)
    def test_miss_matches_legacy_false(self, mk):
        seeded = make_initial_history(mk, "miss")
        legacy = MKHistory(mk, initial_met=False)
        assert seeded.outcomes() == legacy.outcomes()
        assert seeded.flexibility_degree() == 0

    @pytest.mark.parametrize("mk", MKS, ids=str)
    def test_rpattern_window_is_the_pattern_tail(self, mk):
        seeded = make_initial_history(mk, "rpattern")
        # Jobs j = 2..k of the R-pattern, oldest first, so the next job
        # sits at j === 1 (mod k): the pattern's mandatory anchor.
        expected = tuple(bool(bit) for bit in RPattern(mk).bits(mk.k)[1:])
        assert seeded.outcomes() == expected

    @pytest.mark.parametrize("mode", INITIAL_HISTORY_MODES)
    @pytest.mark.parametrize("mk", MKS, ids=str)
    def test_counters_start_clean(self, mk, mode):
        seeded = make_initial_history(mk, mode)
        assert seeded.recorded == 0
        assert seeded.misses == 0

    @pytest.mark.parametrize("mode", INITIAL_HISTORY_MODES)
    @pytest.mark.parametrize("mk", MKS, ids=str)
    def test_packed_window_matches_history(self, mk, mode):
        outcomes = make_initial_history(mk, mode).outcomes()
        packed = packed_initial_window(mk, mode)
        for depth, outcome in enumerate(reversed(outcomes)):
            assert bool((packed >> depth) & 1) == outcome
        assert packed < (1 << max(mk.k - 1, 1))


class TestModeAgreement:
    """trace == stats for every boundary condition, on generated sets."""

    @pytest.mark.parametrize("mode", INITIAL_HISTORY_MODES)
    @pytest.mark.parametrize("seed", range(5))
    def test_trace_equals_stats(self, seed, mode):
        taskset = TaskSetGenerator(seed=8800 + seed).generate(
            0.3 + 0.05 * (seed % 4)
        )
        base = taskset.timebase()
        policy_cls = POLICIES[seed % len(POLICIES)]
        trace = run_policy(
            taskset, policy_cls(), 500, base,
            collect_trace=True, initial_history=mode,
        )
        stats = run_policy(
            taskset, policy_cls(), 500, base,
            collect_trace=False, initial_history=mode,
        )
        assert metric_view(stats) == metric_view(trace)

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_condition_changes_behaviour(self, seed):
        """The knob is live: some generated set schedules differently."""
        taskset = TaskSetGenerator(seed=8900 + seed).generate(0.5)
        base = taskset.timebase()
        views = {
            mode: metric_view(
                run_policy(
                    taskset, MKSSSelective(), 500, base,
                    collect_trace=False, initial_history=mode,
                )
            )
            for mode in INITIAL_HISTORY_MODES
        }
        # "met" hands every task free skips that "miss" forbids; on any
        # non-trivial set the two runs cannot coincide everywhere.
        assert views["met"] != views["miss"]


class TestBatchAgreement:
    """The batch kernel honours the knob bit-identically."""

    @pytest.mark.parametrize("mode", INITIAL_HISTORY_MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_equals_scalar(self, seed, mode):
        pytest.importorskip("numpy")
        from repro.sim.batch import build_batch_item, run_batch_payloads

        taskset = TaskSetGenerator(seed=9000 + seed).generate(
            0.3 + 0.05 * (seed % 5)
        )
        schemes = ("MKSS_ST", "MKSS_DP", "MKSS_Selective")
        scheme = schemes[seed % len(schemes)]
        item = build_batch_item(
            taskset, scheme, None,
            run=RunSpec(horizon_cap_units=300, initial_history=mode),
        )
        assert item is not None
        energy, violations = run_batch_payloads([item])[0]
        scalar = run_scheme(
            taskset, scheme,
            run=RunSpec(horizon_cap_units=300, initial_history=mode),
            collect_trace=False,
        )
        assert energy == scalar.total_energy
        assert violations == scalar.metrics.mk_violations

    def test_default_items_unchanged(self):
        pytest.importorskip("numpy")
        from repro.sim.batch import build_batch_item

        taskset = TaskSetGenerator(seed=9100).generate(0.4)
        implicit = build_batch_item(
            taskset, "MKSS_Selective", None, run=RunSpec(horizon_cap_units=200)
        )
        explicit = build_batch_item(
            taskset, "MKSS_Selective", None,
            run=RunSpec(horizon_cap_units=200, initial_history="met"),
        )
        assert implicit.initial_history == explicit.initial_history == "met"
