"""Unit tests for the sweep results store."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.runner import RunSpec
from repro.harness.store import (
    compare_sweeps,
    load_sweep,
    save_sweep,
    sweep_from_dict,
    sweep_to_dict,
)
from repro.harness.sweep import (
    BinResult,
    DroppedSet,
    SweepResult,
    utilization_sweep,
)


def make_sweep(dp=0.6):
    sweep = SweepResult(
        schemes=("MKSS_ST", "MKSS_DP"), reference_scheme="MKSS_ST"
    )
    sweep.bins.append(
        BinResult(
            bin_range=(0.1, 0.2),
            taskset_count=20,
            mean_energy={"MKSS_ST": 10.0, "MKSS_DP": dp * 10},
            normalized_energy={"MKSS_ST": 1.0, "MKSS_DP": dp},
            mk_violation_count={"MKSS_ST": 0, "MKSS_DP": 0},
            energy_ci95={"MKSS_ST": (9.0, 11.0), "MKSS_DP": (5.0, 7.0)},
        )
    )
    return sweep


class TestRoundTrip:
    def test_dict_round_trip(self):
        sweep = make_sweep()
        restored = sweep_from_dict(sweep_to_dict(sweep))
        assert restored.schemes == sweep.schemes
        assert restored.bins[0].normalized_energy == (
            sweep.bins[0].normalized_energy
        )
        assert restored.bins[0].energy_ci95["MKSS_DP"] == (5.0, 7.0)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(make_sweep(), str(path))
        restored = load_sweep(str(path))
        assert restored.max_reduction("MKSS_DP", "MKSS_ST") == pytest.approx(
            0.4
        )

    def test_round_trip_preserves_compare_sweeps(self, tmp_path):
        before, after = make_sweep(dp=0.6), make_sweep(dp=0.5)
        before_path = tmp_path / "before.json"
        after_path = tmp_path / "after.json"
        save_sweep(before, str(before_path))
        save_sweep(after, str(after_path))
        assert compare_sweeps(
            load_sweep(str(before_path)), load_sweep(str(after_path)), "MKSS_DP"
        ) == compare_sweeps(before, after, "MKSS_DP")

    def test_dropped_sets_round_trip(self):
        sweep = make_sweep()
        sweep.dropped.append(
            DroppedSet(
                bin_range=(0.1, 0.2),
                index=3,
                schemes=("MKSS_DP",),
                reason="timed out after 30s",
            )
        )
        restored = sweep_from_dict(sweep_to_dict(sweep))
        assert restored.dropped == sweep.dropped

    def test_job_payloads_round_trip(self):
        # Regression: job_payloads used to be silently dropped by
        # sweep_to_dict, so a stored (or service-served) sweep lost its
        # per-job payloads.
        sweep = make_sweep()
        sweep.job_payloads["u0.1-0.2|set0|MKSS_ST"] = (10.0, 0)
        sweep.job_payloads["u0.1-0.2|set0|MKSS_DP"] = (6.0, 2)
        restored = sweep_from_dict(sweep_to_dict(sweep))
        assert restored.job_payloads == sweep.job_payloads
        # exact payload types survive: (float, int), key order preserved
        assert list(restored.job_payloads) == list(sweep.job_payloads)
        energy, violations = restored.job_payloads["u0.1-0.2|set0|MKSS_DP"]
        assert isinstance(energy, float) and isinstance(violations, int)

    def test_validation_issues_round_trip(self):
        from repro.harness.sweep import SweepValidation
        from repro.sim.validation import ValidationIssue

        sweep = make_sweep()
        sweep.validation_issues.append(
            SweepValidation(
                job="u0.1-0.2|set0",
                scheme="MKSS_DP",
                mode="stats",
                issue=ValidationIssue(kind="ledger", detail="busy mismatch"),
            )
        )
        restored = sweep_from_dict(sweep_to_dict(sweep))
        assert restored.validation_issues == sweep.validation_issues

    def test_documents_without_new_fields_still_load(self):
        # Forward compatibility: documents stored before job_payloads /
        # validation_issues existed load as empty.
        doc = sweep_to_dict(make_sweep())
        del doc["job_payloads"], doc["validation_issues"]
        restored = sweep_from_dict(doc)
        assert restored.job_payloads == {}
        assert restored.validation_issues == []

    def test_every_sweep_field_round_trips(self):
        # Completeness gate: introspect the dataclass so a future
        # SweepResult field that is not serialized (or not deliberately
        # excluded) fails here instead of silently vanishing from the
        # store and the service.
        import dataclasses

        from repro.harness.store import EXCLUDED_SWEEP_FIELDS
        from repro.harness.sweep import SweepValidation
        from repro.sim.validation import ValidationIssue

        sweep = make_sweep()
        sweep.run_id = "deadbeef"
        sweep.dropped.append(
            DroppedSet(
                bin_range=(0.1, 0.2), index=1, schemes=("MKSS_DP",),
                reason="boom",
            )
        )
        sweep.validation_issues.append(
            SweepValidation(
                job="j", scheme="MKSS_ST", mode="trace",
                issue=ValidationIssue(kind="overlap", detail="d"),
            )
        )
        sweep.job_payloads["j|MKSS_ST"] = (3.5, 1)
        field_names = {f.name for f in dataclasses.fields(SweepResult)}
        assert EXCLUDED_SWEEP_FIELDS <= field_names
        # Every field holds a non-default value, so equality below is a
        # real check, not a default-vs-default tautology.
        for f in dataclasses.fields(SweepResult):
            value = getattr(sweep, f.name)
            assert value, f"test must populate SweepResult.{f.name}"
        restored = sweep_from_dict(sweep_to_dict(sweep))
        for f in dataclasses.fields(SweepResult):
            if f.name in EXCLUDED_SWEEP_FIELDS:
                continue
            assert getattr(restored, f.name) == getattr(sweep, f.name), (
                f"SweepResult.{f.name} does not survive the store round "
                "trip; serialize it in sweep_to_dict/sweep_from_dict or "
                "add it to EXCLUDED_SWEEP_FIELDS with a rationale"
            )

    def test_run_id_not_persisted(self):
        # a resumed sweep (fresh run_id) must serialize identically to
        # its uninterrupted twin
        sweep = make_sweep()
        sweep.run_id = "abc123"
        assert "run_id" not in json.dumps(sweep_to_dict(sweep))

    @pytest.mark.parametrize(
        "payload",
        [
            {"schemes": ["A"]},  # missing reference and bins
            {"schemes": ["A"], "reference_scheme": "A"},  # missing bins
            {"schemes": ["A"], "reference_scheme": "A", "bins": 3},
            {
                "schemes": ["A"],
                "reference_scheme": "A",
                "bins": [{"range": [0.1, 0.2]}],  # bin missing counts
            },
            {
                "schemes": ["A"],
                "reference_scheme": "A",
                "bins": [],
                "dropped": [{"index": 0}],  # drop missing range/schemes
            },
        ],
    )
    def test_malformed_document_rejected(self, payload):
        # corruption surfaces as ConfigurationError, never a raw KeyError
        with pytest.raises(ConfigurationError):
            sweep_from_dict(payload)


class TestResumedSweepPersistence:
    def test_resumed_sweep_stores_identical_json(self, tmp_path):
        kwargs = dict(
            bins=[(0.3, 0.4)],
            sets_per_bin=2,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
        )
        journal = str(tmp_path / "sweep.jsonl")
        uninterrupted = utilization_sweep(journal_path=journal, **kwargs)
        # simulate a crash: keep the header and the first completed job
        with open(journal) as handle:
            lines = handle.read().splitlines()
        with open(journal, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
        resumed = utilization_sweep(
            journal_path=journal, resume=True, **kwargs
        )
        full_path = tmp_path / "full.json"
        resumed_path = tmp_path / "resumed.json"
        save_sweep(uninterrupted, str(full_path))
        save_sweep(resumed, str(resumed_path))
        assert full_path.read_text() == resumed_path.read_text()


class TestCompare:
    def test_delta_computed_per_bin(self):
        before = make_sweep(dp=0.6)
        after = make_sweep(dp=0.5)
        rows = compare_sweeps(before, after, "MKSS_DP")
        assert len(rows) == 1
        label, ref, cand, delta = rows[0]
        assert ref == 0.6 and cand == 0.5
        assert delta == pytest.approx(-0.1)

    def test_missing_bins_skipped(self):
        before = make_sweep()
        after = make_sweep()
        after.bins[0] = BinResult(
            bin_range=(0.3, 0.4),
            taskset_count=20,
            mean_energy={"MKSS_ST": 1.0, "MKSS_DP": 0.5},
            normalized_energy={"MKSS_ST": 1.0, "MKSS_DP": 0.5},
            mk_violation_count={},
        )
        assert compare_sweeps(before, after, "MKSS_DP") == []
