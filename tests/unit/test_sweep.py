"""Unit tests for the utilization sweep machinery."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, UnknownSchemeError
from repro.faults.scenario import FaultScenario
from repro.harness.events import (
    JOB_DROP,
    JOB_FINISH,
    JOB_RETRY,
    JOB_SKIP,
    RUN_FINISH,
    RUN_START,
    EventLog,
)
from repro.harness.journal import RunJournal
from repro.harness.runner import RunSpec
from repro.harness.sweep import (
    DROPPED,
    OK,
    SWEEP_BACKENDS,
    BinResult,
    ExecutionPolicy,
    SweepResult,
    _config_key,
    _freeze,
    execute_jobs,
    utilization_sweep,
)
from repro.workload.generator import GeneratorConfig


@pytest.fixture(scope="module")
def small_sweep():
    return utilization_sweep(
        bins=[(0.3, 0.4), (0.6, 0.7)],
        sets_per_bin=3,
        seed=77,
        run=RunSpec(horizon_cap_units=500),
    )


class TestUtilizationSweep:
    def test_reference_normalizes_to_one(self, small_sweep):
        for bucket in small_sweep.bins:
            assert bucket.normalized_energy["MKSS_ST"] == pytest.approx(1.0)

    def test_all_bins_populated(self, small_sweep):
        assert len(small_sweep.bins) == 2
        assert all(b.taskset_count == 3 for b in small_sweep.bins)

    def test_no_mk_violations_anywhere(self, small_sweep):
        for bucket in small_sweep.bins:
            assert all(v == 0 for v in bucket.mk_violation_count.values())

    def test_dp_and_selective_below_reference(self, small_sweep):
        for bucket in small_sweep.bins:
            assert bucket.normalized_energy["MKSS_DP"] < 1.0
            assert bucket.normalized_energy["MKSS_Selective"] < 1.0

    def test_series_extraction(self, small_sweep):
        series = small_sweep.series("MKSS_DP")
        assert len(series) == 2
        assert all(isinstance(label, str) for label, _ in series)

    def test_max_reduction_nonnegative(self, small_sweep):
        assert small_sweep.max_reduction("MKSS_Selective", "MKSS_ST") > 0

    def test_reference_must_be_included(self):
        with pytest.raises(ConfigurationError):
            utilization_sweep(
                bins=[(0.3, 0.4)],
                schemes=("MKSS_DP", "MKSS_Selective"),
                reference_scheme="MKSS_ST",
            )

    def test_parallel_matches_sequential(self):
        from repro.workload.generator import generate_binned_tasksets

        bins = [(0.3, 0.4)]
        pool = generate_binned_tasksets(bins, sets_per_bin=2, seed=13)
        sequential = utilization_sweep(
            bins, tasksets_by_bin=pool, run=RunSpec(horizon_cap_units=300)
        )
        parallel = utilization_sweep(
            bins,
            tasksets_by_bin=pool,
            run=RunSpec(horizon_cap_units=300),
            workers=2,
        )
        assert [b.mean_energy for b in sequential.bins] == [
            b.mean_energy for b in parallel.bins
        ]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            utilization_sweep([(0.3, 0.4)], workers=0, tasksets_by_bin={})

    def test_scenario_factory_invoked_per_set(self):
        calls = []

        def factory(index):
            calls.append(index)
            return FaultScenario.none()

        utilization_sweep(
            bins=[(0.3, 0.4)],
            sets_per_bin=2,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
            scenario_factory=factory,
        )
        assert calls == [0, 1]

    def test_unknown_scheme_rejected_upfront(self):
        with pytest.raises(UnknownSchemeError):
            utilization_sweep(
                bins=[(0.3, 0.4)],
                schemes=("MKSS_ST", "MKSS_Bogus"),
                tasksets_by_bin={},
            )

    def test_resume_requires_journal_path(self):
        with pytest.raises(ConfigurationError):
            utilization_sweep([(0.3, 0.4)], resume=True, tasksets_by_bin={})


def make_result(st=10.0, dp=12.0):
    """A one-bin sweep result with configurable mean energies."""
    sweep = SweepResult(
        schemes=("MKSS_ST", "MKSS_DP"), reference_scheme="MKSS_ST"
    )
    sweep.bins.append(
        BinResult(
            bin_range=(0.1, 0.2),
            taskset_count=5,
            mean_energy={"MKSS_ST": st, "MKSS_DP": dp},
            normalized_energy={
                "MKSS_ST": 1.0,
                "MKSS_DP": dp / st if st else 0.0,
            },
            mk_violation_count={"MKSS_ST": 0, "MKSS_DP": 0},
        )
    )
    return sweep


class TestMaxReduction:
    def test_positive_reduction_reported(self):
        assert make_result(10.0, 6.0).max_reduction(
            "MKSS_DP", "MKSS_ST"
        ) == pytest.approx(0.4)

    def test_regression_not_clamped_to_zero(self):
        # The scheme is WORSE than the baseline in every bin: the true
        # signed maximum is negative and must stay visible.
        assert make_result(10.0, 12.0).max_reduction(
            "MKSS_DP", "MKSS_ST"
        ) == pytest.approx(-0.2)

    def test_best_bin_wins_even_when_others_regress(self):
        sweep = make_result(10.0, 12.0)
        sweep.bins.append(
            BinResult(
                bin_range=(0.2, 0.3),
                taskset_count=5,
                mean_energy={"MKSS_ST": 10.0, "MKSS_DP": 9.0},
                normalized_energy={"MKSS_ST": 1.0, "MKSS_DP": 0.9},
                mk_violation_count={"MKSS_ST": 0, "MKSS_DP": 0},
            )
        )
        assert sweep.max_reduction("MKSS_DP", "MKSS_ST") == pytest.approx(0.1)

    def test_no_comparable_bins_returns_zero(self):
        empty = SweepResult(
            schemes=("MKSS_ST", "MKSS_DP"), reference_scheme="MKSS_ST"
        )
        assert empty.max_reduction("MKSS_DP", "MKSS_ST") == 0.0
        zero_baseline = make_result(0.0, 5.0)
        assert zero_baseline.max_reduction("MKSS_DP", "MKSS_ST") == 0.0


class TestFreeze:
    def test_lists_and_tuples(self):
        assert _freeze([1, (2, [3])]) == (1, (2, (3,)))

    def test_dicts_become_sorted_item_tuples(self):
        assert _freeze({"b": 2, "a": [1]}) == (("a", (1,)), ("b", 2))

    def test_sets_become_sorted_tuples(self):
        assert _freeze({3, 1, 2}) == (1, 2, 3)

    def test_config_key_hashable_with_dict_bearing_config(self):
        config = GeneratorConfig()
        # A dict-valued field used to make the key unhashable and crash
        # worker-side regeneration memo lookups.
        config.period_range = {"lo": 5, "hi": 50}
        config.period_choices = {8, 10, 12}
        key = _config_key(config)
        assert hash(key) == hash(_config_key(config))
        assert {key: "memo"}[key] == "memo"


def _double(job):
    return job * 2


class TestExecutionPolicy:
    def test_defaults_valid(self):
        policy = ExecutionPolicy()
        assert policy.job_timeout is None and policy.max_retries == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"job_timeout": 0.0},
            {"job_timeout": -1.0},
            {"max_retries": -1},
            {"retry_backoff": -0.5},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(**kwargs)


class TestExecuteJobsInline:
    def test_results_aligned_with_jobs(self):
        results = execute_jobs([1, 2, 3], worker=_double)
        assert results == [(OK, 2), (OK, 4), (OK, 6)]

    def test_failed_job_retried_then_dropped_without_raising(self):
        attempts = []

        def worker(job):
            attempts.append(job)
            if job == "bad":
                raise ValueError("poison")
            return job

        log = EventLog()
        results = execute_jobs(
            ["a", "bad", "b"],
            worker=worker,
            policy=ExecutionPolicy(max_retries=2),
            events=log,
        )
        assert results[0] == (OK, "a") and results[2] == (OK, "b")
        tag, reason = results[1]
        assert tag == DROPPED and "poison" in reason
        assert attempts.count("bad") == 3  # first try + 2 retries
        assert log.counts()[JOB_RETRY] == 2
        assert log.counts()[JOB_DROP] == 1

    def test_completed_map_skips_jobs(self):
        calls = []

        def worker(job):
            calls.append(job)
            return job

        log = EventLog()
        results = execute_jobs(
            ["a", "b"],
            worker=worker,
            keys=["ka", "kb"],
            completed={"ka": "from-journal"},
            events=log,
        )
        assert results == [(OK, "from-journal"), (OK, "b")]
        assert calls == ["b"]
        assert log.counts()[JOB_SKIP] == 1

    def test_journal_records_finished_jobs(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j.jsonl"))
        journal.start({"f": 1}, run_id="r")
        execute_jobs([5], worker=_double, keys=["k5"], journal=journal)
        journal.close()
        _, entries = RunJournal(str(tmp_path / "j.jsonl")).load()
        assert entries["k5"]["value"] == 10

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_jobs([1, 2], worker=_double, keys=["same", "same"])

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_jobs([1, 2], worker=_double, keys=["only-one"])


class TestDropAsPair:
    def test_failing_scheme_drops_whole_taskset_pair(self, monkeypatch):
        from repro.harness import sweep as sweep_module

        real = sweep_module._run_one

        def sabotaged(job):
            _, scheme, _, _ = job  # (taskset, scheme, scenario, run)
            if scheme == "MKSS_DP" and sabotaged.armed:
                sabotaged.armed = False
                sabotaged.tripped = True
                raise RuntimeError("injected failure")
            return real(job)

        sabotaged.armed = True
        sabotaged.tripped = False
        monkeypatch.setattr(sweep_module, "_run_one", sabotaged)
        log = EventLog()
        sweep = utilization_sweep(
            bins=[(0.3, 0.4)],
            sets_per_bin=3,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
            max_retries=0,
            events=log,
        )
        assert sabotaged.tripped
        assert len(sweep.dropped) == 1
        drop = sweep.dropped[0]
        assert drop.schemes == ("MKSS_DP",)
        assert "injected failure" in drop.reason
        assert drop.bin_range == (0.3, 0.4)
        # the pair left the aggregation: 2 of 3 sets remain, still paired
        assert sweep.bins[0].taskset_count == 2
        assert log.counts()[JOB_DROP] == 1
        assert log.of_kind(RUN_FINISH)[0].data["dropped"] == 1

    def test_untouched_sets_unchanged_by_drop(self, monkeypatch):
        from repro.harness import sweep as sweep_module

        reference = utilization_sweep(
            bins=[(0.3, 0.4)],
            sets_per_bin=2,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
        )
        real = sweep_module._run_one
        state = {"count": 0}

        def last_set_fails(job):
            state["count"] += 1
            # jobs run in (set, scheme) order: the last 3 belong to set 2
            if state["count"] > 2 * 3:
                raise RuntimeError("set 2 is cursed")
            return real(job)

        monkeypatch.setattr(sweep_module, "_run_one", last_set_fails)
        degraded = utilization_sweep(
            bins=[(0.3, 0.4)],
            sets_per_bin=3,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
            max_retries=0,
        )
        # dropping set 2 must reproduce the 2-set aggregation exactly
        assert degraded.bins[0].mean_energy == reference.bins[0].mean_energy
        assert len(degraded.dropped) == 1

    def test_bin_omitted_when_every_set_dropped(self, monkeypatch):
        from repro.harness import sweep as sweep_module

        monkeypatch.setattr(
            sweep_module,
            "_run_one",
            lambda job: (_ for _ in ()).throw(RuntimeError("all fail")),
        )
        sweep = utilization_sweep(
            bins=[(0.3, 0.4)],
            sets_per_bin=2,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
            max_retries=0,
        )
        assert sweep.bins == []
        assert len(sweep.dropped) == 2


class TestJournalResume:
    def test_sequential_resume_runs_only_remainder(self, tmp_path, monkeypatch):
        from repro.harness import sweep as sweep_module

        path = str(tmp_path / "sweep.jsonl")
        kwargs = dict(
            bins=[(0.3, 0.4)],
            sets_per_bin=2,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
        )
        full = utilization_sweep(journal_path=path, **kwargs)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + (2 sets x 3 schemes)
        # simulate a crash after the first two jobs finished
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:3]) + "\n")

        real = sweep_module._run_one
        calls = []

        def counting(job):
            calls.append(job)
            return real(job)

        monkeypatch.setattr(sweep_module, "_run_one", counting)
        log = EventLog()
        resumed = utilization_sweep(
            journal_path=path, resume=True, events=log, **kwargs
        )
        assert len(calls) == 4  # 6 jobs - 2 already journaled
        assert log.counts()[JOB_SKIP] == 2
        assert log.counts()[JOB_FINISH] == 4
        assert [b.mean_energy for b in resumed.bins] == [
            b.mean_energy for b in full.bins
        ]
        assert [b.energy_ci95 for b in resumed.bins] == [
            b.energy_ci95 for b in full.bins
        ]

    def test_resume_with_different_config_refused(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        utilization_sweep(
            bins=[(0.3, 0.4)],
            sets_per_bin=2,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
            journal_path=path,
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            utilization_sweep(
                bins=[(0.3, 0.4)],
                sets_per_bin=2,
                seed=78,  # different workload
                run=RunSpec(horizon_cap_units=300),
                journal_path=path,
                resume=True,
            )

    def test_run_events_emitted(self):
        log = EventLog()
        utilization_sweep(
            bins=[(0.3, 0.4)],
            sets_per_bin=1,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
            events=log,
        )
        assert log.of_kind(RUN_START)[0].data["jobs"] == 3
        finish = log.of_kind(RUN_FINISH)[0]
        assert finish.data == {"completed": 3, "dropped": 0}
        assert all(event.run_id == log.run_id for event in log.events)


class TestValidationSampling:
    def test_validate_runs_auditor_and_emits_events(self):
        from repro.harness.events import VALIDATE, VALIDATION_ISSUE

        log = EventLog()
        sweep = utilization_sweep(
            bins=[(0.3, 0.4)],
            sets_per_bin=2,
            seed=77,
            run=RunSpec(horizon_cap_units=300),
            scenario_factory=lambda index: FaultScenario.permanent_only(
                seed=4000 + index
            ),
            events=log,
            validate=2,
        )
        audits = log.of_kind(VALIDATE)
        assert len(audits) == 2 * len(sweep.schemes)
        assert {event.data["scheme"] for event in audits} == set(sweep.schemes)
        assert all(
            event.data["modes"] == ["trace", "stats"] for event in audits
        )
        # Healthy engine + schemes: the sampled audits find nothing.
        assert sweep.validation_issues == []
        assert log.of_kind(VALIDATION_ISSUE) == []
        # Validation events precede the run-finish event.
        finish_seq = log.of_kind(RUN_FINISH)[0].seq
        assert all(event.seq < finish_seq for event in audits)

    def test_negative_validate_rejected(self):
        with pytest.raises(ConfigurationError):
            utilization_sweep([(0.3, 0.4)], validate=-1, tasksets_by_bin={})


class TestBackends:
    def test_unknown_backend_rejected(self):
        from repro.service.spec import SweepSpec

        with pytest.raises(ConfigurationError, match="unknown backend"):
            utilization_sweep(
                [(0.3, 0.4)], backend="quantum", tasksets_by_bin={}
            )
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SweepSpec(backend="quantum")

    @pytest.mark.parametrize("backend", SWEEP_BACKENDS)
    @pytest.mark.parametrize(
        "bins,schemes,message",
        [
            ([(0.2, 0.3)], ["MKSS_ST", "MKSS_ST", "MKSS_DP"], "schemes repeat"),
            ([(0.2, 0.3), (0.2, 0.3)], ["MKSS_ST", "MKSS_DP"], "bins repeat"),
            ([(0.3, 0.2)], ["MKSS_ST"], "bad bin"),
        ],
        ids=["repeated-scheme", "repeated-bin", "inverted-bin"],
    )
    def test_bad_sweep_rejected_before_any_work(
        self, backend, bins, schemes, message
    ):
        # A repeat would run one set's jobs twice under one key; no
        # event may fire, so nothing was generated or run.
        log = EventLog()
        with pytest.raises(ConfigurationError, match=message):
            utilization_sweep(
                bins=bins,
                schemes=schemes,
                sets_per_bin=1,
                backend=backend,
                events=log,
            )
        assert log.events == []
