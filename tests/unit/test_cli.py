"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.analysis.hyperperiod import analysis_horizon
from repro.analysis.postponement import task_postponement_intervals
from repro.cli import main, parse_taskset
from repro.errors import ReproError
from repro.workload.generator import TaskSetGenerator
from repro.workload.serialization import save_taskset


class TestParseTaskset:
    def test_two_tasks(self):
        ts = parse_taskset("5,4,3,2,4; 10,10,3,1,2")
        assert len(ts) == 2
        assert ts[0].paper_tuple() == (5, 4, 3, 2, 4)

    def test_fractional_fields(self):
        ts = parse_taskset("5, 5/2, 2, 2, 4")
        assert str(ts[0].deadline) == "5/2"

    def test_trailing_semicolon_ok(self):
        assert len(parse_taskset("5,5,1,1,2;")) == 1

    def test_wrong_field_count(self):
        with pytest.raises(ReproError):
            parse_taskset("5,4,3,2")

    def test_empty(self):
        with pytest.raises(ReproError):
            parse_taskset(" ; ")


class TestCommands:
    def test_analyze_preset(self, capsys):
        assert main(["analyze", "--preset", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "theta_i" in out and "7" in out and "4" in out

    def test_analyze_inline(self, capsys):
        code = main(["analyze", "--tasks", "5,4,3,2,4; 10,10,3,1,2"])
        assert code == 0
        assert "R-pattern schedulable: True" in capsys.readouterr().out

    def test_simulate_dp_fig1(self, capsys):
        code = main(
            [
                "simulate",
                "--preset",
                "fig1",
                "--scheme",
                "MKSS_DP",
                "--horizon",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "active energy: 15" in out
        assert "mk_violations: 0" in out

    def test_simulate_without_gantt(self, capsys):
        main(
            [
                "simulate",
                "--preset",
                "fig1",
                "--no-gantt",
                "--horizon",
                "20",
            ]
        )
        assert "primary" not in capsys.readouterr().out

    def test_simulate_no_trace_matches_trace_run(self, capsys):
        args = ["simulate", "--preset", "fig1", "--no-gantt", "--horizon", "20"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--no-trace"]) == 0
        stats = capsys.readouterr().out
        assert plain == stats

    def test_simulate_no_trace_rejects_export(self, capsys, tmp_path):
        code = main(
            [
                "simulate",
                "--preset",
                "fig1",
                "--no-trace",
                "--horizon",
                "20",
                "--export",
                str(tmp_path / "trace.json"),
            ]
        )
        assert code == 2
        assert "needs an execution trace" in capsys.readouterr().err

    def test_simulate_unknown_scheme_errors(self, capsys):
        code = main(
            ["simulate", "--preset", "fig1", "--scheme", "MKSS_Nope"]
        )
        assert code == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_missing_taskset_errors(self, capsys):
        assert main(["analyze"]) == 2

    def test_unknown_preset_errors(self, capsys):
        assert main(["analyze", "--preset", "fig9"]) == 2

    def test_examples_lists_presets(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig3", "fig5"):
            assert name in out

    def test_sweep_with_custom_bins(self, capsys):
        code = main(
            [
                "sweep",
                "--bins",
                "0.4:0.5",
                "--sets-per-bin",
                "2",
                "--horizon",
                "300",
                "--chart",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[0.4,0.5)" in out
        assert "legend:" in out

    def test_sweep_with_journal_and_events(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        events = tmp_path / "events.jsonl"
        args = [
            "sweep",
            "--bins",
            "0.4:0.5",
            "--sets-per-bin",
            "1",
            "--horizon",
            "300",
            "--journal",
            str(journal),
            "--events",
            str(events),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "jobs finished" in out  # resilience summary printed
        assert "run id" in out
        assert journal.exists() and events.exists()
        # resume consumes the journal: every job is skipped, same table
        assert main(args + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "[0.4,0.5)" in resumed_out
        skipped = [
            line
            for line in resumed_out.splitlines()
            if "jobs skipped (journal)" in line
        ]
        assert skipped and "3" in skipped[0]

    def test_sweep_release_model_flags(self, capsys):
        base = [
            "sweep",
            "--bins",
            "0.4:0.5",
            "--sets-per-bin",
            "2",
            "--horizon",
            "300",
        ]
        assert main(base) == 0
        periodic = capsys.readouterr().out
        sporadic_args = base + [
            "--release-model",
            "light",
            "--release-seed",
            "3",
            "--initial-history",
            "miss",
            "--validate",
            "1",
        ]
        assert main(sporadic_args) == 0
        sporadic = capsys.readouterr().out
        assert "[0.4,0.5)" in sporadic
        assert "validation: " in sporadic
        # The knobs are live: the energy table moves off the happy path.
        assert sporadic.splitlines()[:4] != periodic.splitlines()[:4]

    def test_sweep_explicit_periodic_flags_change_nothing(self, capsys):
        base = [
            "sweep",
            "--bins",
            "0.4:0.5",
            "--sets-per-bin",
            "2",
            "--horizon",
            "300",
        ]
        assert main(base) == 0
        implicit = capsys.readouterr().out
        assert main(
            base + ["--release-model", "periodic", "--initial-history", "met"]
        ) == 0
        explicit = capsys.readouterr().out
        mask = re.compile(r"sets in \d+(\.\d+)?s")
        assert mask.sub("sets in Xs", explicit) == mask.sub(
            "sets in Xs", implicit
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--bins", "0.4:0.5", "--no-trace"],
            ["simulate", "--preset", "fig5", "--fold"],
            ["sweep", "--bins", "0.4:0.5", "--fold"],
            ["triage", "--no-fold"],
            ["validate", "--preset", "fig1", "--modes", "trace,stats"],
            ["sweep", "--bins", "0.4:0.5", "--backend", "serial"],
        ],
        ids=[
            "sweep-no-trace",
            "simulate-fold",
            "sweep-fold",
            "triage-no-fold",
            "validate-modes",
            "sweep-backend-serial",
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        # Sweep jobs always run stats-only, so the flag selecting it is
        # gone from `sweep` (`simulate --no-trace` stays); cycle folding
        # is gone, and its flags with it; `validate` always audits both
        # modes.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[-1] in capsys.readouterr().err

    def test_sweep_repeated_bin_errors(self, capsys):
        assert main(["sweep", "--bins", "0.2:0.3,0.2:0.3"]) == 2
        assert "bins repeat" in capsys.readouterr().err

    def test_sweep_resume_mismatched_journal_errors(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        base = [
            "sweep",
            "--sets-per-bin",
            "1",
            "--horizon",
            "300",
            "--journal",
            str(journal),
        ]
        assert main(base + ["--bins", "0.4:0.5"]) == 0
        capsys.readouterr()
        code = main(base + ["--bins", "0.5:0.6", "--resume"])
        assert code == 2
        assert "different sweep" in capsys.readouterr().err

    def test_sweep_force_new_recovers_corrupt_journal(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        base = [
            "sweep",
            "--sets-per-bin",
            "1",
            "--horizon",
            "300",
            "--bins",
            "0.4:0.5",
            "--journal",
            str(journal),
        ]
        assert main(base) == 0
        capsys.readouterr()
        # Byte-truncate the header: --resume must refuse with the
        # recovery hint, and --resume --force-new must start over.
        journal.write_bytes(journal.read_bytes()[:20])
        assert main(base + ["--resume"]) == 2
        assert "force-new" in capsys.readouterr().err
        assert main(base + ["--resume", "--force-new"]) == 0
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["kind"] == "header"


class TestAnalyzeHorizon:
    def test_generated_set_reports_simulate_theta_promptly(self, tmp_path):
        """``analyze`` computes θ at ``simulate``'s default horizon.

        This set's (m,k)-hyperperiod is 622,440,000 ticks; an uncapped θ
        analysis over it did not finish in 100 s.  Capped, the θ column
        is the postponement ``simulate --scheme MKSS_Selective`` applies.
        """
        from repro.cli import SIMULATE_HORIZON_CAP_UNITS

        taskset = TaskSetGenerator(seed=2).generate(0.5)
        path = tmp_path / "generated.json"
        save_taskset(taskset, str(path))
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "--tasks-file", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        )
        base = taskset.timebase()
        thetas = task_postponement_intervals(
            taskset,
            base,
            horizon_ticks=analysis_horizon(
                taskset, base, SIMULATE_HORIZON_CAP_UNITS
            ),
        ).thetas
        rows = [
            line.split() for line in done.stdout.splitlines()
            if line.startswith("tau")
        ]
        assert [row[-1] for row in rows] == [
            str(base.from_ticks(theta)) for theta in thetas
        ]


class TestParseBins:
    def test_valid(self):
        from repro.cli import parse_bins

        assert parse_bins("0.2:0.3, 0.5:0.6") == [(0.2, 0.3), (0.5, 0.6)]

    def test_bad_format(self):
        from repro.cli import parse_bins

        with pytest.raises(ReproError):
            parse_bins("0.2-0.3")

    def test_inverted_bin(self):
        from repro.cli import parse_bins

        with pytest.raises(ReproError):
            parse_bins("0.5:0.4")

    def test_empty(self):
        from repro.cli import parse_bins

        with pytest.raises(ReproError):
            parse_bins(" , ")


class TestValidateCommand:
    def test_all_schemes_on_preset(self, capsys):
        assert main(["validate", "--preset", "fig1", "--horizon", "20"]) == 0
        out = capsys.readouterr().out
        assert "MKSS_Selective" in out
        assert "trace: ok" in out
        assert ": 0 issue(s)" in out

    def test_single_scheme_under_faults(self, capsys):
        code = main(
            [
                "validate",
                "--preset",
                "fig5",
                "--scheme",
                "MKSS_DP",
                "--faults",
                "permanent",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "audited 1 scheme(s) x 2 mode(s): 0 issue(s)" in out

    def test_tasks_file(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        path.write_text(
            '{"tasks": [{"name": "a", "period": "5", "deadline": "5",'
            ' "wcet": "1", "m": 1, "k": 2}]}'
        )
        code = main(
            ["validate", "--tasks-file", str(path), "--scheme", "MKSS_ST"]
        )
        assert code == 0

    def test_unknown_scheme_rejected(self, capsys):
        code = main(["validate", "--preset", "fig1", "--scheme", "Nope"])
        assert code == 2
        assert "unknown scheme 'Nope'" in capsys.readouterr().err

    def test_sweep_validate_flag(self, capsys):
        code = main(
            [
                "sweep",
                "--bins",
                "0.3:0.4",
                "--sets-per-bin",
                "1",
                "--horizon",
                "300",
                "--validate",
                "1",
            ]
        )
        assert code == 0
        assert "validation: 3 audit(s), 0 issue(s)" in capsys.readouterr().out
