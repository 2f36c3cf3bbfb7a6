"""Unit tests for the run journal (harness.journal)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.journal import JOURNAL_VERSION, RunJournal

FP = {"kind": "utilization_sweep", "seed": 7, "bins": [[0.3, 0.4]]}


def started(path, resume=False, fingerprint=None):
    journal = RunJournal(str(path))
    completed = journal.start(fingerprint or FP, run_id="r1", resume=resume)
    return journal, completed


class TestFreshStart:
    def test_header_written_first(self, tmp_path):
        journal, completed = started(tmp_path / "j.jsonl")
        journal.close()
        assert completed == {}
        header = json.loads((tmp_path / "j.jsonl").read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["version"] == JOURNAL_VERSION
        assert header["fingerprint"] == FP

    def test_records_appended_and_flushed(self, tmp_path):
        journal, _ = started(tmp_path / "j.jsonl")
        journal.record("job-a", [10.0, 0], wall_s=0.5, attempt=1)
        # flushed before close: a crashed parent keeps completed work
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2
        journal.close()
        doc = json.loads(lines[1])
        assert doc == {
            "kind": "job",
            "key": "job-a",
            "value": [10.0, 0],
            "wall_s": 0.5,
            "attempt": 1,
        }

    def test_fresh_start_truncates_existing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("old", 1)
        journal.close()
        journal, completed = started(path, resume=False)
        journal.close()
        assert completed == {}
        _, entries = RunJournal(str(path)).load()
        assert entries == {}

    def test_record_before_start_rejected(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(ConfigurationError):
            journal.record("k", 1)


class TestResume:
    def test_completed_jobs_returned(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", [1.5, 0])
        journal.record("b", [2.5, 1])
        journal.close()
        journal, completed = started(path, resume=True)
        journal.close()
        assert completed == {"a": [1.5, 0], "b": [2.5, 1]}

    def test_resume_appends_not_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", 1)
        journal.close()
        journal, _ = started(path, resume=True)
        journal.record("b", 2)
        journal.close()
        _, entries = RunJournal(str(path)).load()
        assert set(entries) == {"a", "b"}

    def test_missing_file_resume_starts_fresh(self, tmp_path):
        journal, completed = started(tmp_path / "new.jsonl", resume=True)
        journal.close()
        assert completed == {}
        assert (tmp_path / "new.jsonl").exists()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.close()
        other = dict(FP, seed=8)
        with pytest.raises(ConfigurationError, match="different sweep"):
            started(path, resume=True, fingerprint=other)

    def test_duplicate_keys_last_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", 1)
        journal.record("a", 2)
        journal.close()
        journal, completed = started(path, resume=True)
        journal.close()
        assert completed == {"a": 2}


class TestRobustness:
    def test_truncated_final_line_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", 1)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "job", "key": "b", "val')  # crash mid-write
        journal, completed = started(path, resume=True)
        journal.close()
        assert completed == {"a": 1}

    def test_corrupt_middle_line_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"kind": "job", "key": "b", "value": 1}\n')
        with pytest.raises(ConfigurationError, match="malformed line"):
            RunJournal(str(path)).load()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "job", "key": "a", "value": 1}\n')
        with pytest.raises(ConfigurationError, match="header"):
            RunJournal(str(path)).load()

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n')
        with pytest.raises(ConfigurationError, match="version"):
            RunJournal(str(path)).load()

    def test_unknown_kinds_skipped_for_forward_compat(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", 1)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "annotation", "note": "hi"}\n')
        journal, completed = started(path, resume=True)
        journal.close()
        assert completed == {"a": 1}

    def test_load_missing_file(self, tmp_path):
        header, entries = RunJournal(str(tmp_path / "absent.jsonl")).load()
        assert header is None and entries == {}

    def test_double_start_rejected(self, tmp_path):
        journal, _ = started(tmp_path / "j.jsonl")
        with pytest.raises(ConfigurationError):
            journal.start(FP, run_id="r2")
        journal.close()

    def test_context_manager_closes(self, tmp_path):
        with RunJournal(str(tmp_path / "j.jsonl")) as journal:
            journal.start(FP, run_id="r1")
            journal.record("a", 1)
        _, entries = RunJournal(str(tmp_path / "j.jsonl")).load()
        assert set(entries) == {"a"}


class TestCorruptHeader:
    """A truncated/corrupt *header* must refuse clearly, never guess.

    Regression: a header cut mid-byte used to fall into the
    truncated-final-line tolerance (single-line file) or surface as an
    opaque JSON parse error, bricking a durable-queue restart.
    """

    def _truncated_header(self, tmp_path, keep_bytes=25):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", [1.5, 0])
        journal.close()
        raw = path.read_bytes()
        header_line = raw.splitlines(keepends=True)[0]
        assert len(header_line) > keep_bytes
        path.write_bytes(raw[:keep_bytes])  # byte-truncated header
        return path

    def test_truncated_header_is_a_clear_error(self, tmp_path):
        path = self._truncated_header(tmp_path)
        with pytest.raises(ConfigurationError, match="corrupt or truncated"):
            RunJournal(str(path)).load()
        with pytest.raises(ConfigurationError, match="force-new"):
            started(path, resume=True)

    def test_truncated_header_with_trailing_records(self, tmp_path):
        # Corrupt header followed by intact job lines: still the header
        # error, not the generic "malformed line" one.
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", 1)
        journal.close()
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0][:20] + "\n" + "".join(lines[1:]))
        with pytest.raises(ConfigurationError, match="header line is corrupt"):
            RunJournal(str(path)).load()

    def test_force_new_overwrites_corrupt_header(self, tmp_path):
        path = self._truncated_header(tmp_path)
        journal = RunJournal(str(path))
        completed = journal.start(FP, run_id="r2", resume=True, force_new=True)
        journal.record("b", 2)
        journal.close()
        assert completed == {}
        header, entries = RunJournal(str(path)).load()
        assert header is not None and header["fingerprint"] == FP
        assert set(entries) == {"b"}

    def test_force_new_overwrites_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", 1)
        journal.close()
        other = dict(FP, seed=8)
        journal = RunJournal(str(path))
        completed = journal.start(other, "r2", resume=True, force_new=True)
        journal.close()
        assert completed == {}
        header, _ = RunJournal(str(path)).load()
        assert header["fingerprint"] == other

    def test_force_new_still_resumes_healthy_journal(self, tmp_path):
        # The escape hatch never discards usable work: a matching,
        # readable journal resumes exactly as without the flag.
        path = tmp_path / "j.jsonl"
        journal, _ = started(path)
        journal.record("a", [1.0, 0])
        journal.close()
        journal = RunJournal(str(path))
        completed = journal.start(FP, "r2", resume=True, force_new=True)
        journal.close()
        assert completed == {"a": [1.0, 0]}


class TestConcurrentWriters:
    def test_second_writer_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first, _ = started(path)
        first.record("a", 1)
        with pytest.raises(ConfigurationError, match="another writer"):
            RunJournal(str(path)).start(FP, run_id="r2", resume=True)
        # The loser must not have truncated or corrupted the journal.
        first.record("b", 2)
        first.close()
        header, entries = RunJournal(str(path)).load()
        assert header is not None and set(entries) == {"a", "b"}

    def test_lock_released_on_close(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first, _ = started(path)
        first.close()
        second, completed = started(path, resume=True)
        second.close()
        assert completed == {}

    def test_second_writer_process_refused(self, tmp_path):
        # Cross-process: a child process must see the parent's lock.
        import os
        import subprocess
        import sys
        import textwrap

        import repro

        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        path = tmp_path / "j.jsonl"
        first, _ = started(path)
        script = textwrap.dedent(
            f"""
            from repro.errors import ConfigurationError
            from repro.harness.journal import RunJournal
            try:
                RunJournal({str(path)!r}).start(
                    {FP!r}, run_id="child", resume=True
                )
            except ConfigurationError as exc:
                assert "another writer" in str(exc), exc
                print("REFUSED")
            else:
                print("ACQUIRED")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src_dir),
        )
        first.close()
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "REFUSED"
