"""One cold unit of a sweep workload, in a fresh interpreter.

    python3 sweepchild.py WORKLOAD SEED DIR [--trace]
    python3 sweepchild.py --setup-only

A fresh process is as cold as a CLI invocation: empty analysis cache, no
generation store, and a new journal under DIR.  The last stdout line is a
JSON object: ``ready`` (monotonic seconds once the imports are done), the
host clock's reading of the start-up, and the panel's timings.  The
result document is written to DIR/result.json; a traced run also writes
DIR/spans.json.  ``--setup-only`` exits right after the imports.

The host clock (hostclock.py) runs from before the imports; a traced run
stops it once they are done, so no probe lands inside a span.
"""

import json
import os
import resource
import sys
import time

import hostclock

CLOCK = hostclock.HostClock()
CLOCK.start()

from repro.harness.figures import fig6b, fig6c  # noqa: E402
from repro.harness.journal import RunJournal  # noqa: E402
from repro.harness.protocol import ExperimentProtocol  # noqa: E402
from repro.service.store import canonical_result_bytes  # noqa: E402

READY = time.monotonic()

from common import sweep_protocol  # noqa: E402

#: Each sweep workload's panel and knobs beyond its execution defaults.
#: fig6c keeps fig6c's own defaults (pool backend, one worker, traces
#: collected) and adds a conformance audit of 2 of the unit's 27 sets,
#: about the share of the documented protocol's 9 of 135.
PANELS = {
    "fig6c-scalar": (fig6c, {"validate": 2}),
    "fig6b-batch": (fig6b, {"backend": "batch"}),
}


def run_panel(workload: str, seed: int, journal_path: str, **overrides):
    """One unit-scale panel on ``seed``'s corpus, with a journal."""
    panel, knobs = PANELS[workload]
    return panel(
        protocol=ExperimentProtocol(**sweep_protocol(seed)),
        journal_path=journal_path,
        **dict(knobs, **overrides),
    )


def check_journal(journal_path: str, payloads) -> None:
    """The journal must hand back exactly the result's job payloads."""
    _, rows = RunJournal(journal_path).load()
    if {key: list(row["value"]) for key, row in rows.items()} != {
        key: list(value) for key, value in payloads.items()
    }:
        raise SystemExit("journal rows differ from the result's job payloads")


def setup_report():
    """When the imports ended, the probes' time before that, and the
    host's slowness meanwhile (the parent knows when it spawned us)."""
    return {
        "ready": READY,
        "setup_probe_s": hostclock.probe_seconds(CLOCK.samples, 0.0, READY),
        "setup_slowness": hostclock.slowness(CLOCK.samples, 0.0, READY),
    }


def main(argv) -> int:
    if argv[0] == "--setup-only":
        CLOCK.stop()
        print(json.dumps(setup_report()))
        return 0
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    recorder = None
    if argv[3:] == ["--trace"]:
        CLOCK.stop()
        from tracer import Recorder, install

        recorder = Recorder()
        install(recorder)
    journal_path = os.path.join(out_dir, "journal.jsonl")
    started = time.monotonic()
    sweep = run_panel(workload, seed, journal_path)
    ended = time.monotonic()
    CLOCK.stop()
    samples = CLOCK.samples
    panel_wall_s = ended - started - hostclock.probe_seconds(samples, started, ended)
    payload = canonical_result_bytes(sweep)
    with open(os.path.join(out_dir, "result.json"), "wb") as handle:
        handle.write(payload)
    if recorder is not None:
        recorder.dump(os.path.join(out_dir, "spans.json"))
    check_journal(journal_path, sweep.job_payloads)
    report = {
        **setup_report(),
        "panel_wall_s": panel_wall_s,
        "sims": len(sweep.job_payloads),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is None:
        report["panel_s"] = hostclock.reference_seconds(samples, started, ended)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
