"""Plain-text tables mirroring the paper's figures as printable rows,
plus the run-health summary of a resilient sweep's event stream."""

from __future__ import annotations

from typing import List, Sequence

from .events import (
    BATCH_PROGRESS,
    JOB_DROP,
    JOB_FINISH,
    JOB_RETRY,
    JOB_SKIP,
    POOL_RESPAWN,
    EventLog,
)
from .sweep import SweepResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Monospace table with per-column widths."""
    widths = [len(h) for h in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series_table(sweep: SweepResult, title: str = "") -> str:
    """One Figure 6 panel as a table of normalized energies per bin."""
    headers = ["(m,k)-util bin", "sets"] + [
        f"{scheme} (norm)" for scheme in sweep.schemes
    ]
    rows: List[List[str]] = []
    for bucket in sweep.bins:
        row = [bucket.label, str(bucket.taskset_count)]
        for scheme in sweep.schemes:
            row.append(f"{bucket.normalized_energy[scheme]:.3f}")
        rows.append(row)
    table = format_table(headers, rows)
    footer_lines = []
    for scheme in sweep.schemes:
        if scheme == sweep.reference_scheme:
            continue
        for versus in sweep.schemes:
            if versus == scheme:
                continue
            reduction = sweep.max_reduction(scheme, versus)
            if reduction > 0:
                footer_lines.append(
                    f"max reduction {scheme} vs {versus}: {reduction:.1%}"
                )
    if sweep.dropped:
        footer_lines.append(
            f"dropped task sets (excluded from aggregation, pairing "
            f"preserved): {len(sweep.dropped)}"
        )
        for entry in sweep.dropped:
            footer_lines.append(
                f"  {entry.label}: {', '.join(entry.schemes)} -- {entry.reason}"
            )
    body = f"{title}\n{table}" if title else table
    if footer_lines:
        body += "\n" + "\n".join(footer_lines)
    return body


def format_event_summary(log: EventLog) -> str:
    """Run-health summary of a sweep's event stream.

    One row per resilience metric: finished / skipped (journal resume) /
    retried / dropped job counts, pool respawns, and wall-time stats of
    the finished jobs.  A batch-backend run adds one row from its final
    progress event: simulations run on the kernel, jobs sent to the
    scalar engine, and lockstep iterations ("-" where not counted).
    """
    counts = log.counts()
    walls = log.job_wall_seconds()
    rows = [
        ["run id", log.run_id],
        ["jobs finished", str(counts.get(JOB_FINISH, 0))],
        ["jobs skipped (journal)", str(counts.get(JOB_SKIP, 0))],
        ["job retries", str(counts.get(JOB_RETRY, 0))],
        ["jobs dropped", str(counts.get(JOB_DROP, 0))],
        ["pool respawns", str(counts.get(POOL_RESPAWN, 0))],
    ]
    if walls:
        rows.append(
            [
                "job wall time (mean/max s)",
                f"{sum(walls) / len(walls):.3f}/{max(walls):.3f}",
            ]
        )
    finals = [
        event.data
        for event in log.of_kind(BATCH_PROGRESS)
        if "fallback" in event.data
    ]
    if finals:
        batch = finals[-1]
        rows.append(
            [
                "batch sims/fallback/iterations",
                f"{batch['done']}/{batch['fallback']}/"
                f"{batch.get('iterations', '-')}",
            ]
        )
    return format_table(["metric", "value"], rows)
