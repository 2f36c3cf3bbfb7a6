"""The sweep workloads, driven from the parent: one child process per
cold unit (see sweepchild.py)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from checks import check_document, count_sims
from common import (
    HERE,
    MAX_UNITS,
    REFERENCE_SEED,
    Tally,
    derived_seed,
    load_expected,
    median,
)
from tracer import attributed_seconds, layer_metrics

CHILD = os.path.join(HERE, "sweepchild.py")
#: Fewest cold starts per run, for a steady setup_s median.
MIN_STARTS = 8
#: Units the traced run repeats: as many task sets as one documented panel.
TRACE_UNITS = 5
CHILD_TIMEOUT_S = 170


def _spawn(args: List[str], env: Dict[str, str]) -> Optional[Dict[str, Any]]:
    """Run one child; its last stdout line plus ``setup_s``, or None."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out: {args}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = (
        report["ready"] - spawned - report["setup_probe_s"]
    ) / report["setup_slowness"]
    return report


def _unit(
    workload: str, seed: int, index: int, unit_dir: str, env: Dict[str, str],
    tally: Tally, trace: bool,
) -> Optional[Dict[str, Any]]:
    """Unit ``index`` of the run: one panel on its derived corpus."""
    os.makedirs(unit_dir)
    corpus = derived_seed(seed, index)
    report = _spawn(
        [workload, str(corpus), unit_dir] + (["--trace"] if trace else []), env
    )
    if report is None:
        tally.record(1, ok=False)
        return None
    with open(os.path.join(unit_dir, "result.json"), "rb") as handle:
        payload = handle.read()
    problems = check_document(
        payload,
        load_expected()[workload][str(corpus)] if seed == REFERENCE_SEED else None,
        allow_violations=workload == "fig6c-scalar" and corpus != REFERENCE_SEED,
    )
    for problem in problems[:5]:
        print(f"check failed: {workload} seed {corpus}: {problem}", file=sys.stderr)
    tally.record(count_sims(payload), ok=not problems)
    return report


def run(
    workload: str, seed: int, seconds: float, tmp: str, env: Dict[str, str], tally: Tally
) -> Dict[str, float]:
    """End-to-end metrics of one untraced run, timed in reference seconds
    by the children's host clocks.

    Units, each on the next derived corpus, run while the next one should
    end before the deadline (at least one, at most MAX_UNITS); start-up-only
    children then bring the cold starts up to MIN_STARTS.
    """
    units: List[Dict[str, Any]] = []
    walls: List[float] = []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        index = len(walls)
        report = _unit(workload, seed, index, os.path.join(tmp, f"unit{index}"),
                       env, tally, False)
        walls.append(time.monotonic() - started)
        if report is None:
            return {}
        units.append(report)
        if index + 1 == MAX_UNITS or time.monotonic() + median(walls) > deadline:
            break
    setup = [u["setup_s"] for u in units]
    while len(setup) < MIN_STARTS:
        report = _spawn(["--setup-only"], env)
        if report is None:
            tally.record(1, ok=False)
            break
        setup.append(report["setup_s"])
    rates = [u["sims"] / u["panel_s"] for u in units]
    print(f"{workload}: {len(units)} unit(s) at "
          + " ".join(f"{rate:.2f}" for rate in rates)
          + " sims per reference second; wall "
          + " ".join(f"{u['sims'] / u['panel_wall_s']:.2f}" for u in units)
          + f" sims/s; {len(setup)} cold start(s)")
    return {
        "sims_per_s": sum(u["sims"] for u in units) / sum(u["panel_s"] for u in units),
        "setup_s": median(setup),
        "peak_rss_mb": median([u["rss_mb"] for u in units]),
    }


def run_traced(
    workload: str, seed: int, tmp: str, env: Dict[str, str], tally: Tally
) -> Dict[str, float]:
    """Per-layer metrics: the first TRACE_UNITS units untraced, then traced."""
    plain, traced, dumps = [], [], []
    for index in range(TRACE_UNITS):
        plain.append(_unit(workload, seed, index, os.path.join(tmp, f"plain{index}"),
                           env, tally, False))
    for index in range(TRACE_UNITS):
        traced_dir = os.path.join(tmp, f"traced{index}")
        traced.append(_unit(workload, seed, index, traced_dir, env, tally, True))
        if traced[-1] is not None:
            with open(os.path.join(traced_dir, "spans.json"), encoding="utf-8") as handle:
                dumps.append(json.load(handle))
    if None in plain or None in traced:
        return {}
    metrics = layer_metrics(dumps)
    traced_s = sum(u["panel_wall_s"] for u in traced)
    metrics["trace_overhead"] = traced_s / sum(u["panel_wall_s"] for u in plain) - 1.0
    metrics["unattributed_s"] = traced_s - attributed_seconds(dumps)
    return metrics
