#!/usr/bin/env python3
"""Reproduce every paper artifact in one run and save the results.

Runs, in order:

1. the worked examples (Figures 1-5) with exact-value checks;
2. the three Figure 6 panels (shared task-set pool);

and writes the panels under ``results/`` (tables and ASCII charts as
.txt, whose first line names the protocol and this command; sweeps as
.json via the results store), ending with a PASS/FAIL summary per
artifact.  Ablations live in ``repro triage``, not here.

Usage:
    PYTHONPATH=src python scripts/reproduce_all.py [--sets-per-bin N]
                                                   [--horizon MS] [--out DIR]

Defaults come from the repository's single experiment-protocol object
(:mod:`repro.harness.protocol`): the smoke scale (5 sets/bin, 1000 ms),
env-overridable via ``REPRO_BENCH_SETS`` / ``REPRO_BENCH_HORIZON``.  The
committed ``results/`` are the documented EXPERIMENTS.md scale,
``--sets-per-bin 15 --horizon 1500`` (about 20 s), and
``tests/golden/test_goldens.py`` pins them to the Figure 6 headline
digests; the paper's own protocol uses at least 20 sets per bin.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.analysis.postponement import task_postponement_intervals
from repro.energy.accounting import energy_of
from repro.energy.power import PowerModel
from repro.harness.ascii_chart import render_sweep_chart
from repro.harness.figures import fig6a, fig6b, fig6c
from repro.harness.protocol import ExperimentProtocol, smoke_protocol
from repro.harness.report import format_series_table
from repro.harness.store import save_sweep
from repro.schedulers import (
    MKSSDualPriority,
    MKSSGreedy,
    MKSSSelective,
    MKSSStatic,
)
from repro.schedulers.base import run_policy
from repro.workload.generator import generate_binned_tasksets
from repro.workload.presets import fig1_taskset, fig3_taskset, fig5_taskset


def check(name, actual, expected, report):
    ok = actual == expected
    report.append((name, ok, f"measured {actual}, paper {expected}"))
    return ok


def run_worked_examples(report):
    def active(ts, policy, horizon_units, window_units=None):
        base = ts.timebase()
        horizon = horizon_units * base.ticks_per_unit
        result = run_policy(ts, policy, horizon, base)
        window = (window_units or horizon_units) * base.ticks_per_unit
        return energy_of(
            result.trace, base, window, PowerModel.active_only()
        ).active_units

    ts1, ts3, ts5 = fig1_taskset(), fig3_taskset(), fig5_taskset()
    check("Fig1 MKSS_DP energy", active(ts1, MKSSDualPriority(), 20), 15, report)
    check(
        "Fig2 dynamic-pattern energy",
        active(ts1, MKSSSelective(alternate=False), 20),
        12,
        report,
    )
    check("Fig3 greedy energy [0,24)", active(ts3, MKSSGreedy(), 25, 24), 20, report)
    check("Fig4 selective energy", active(ts3, MKSSSelective(), 25), 14, report)
    check(
        "Fig5 thetas",
        task_postponement_intervals(ts5).thetas,
        [7, 4],
        report,
    )
    check("Fig1 MKSS_ST reference", active(ts1, MKSSStatic(), 20), 18, report)


def run_figure6(args, out_dir, report):
    proto = smoke_protocol().replace(
        sets_per_bin=args.sets_per_bin, horizon_cap_units=args.horizon
    )
    bins = list(proto.bins)
    tasksets = generate_binned_tasksets(
        bins, sets_per_bin=proto.sets_per_bin, seed=proto.seed
    )
    shared = dict(tasksets_by_bin=tasksets, protocol=proto)
    scale = (
        "documented protocol"
        if proto == ExperimentProtocol.documented()
        else "protocol"
    )
    header = (
        f"{scale}: {proto.sets_per_bin} sets/bin, horizon "
        f"{proto.horizon_cap_units} ms, seed {proto.seed}; made by "
        f"PYTHONPATH=src python scripts/reproduce_all.py --sets-per-bin "
        f"{proto.sets_per_bin} --horizon {proto.horizon_cap_units}"
    )
    for panel_id, panel in (("fig6a", fig6a), ("fig6b", fig6b), ("fig6c", fig6c)):
        started = time.time()
        sweep = panel(**shared)
        elapsed = time.time() - started
        table = format_series_table(sweep, panel_id)
        chart = render_sweep_chart(sweep, title=panel_id)
        with open(
            os.path.join(out_dir, f"{panel_id}.txt"), "w", encoding="utf-8"
        ) as handle:
            handle.write(f"{panel_id} -- {header}\n\n")
            handle.write(table + "\n\n" + chart + "\n")
        save_sweep(sweep, os.path.join(out_dir, f"{panel_id}.json"))
        violations = sum(
            sum(b.mk_violation_count.values()) for b in sweep.bins
        )
        reduction = sweep.max_reduction("MKSS_Selective", "MKSS_DP")
        report.append(
            (
                f"{panel_id} ({elapsed:.0f}s)",
                violations == 0,
                f"0 violations required (got {violations}); "
                f"max Selective-vs-DP reduction {reduction:.1%}",
            )
        )
        print(table)
        print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    smoke = smoke_protocol()
    parser.add_argument(
        "--sets-per-bin", type=int, default=smoke.sets_per_bin
    )
    parser.add_argument("--horizon", type=int, default=smoke.horizon_cap_units)
    parser.add_argument("--out", default="results")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    report = []
    print("== worked examples (Figures 1-5) ==")
    run_worked_examples(report)
    for name, ok, detail in report:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print()
    print("== Figure 6 panels ==")
    run_figure6(args, args.out, report)

    failed = [name for name, ok, _ in report if not ok]
    print("== summary ==")
    for name, ok, detail in report:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    print(f"\nresults written to {args.out}/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
