#!/usr/bin/env python3
"""Extension demo: per-task hybrid mode selection.

The FD = 1 selection rule of MKSS-Selective executes optional jobs at an
exact long-run rate of m/(k-1) per job -- above the mandatory rate m/k.
That trade only pays when it cancels backup work; for a task whose
postponed backup never runs anyway (lots of slack), plain dual-priority
duplication is cheaper.  ``MKSSHybrid`` decides per task, offline.

This script shows the decision on a mixed workload and compares the three
schemes' energies.

Run:  python examples/hybrid_extension.py
"""

from __future__ import annotations

from fractions import Fraction

from repro import (
    MKSSDualPriority,
    MKSSHybrid,
    MKSSSelective,
    PowerModel,
    Task,
    TaskSet,
    energy_of,
    run_policy,
    selective_execution_rate,
)
from repro.sim.engine import PolicyContext


def main() -> None:
    print("long-run execution rate of the FD=1 rule (vs mandatory m/k):")
    for m, k in [(1, 2), (2, 4), (1, 5), (3, 5), (9, 10)]:
        rate = selective_execution_rate(
            __import__("repro").MKConstraint(m, k)
        )
        print(f"  (m,k)=({m},{k}): S = {rate}  vs  m/k = {Fraction(m, k)}")
    print()

    taskset = TaskSet(
        [
            Task(5, 4, 3, 2, 4, name="tight"),      # heavy, selective-friendly
            Task(25, 25, 2, 1, 2, name="slack12"),  # (1,2) + slack: DP-friendly
            Task(40, 40, 3, 2, 5, name="medium"),
        ]
    )
    base = taskset.timebase()
    horizon = 600 * base.ticks_per_unit

    hybrid = MKSSHybrid()
    results = {}
    for policy in (MKSSDualPriority(), MKSSSelective(), hybrid):
        result = run_policy(taskset, policy, horizon, base)
        report = energy_of(
            result.trace, base, horizon, PowerModel.paper_default()
        )
        results[policy.name] = report.total_energy
        assert result.all_mk_satisfied()

    # A task's mode is its profile's classification: the FD rule in
    # selective mode, its static R-pattern in DP mode.
    profile = hybrid.prepare(PolicyContext(taskset, base, horizon))
    print("offline mode decisions:")
    for task, rules in zip(taskset, profile.tasks):
        mode = "selective" if rules.classification == "fd" else "dp"
        print(f"  {task.name}: {mode}")
    print()
    print("total energy over 600ms (paper power model):")
    for name, energy in results.items():
        print(f"  {name:16s} {energy:8.2f}")
    best = min(results, key=results.get)
    print(f"\nhybrid wins or ties: best scheme = {best}")


if __name__ == "__main__":
    main()
