"""End-to-end benchmark of the repro package: Figure 6 sweeps and the
sweep service, measured from outside the package.

    python3 e2ebench/run.py --workload fig6c-scalar --seed 20200309 \
        --seconds 40 --trace 0

Run from the root of a checkout (the package is imported from ./src).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
timed in reference seconds (hostclock.py), or the per-layer metrics of
a separate traced run with ``--trace 1``.
See e2ebench/README.md for the workloads and every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common
import serve
import sweeps

UNITS = {
    "sims_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics reported by every traced run (0 where a layer does
#: no work on the workload).
LAYER_METRICS = {
    "workload.generate_s": "s",
    "workload.draws": "count",
    "workload.admission_tests": "count",
    "workload.accept_ratio": "ratio",
    "analysis.horizon_s": "s",
    "analysis.timeline_s": "s",
    "analysis.rta_s": "s",
    "analysis.promotion_s": "s",
    "analysis.postponement_s": "s",
    "analysis.cache_hits": "count",
    "analysis.cache_misses": "count",
    "analysis.hit_ratio": "ratio",
    "schedulers.prepare_s": "s",
    "sim.engine_s": "s",
    "sim.engine_runs": "count",
    "sim.jobs_released": "count",
    "sim.engine_us_per_job": "us",
    "sim.batch_build_s": "s",
    "sim.batch_kernel_s": "s",
    "sim.batch_items": "count",
    "sim.batch_fallback_ratio": "ratio",
    "sim.batch_us_per_sim": "us",
    "faults.materialize_s": "s",
    "faults.oracle_calls": "count",
    "faults.oracle_s": "s",
    "faults.transients": "count",
    "energy.account_s": "s",
    "qos.metrics_s": "s",
    "validate.audit_s": "s",
    "validate.audits": "count",
    "validate.issues": "count",
    "harness.journal_s": "s",
    "harness.journal_rows": "count",
    "harness.genstore_s": "s",
    "harness.genstore_hits": "count",
    "harness.sweep_self_s": "s",
    "service.job_latency_s": "s",
    "service.submit_ms": "ms",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.fetch_ms": "ms",
    "service.store_s": "s",
    "service.hit_ms_p50": "ms",
    "service.hit_ms_p99": "ms",
    "service.hit_ratio": "ratio",
    "service.rejected": "count",
    "host.calib_ms": "ms",
    "trace_overhead": "ratio",
    "unattributed_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"no repro package under {common.SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    tmp = os.path.join(common.ROOT, ".e2ebench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    env = common.child_env(tmp)
    tally = common.Tally()
    module = serve if args.workload == "serve" else sweeps
    try:
        calib_start = common.calibrate()
        if args.trace:
            metrics = module.run_traced(args.workload, args.seed, tmp, env, tally)
        else:
            metrics = module.run(args.workload, args.seed, args.seconds, tmp, env, tally)
        calib_end = common.calibrate()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it
    print(f"host.calib_ms start={calib_start:.3f} end={calib_end:.3f}")
    units = LAYER_METRICS if args.trace else UNITS
    if args.trace:
        metrics["host.calib_ms"] = (calib_start + calib_end) / 2.0
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        tally.record(0, ok=False)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics.get(name, 0.0):.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
