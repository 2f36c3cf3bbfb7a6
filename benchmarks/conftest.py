"""Shared fixtures for the benchmark suite.

The figure benches share one pool of task sets, generated once per session
with the paper's protocol.  Scale comes from the repository's single
experiment-protocol object (:mod:`repro.harness.protocol`): default bench
runs use the *smoke* scale (``ExperimentProtocol.smoke()``, 5 sets per
bin / 1000 ms horizon, for speed), and the usual environment overrides
rescale everything coherently:

* ``REPRO_BENCH_SETS``    -- task sets per 0.1-utilization bin (the
  documented EXPERIMENTS.md scale is 15; the paper itself uses >= 20).
* ``REPRO_BENCH_HORIZON`` -- simulation horizon cap in ms (documented
  scale: 1500).
"""

from __future__ import annotations

import pytest

from repro.harness.protocol import smoke_protocol
from repro.workload.generator import generate_binned_tasksets

#: The bench-session protocol: smoke scale + environment overrides.
PROTOCOL = smoke_protocol()

#: The paper's x-axis: 0.1-wide (m,k)-utilization bins.
BINS = PROTOCOL.bins

SETS_PER_BIN = PROTOCOL.sets_per_bin
HORIZON_UNITS = PROTOCOL.horizon_cap_units
SEED = PROTOCOL.seed


@pytest.fixture(scope="session")
def bench_tasksets():
    """One shared pool of schedulable task sets for every figure panel."""
    return generate_binned_tasksets(
        list(BINS), sets_per_bin=SETS_PER_BIN, seed=SEED
    )


def panel_kwargs(bench_tasksets):
    """Common keyword arguments for one Figure 6 panel."""
    return dict(tasksets_by_bin=bench_tasksets, protocol=PROTOCOL)


def record_sweep(benchmark, sweep):
    """Attach a sweep's headline numbers to the benchmark record."""
    for scheme in sweep.schemes:
        if scheme != sweep.reference_scheme:
            benchmark.extra_info[f"max_reduction_{scheme}_vs_ST"] = round(
                sweep.max_reduction(scheme, sweep.reference_scheme), 4
            )
    if "MKSS_DP" in sweep.schemes and "MKSS_Selective" in sweep.schemes:
        benchmark.extra_info["max_reduction_Selective_vs_DP"] = round(
            sweep.max_reduction("MKSS_Selective", "MKSS_DP"), 4
        )
    benchmark.extra_info["bins"] = len(sweep.bins)
