"""Workload definitions shared by the benchmark's processes.

Every scale knob is pinned here explicitly, so ``REPRO_BENCH_SETS`` /
``REPRO_BENCH_HORIZON`` (which rescale the package's own protocols)
cannot change what the benchmark runs.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The documented protocol seed: the reference workload seed, whose result
#: documents have committed digests in expected.json.
REFERENCE_SEED = 20200309

#: One sweep unit: the documented protocol (EXPERIMENTS.md's measured
#: series) at its horizon, with a fifth of its 15 sets per bin.  Five
#: units on five derived corpora hold as many task sets as one
#: documented-scale panel; a run times many such units, each read by its
#: own host clock (hostclock.py), so the run follows the host's drift.
UNIT = {"sets_per_bin": 3, "horizon_cap_units": 1500}
#: The smoke scale the service's panels run at.
SMOKE = {"sets_per_bin": 5, "horizon_cap_units": 1000}

SWEEP_WORKLOADS = ("fig6c-scalar", "fig6b-batch")
WORKLOADS = SWEEP_WORKLOADS + ("serve",)

#: Service panels, in submission order; the first of a seed generates the
#: corpus, the other two load it from the generation store.
SERVE_FAULTS = ("none", "permanent", "transient")
#: Most derived seeds one run uses: sweep units, service seeds.
#: expected.json holds a digest for each of them on the reference seed.
MAX_UNITS = 24
MAX_SERVE_SEEDS = 12


def derived_seed(seed: int, index: int) -> int:
    """The ``index``-th seed derived from the workload seed.

    Each sweep unit and each service seed of a run draws its own corpus,
    so one run spans several corpora; index 0 is the workload seed
    itself.
    """
    return seed + 1000 * index


def sweep_protocol(seed: int) -> Dict[str, Any]:
    """ExperimentProtocol keywords for a sweep unit on ``seed``.

    The reference seed keeps the documented fault-draw seed bases; any
    other seed moves them too, so a held-out seed changes the task-set
    corpus and the fault draws.
    """
    offset = 0 if seed == REFERENCE_SEED else 1000 * (1 + seed % 997)
    return dict(
        UNIT,
        seed=seed,
        permanent_seed_base=1_000_000 + offset,
        transient_seed_base=2_000_000 + offset,
    )


def serve_spec(seed: int, faults: str) -> Dict[str, Any]:
    """One smoke-scale panel submission."""
    return dict(SMOKE, faults=faults, seed=seed)


def load_expected() -> Dict[str, Any]:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child_env(tmp_dir: str) -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_BENCH_SETS", "REPRO_BENCH_HORIZON", "PYTHONPATH")
    }
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp_dir
    env["PYTHONUNBUFFERED"] = "1"
    return env


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, attempted: int, ok: bool) -> None:
        self.attempted += attempted
        self.failed += 0 if ok else 1


def calibrate() -> float:
    """Median milliseconds of five passes of a fixed pure-Python loop: a
    host-speed record printed beside the metrics, never applied to them."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)
