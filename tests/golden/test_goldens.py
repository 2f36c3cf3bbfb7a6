"""Committed golden bytes: run documents, sweep results, journals, digests.

Every other equivalence test in the suite compares two runs of the same
build (trace against stats, batch against scalar, knob on against knob
off), so a change that shifts every output the same way passes them
all.  These tests compare against bytes committed in ``goldens.json``:

* the sha256 of ``result_to_json`` for every registered scheme plus FP
  and DBP, on the paper's worked examples (Figures 1, 3 and 5), the
  committed generated workload, and a mixed set on which MKSS_Hybrid
  picks both of its modes -- each fault-free, with a permanent fault on
  either processor, and with a seeded permanent-plus-transient draw,
  plus legs for the bursty release model, the ``miss`` and ``rpattern``
  initial histories and the default DVFS config;
* the canonical result bytes and the journal ``{key: value}`` rows of a
  tiny all-scheme sweep per fault regime (and per non-default initial
  history), which the pool and batch backends must both reproduce;
* ``SweepSpec.digest()`` for the default spec, each fault regime and
  each scenario knob;
* the canonical result bytes of the Figure 6 headline: panels 6(a),
  6(b) and 6(c) under :meth:`ExperimentProtocol.documented` on one
  shared corpus (109 task sets, 327 simulations per panel), checked on
  the batch backend -- wider and longer than any other batch test --
  and against the committed ``results/fig6{a,b,c}.json``, which
  ``scripts/reproduce_all.py`` writes at that scale (no simulation).

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python -m tests.golden.test_goldens
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

from repro.analysis.hyperperiod import analysis_horizon
from repro.energy.dvfs import DVFSConfig
from repro.faults.scenario import FaultScenario
from repro.harness.figures import fig6a, fig6b, fig6c
from repro.harness.journal import RunJournal
from repro.harness.protocol import ExperimentProtocol
from repro.harness.store import load_sweep
from repro.harness.runner import SCHEME_FACTORIES, RunSpec, run_scheme
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import DistanceBasedPriority, SingleProcessorFP
from repro.schedulers.base import run_policy
from repro.service.spec import SweepSpec
from repro.service.store import canonical_result_bytes
from repro.sim.export import result_to_json
from repro.workload.generator import generate_binned_tasksets
from repro.workload.presets import fig1_taskset, fig3_taskset, fig5_taskset
from repro.workload.release import ReleaseModel
from repro.workload.serialization import load_taskset

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "goldens.json")
WORKLOADS = os.path.join(HERE, os.pardir, os.pardir, "examples", "workloads")
RESULTS = os.path.join(HERE, os.pardir, os.pardir, "results")

#: Single-processor baselines outside the sweep registry.
EXTRA_SCHEMES = {"FP": SingleProcessorFP, "DBP": DistanceBasedPriority}
SCHEMES = sorted(SCHEME_FACTORIES) + sorted(EXTRA_SCHEMES)

#: (task set factory, horizon cap in units).  The generated workload's
#: hyperperiod is huge, so its cap keeps the corpus to a few seconds.
TASKSETS = {
    "fig1": (fig1_taskset, 2000),
    "fig3": (fig3_taskset, 2000),
    "fig5": (fig5_taskset, 2000),
    "generated_u045": (
        lambda: load_taskset(os.path.join(WORKLOADS, "generated_u045.json")),
        400,
    ),
    # MKSS_Hybrid runs task 1 in selective mode and tasks 2-3 in DP mode.
    "hybrid_mix": (
        lambda: TaskSet(
            [Task(5, 4, 3, 2, 4), Task(25, 25, 2, 1, 2), Task(40, 40, 3, 2, 5)]
        ),
        2000,
    ),
}

_TRANSIENT = FaultScenario.permanent_and_transient(seed=5, rate=0.02)

#: leg -> (scenario, release model, initial history, dvfs).
LEGS = {
    "none": (FaultScenario.none(), None, "met", None),
    "perm0": (FaultScenario.permanent_only(seed=11, processor=0), None, "met", None),
    "perm1": (FaultScenario.permanent_only(seed=11, processor=1), None, "met", None),
    "transient": (_TRANSIENT, None, "met", None),
}
for _fault, _scenario in (("none", FaultScenario.none()), ("transient", _TRANSIENT)):
    LEGS[f"bursty-{_fault}"] = (
        _scenario, ReleaseModel.preset("bursty", seed=3), "met", None
    )
    LEGS[f"miss-{_fault}"] = (_scenario, None, "miss", None)
    LEGS[f"rpattern-{_fault}"] = (_scenario, None, "rpattern", None)
    LEGS[f"dvfs-{_fault}"] = (_scenario, None, "met", DVFSConfig())

#: Tiny all-scheme sweeps: name -> SweepSpec keyword overrides.
SWEEPS = {
    "none": {"faults": "none"},
    "permanent": {"faults": "permanent"},
    "transient": {"faults": "transient"},
    "permanent-miss": {"faults": "permanent", "initial_history": "miss"},
    "permanent-rpattern": {"faults": "permanent", "initial_history": "rpattern"},
}
SWEEP_BASE = {
    "bins": ((0.2, 0.3), (0.5, 0.6)),
    "schemes": tuple(sorted(SCHEME_FACTORIES)),
    "sets_per_bin": 2,
    "seed": 3,
    "horizon_cap_units": 150,
}

#: Spec digests: the default spec, each fault regime, each knob.
SPECS = {
    "default": {},
    "permanent": {"faults": "permanent"},
    "transient": {"faults": "transient"},
    "release-bursty": {"release_model": "bursty"},
    "release-light": {"release_model": "light"},
    "history-miss": {"initial_history": "miss"},
    "history-rpattern": {"initial_history": "rpattern"},
    "dvfs-default": {"dvfs": {}},
    "validate": {"validate": 2},
}


#: The Figure 6 headline panels, all run on one documented corpus.
HEADLINE_PANELS = {"fig6a": fig6a, "fig6b": fig6b, "fig6c": fig6c}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(set_name: str, leg: str) -> dict:
    """``{scheme: sha256(result_to_json)}`` for one task set and leg."""
    factory, cap = TASKSETS[set_name]
    taskset = factory()
    scenario, release_model, history, dvfs = LEGS[leg]
    digests = {}
    for scheme in SCHEMES:
        if scheme in EXTRA_SCHEMES:
            base = taskset.timebase()
            result = run_policy(
                taskset,
                EXTRA_SCHEMES[scheme](),
                analysis_horizon(taskset, base, cap),
                base,
                scenario,
                release_model=release_model,
                initial_history=history,
            )
        else:
            run = RunSpec(
                horizon_cap_units=cap,
                release_model=release_model,
                initial_history=history,
                dvfs=dvfs,
            )
            result = run_scheme(taskset, scheme, scenario, run).result
        digests[scheme] = _sha256(result_to_json(result).encode("utf-8"))
    return digests


def sweep_golden(name: str, backend: str, workdir: str) -> dict:
    """Canonical result digest and journal rows of one tiny sweep."""
    spec = SweepSpec(**SWEEP_BASE, **SWEEPS[name], backend=backend)
    path = os.path.join(workdir, f"{name}-{backend}.jsonl")
    result = spec.run(journal_path=path)
    _, records = RunJournal(path).load()
    return {
        "result_sha256": _sha256(canonical_result_bytes(result)),
        "journal": {key: record["value"] for key, record in sorted(records.items())},
    }


def headline_digests(backend: str) -> dict:
    """``{panel: sha256(canonical_result_bytes)}`` of the documented
    Figure 6 panels over one shared corpus."""
    proto = ExperimentProtocol.documented()
    tasksets = generate_binned_tasksets(
        list(proto.bins), proto.sets_per_bin, proto.generator, proto.seed
    )
    return {
        panel: _sha256(
            canonical_result_bytes(
                run(protocol=proto, tasksets_by_bin=tasksets, backend=backend)
            )
        )
        for panel, run in HEADLINE_PANELS.items()
    }


def spec_digests() -> dict:
    return {name: SweepSpec.from_dict(payload).digest() for name, payload in SPECS.items()}


def compute_goldens() -> dict:
    """Every pinned value, computed from the current source tree."""
    with tempfile.TemporaryDirectory() as workdir:
        sweeps = {name: sweep_golden(name, "pool", workdir) for name in SWEEPS}
    return {
        "runs": {
            set_name: {leg: run_digests(set_name, leg) for leg in LEGS}
            for set_name in TASKSETS
        },
        "sweeps": sweeps,
        "spec_digests": spec_digests(),
        "headline": headline_digests("pool"),
    }


@pytest.fixture(scope="module")
def goldens():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("leg", sorted(LEGS))
@pytest.mark.parametrize("set_name", sorted(TASKSETS))
def test_run_documents_match_goldens(goldens, set_name, leg):
    assert run_digests(set_name, leg) == goldens["runs"][set_name][leg]


@pytest.mark.parametrize("backend", ["pool", "batch"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bytes_and_journal_match_goldens(goldens, tmp_path, name, backend):
    if backend == "batch":
        pytest.importorskip("numpy")
    assert sweep_golden(name, backend, str(tmp_path)) == goldens["sweeps"][name]


def test_spec_digests_match_goldens(goldens):
    assert spec_digests() == goldens["spec_digests"]


def test_figure6_headline_matches_goldens(goldens):
    pytest.importorskip("numpy")
    assert headline_digests("batch") == goldens["headline"]


@pytest.mark.parametrize("panel", sorted(HEADLINE_PANELS))
def test_committed_results_match_headline(goldens, panel):
    """The committed ``results/`` are the documented headline run."""
    sweep = load_sweep(os.path.join(RESULTS, f"{panel}.json"))
    assert _sha256(canonical_result_bytes(sweep)) == goldens["headline"][panel]


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(compute_goldens(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
